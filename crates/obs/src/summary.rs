//! Snapshots of the collector and the human-readable summary table.

use crate::key::{Counter, Hist};
use crate::sink::{json_number, json_string};
use std::fmt;
use std::time::Duration;

/// Number of logarithmic buckets per histogram: four per octave, so the
/// top bucket starts at 2^(127/4) ≈ 3.6e9 — about an hour in µs.
const BUCKETS: usize = 128;

/// Aggregate of one histogram key: count/sum/min/max plus a fixed array
/// of logarithmic buckets (four per power of two) for percentile
/// readback. A value in bucket `k` lies in `[2^(k/4), 2^((k+1)/4))`, so
/// reading a quantile back as the bucket's geometric midpoint is off by
/// at most a factor of 2^(1/8) ≈ 1.09 — a ≤9% relative error, at 1 KiB
/// per histogram and O(1) record cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistData {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+∞` when empty).
    pub min: f64,
    /// Largest observed value (`-∞` when empty).
    pub max: f64,
    /// Observation counts per logarithmic bucket.
    buckets: [u64; BUCKETS],
}

impl HistData {
    /// A histogram with no observations.
    pub const EMPTY: HistData = HistData {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        buckets: [0; BUCKETS],
    };

    /// Bucket index for value `v`: `floor(4·log2(v))` clamped to the
    /// array. Everything ≤ 1 (and NaN) lands in bucket 0.
    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= 1.0 {
            return 0;
        }
        let idx = (4.0 * v.log2()).floor();
        if idx >= (BUCKETS - 1) as f64 {
            BUCKETS - 1
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = idx as usize;
            idx
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = self.count as f64;
            self.sum / n
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0,1]`) from the buckets:
    /// nearest-rank selection, read back as the holding bucket's
    /// geometric midpoint and clamped to the exact observed `[min, max]`.
    /// Relative error ≤ 2^(1/8) − 1 ≈ 9%; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let target = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        // Rank 0 and rank count−1 are tracked exactly — no bucket error
        // at the extremes (and single observations read back verbatim).
        if target == 0 {
            return self.min;
        }
        if target + 1 >= self.count {
            return self.max;
        }
        let mut cum = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum > target {
                #[allow(clippy::cast_precision_loss)]
                let mid = 2f64.powf((k as f64 + 0.5) / 4.0);
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`HistData::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// Aggregate of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall time inside the span.
    pub total: Duration,
    /// Wall time attributed to direct child spans.
    pub child: Duration,
}

impl SpanStat {
    /// Wall time spent in the span itself, excluding child spans.
    pub fn self_time(&self) -> Duration {
        self.total.saturating_sub(self.child)
    }
}

/// A point-in-time copy of the collector: non-zero counters, non-empty
/// histograms, and every span path seen so far (sorted by path).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(key, value)` for every counter with a non-zero value.
    pub counters: Vec<(Counter, u64)>,
    /// `(key, aggregate)` for every histogram with observations.
    pub hists: Vec<(Hist, HistData)>,
    /// `(path, aggregate)` per span path, lexicographically sorted so a
    /// parent precedes its children.
    pub spans: Vec<(String, SpanStat)>,
}

impl Snapshot {
    /// A counter's value (0 when it was never incremented).
    pub fn counter(&self, key: Counter) -> u64 {
        self.counters
            .iter()
            .find(|&&(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }

    /// The aggregate for an exact span path, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans
            .iter()
            .find(|(p, _)| p.as_str() == path)
            .map(|(_, s)| s)
    }

    /// Fraction of `root`'s wall time attributed to its direct children
    /// (the per-phase coverage the CLI reports). `None` if the root span
    /// was never recorded or has zero duration.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let s = self.span(root)?;
        if s.total.is_zero() {
            return None;
        }
        Some(s.child.as_secs_f64() / s.total.as_secs_f64())
    }

    /// Render the snapshot as one JSON object (hand-rolled; the workspace
    /// has no serde). Shape:
    /// `{"counters":{..},"histograms":{..},"spans":{..}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k.name())));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"min\":{},\"mean\":{},\"p50\":{},\"p90\":{},\
                 \"p99\":{},\"p999\":{},\"max\":{},\"sum\":{}}}",
                json_string(k.name()),
                h.count,
                json_number(h.min),
                json_number(h.mean()),
                json_number(h.p50()),
                json_number(h.p90()),
                json_number(h.p99()),
                json_number(h.p999()),
                json_number(h.max),
                json_number(h.sum)
            ));
        }
        out.push_str("},\"spans\":{");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"total_us\":{},\"self_us\":{}}}",
                json_string(path),
                s.count,
                s.total.as_micros(),
                s.self_time().as_micros()
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Humanize a duration: `123.4µs`, `12.34ms`, or `1.234s`.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{:.3}s", us / 1e6)
    }
}

/// The hierarchical per-phase summary printed by `sia … --metrics`.
///
/// Wraps a [`Snapshot`]; [`fmt::Display`] renders an aligned table of the
/// span tree (count / total / self / percent of run), followed by the
/// counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSummary {
    /// The underlying snapshot.
    pub snapshot: Snapshot,
}

impl MetricsSummary {
    /// Wrap a snapshot.
    pub fn new(snapshot: Snapshot) -> Self {
        MetricsSummary { snapshot }
    }

    /// True when nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.counters.is_empty()
            && self.snapshot.hists.is_empty()
            && self.snapshot.spans.is_empty()
    }
}

impl fmt::Display for MetricsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        let snap = &self.snapshot;
        if !snap.spans.is_empty() {
            // Grand total = sum over root spans (paths without '/'), the
            // denominator for every percentage in the table.
            let grand: f64 = snap
                .spans
                .iter()
                .filter(|(p, _)| !p.contains('/'))
                .map(|(_, s)| s.total.as_secs_f64())
                .sum();
            let rows: Vec<(String, &SpanStat)> = snap
                .spans
                .iter()
                .map(|(p, s)| {
                    let depth = p.matches('/').count();
                    let name = p.rsplit('/').next().unwrap_or(p);
                    (format!("{}{}", "  ".repeat(depth), name), s)
                })
                .collect();
            let width = rows
                .iter()
                .map(|(n, _)| n.len())
                .chain(["phase".len()])
                .max()
                .unwrap_or(5);
            writeln!(
                f,
                "{:<width$}  {:>7}  {:>10}  {:>10}  {:>6}",
                "phase", "count", "total", "self", "%"
            )?;
            for (name, s) in &rows {
                let pct = if grand > 0.0 {
                    100.0 * s.total.as_secs_f64() / grand
                } else {
                    0.0
                };
                writeln!(
                    f,
                    "{name:<width$}  {:>7}  {:>10}  {:>10}  {pct:>6.1}",
                    s.count,
                    fmt_duration(s.total),
                    fmt_duration(s.self_time()),
                )?;
            }
        }
        if !snap.counters.is_empty() {
            let width = snap
                .counters
                .iter()
                .map(|(k, _)| k.name().len())
                .chain(["counter".len()])
                .max()
                .unwrap_or(7);
            writeln!(f, "\n{:<width$}  {:>12}", "counter", "value")?;
            for (k, v) in &snap.counters {
                writeln!(f, "{:<width$}  {v:>12}", k.name())?;
            }
        }
        if !snap.hists.is_empty() {
            let width = snap
                .hists
                .iter()
                .map(|(k, _)| k.name().len())
                .chain(["histogram".len()])
                .max()
                .unwrap_or(9);
            writeln!(
                f,
                "\n{:<width$}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                "histogram", "count", "min", "mean", "p50", "p99", "max"
            )?;
            for (k, h) in &snap.hists {
                let (mn, mx) = if h.count == 0 {
                    (0.0, 0.0)
                } else {
                    (h.min, h.max)
                };
                writeln!(
                    f,
                    "{:<width$}  {:>7}  {mn:>10.2}  {:>10.2}  {:>10.2}  {:>10.2}  {mx:>10.2}",
                    k.name(),
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p99(),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn humanizes_durations() {
        assert_eq!(fmt_duration(Duration::ZERO), "0.0µs");
        assert_eq!(fmt_duration(Duration::from_micros(123)), "123.0µs");
        assert_eq!(fmt_duration(Duration::from_micros(12_340)), "12.34ms");
        assert_eq!(fmt_duration(Duration::from_millis(1_234)), "1.234s");
    }

    #[test]
    fn zero_count_summary_displays() {
        let s = MetricsSummary::default();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "(no metrics recorded)\n");
        // A histogram that exists but never observed anything renders a
        // zero-count row without dividing by zero.
        let mut h = HistData::EMPTY;
        assert_eq!(h.mean(), 0.0);
        h.record(5.0);
        let snap = Snapshot {
            counters: vec![],
            hists: vec![(Hist::SvmIterations, HistData::EMPTY)],
            spans: vec![],
        };
        let text = MetricsSummary::new(snap).to_string();
        assert!(text.contains("svm.iterations"), "{text}");
        assert!(text.contains("  0  "), "{text}");
    }

    #[test]
    fn single_sample_summary_displays() {
        let mut h = HistData::EMPTY;
        h.record(3.0);
        assert_eq!((h.min, h.mean(), h.max), (3.0, 3.0, 3.0));
        let snap = Snapshot {
            counters: vec![(Counter::SatDecisions, 7)],
            hists: vec![(Hist::SatLearnedLen, h)],
            spans: vec![(
                "synth".to_string(),
                SpanStat {
                    count: 1,
                    total: Duration::from_micros(500),
                    child: Duration::from_micros(450),
                },
            )],
        };
        let text = MetricsSummary::new(snap.clone()).to_string();
        assert!(text.contains("sat.decisions"), "{text}");
        assert!(text.contains("500.0µs"), "{text}");
        assert!(text.contains("50.0µs"), "{text}"); // self = total - child
        assert!(text.contains("100.0"), "{text}"); // root is 100% of run
        let cov = snap.coverage("synth").unwrap();
        assert!((cov - 0.9).abs() < 1e-9, "{cov}");
    }

    #[test]
    fn snapshot_renders_json() {
        let mut h = HistData::EMPTY;
        h.record(2.0);
        let snap = Snapshot {
            counters: vec![(Counter::SmtChecks, 3)],
            hists: vec![(Hist::QeBlowup, h)],
            spans: vec![(
                "synth/learn".to_string(),
                SpanStat {
                    count: 2,
                    total: Duration::from_micros(90),
                    child: Duration::ZERO,
                },
            )],
        };
        let json = snap.to_json();
        let expected = "{\"counters\":{\"smt.checks\":3},\
             \"histograms\":{\"qe.blowup\":{\"count\":1,\"min\":2,\"mean\":2,\
             \"p50\":2,\"p90\":2,\"p99\":2,\"p999\":2,\"max\":2,\"sum\":2}},\
             \"spans\":{\"synth/learn\":{\"count\":2,\"total_us\":90,\"self_us\":90}}}";
        assert_eq!(json, expected);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        // 1..=1000: the exact q-quantile is q·1000, and the bucket
        // estimate must stay within the documented 9% relative error.
        let mut h = HistData::EMPTY;
        for v in 1..=1000 {
            h.record(f64::from(v));
        }
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0), (0.999, 999.0)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.091, "q={q}: est {est} vs exact {exact} ({rel})");
        }
        // Extremes are exact: clamped to observed min/max.
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
        // A single observation reads back exactly at every quantile.
        let mut one = HistData::EMPTY;
        one.record(1234.5);
        assert_eq!(one.p50(), 1234.5);
        assert_eq!(one.p999(), 1234.5);
        // Empty histograms answer 0 without dividing by zero.
        assert_eq!(HistData::EMPTY.quantile(0.5), 0.0);
    }
}
