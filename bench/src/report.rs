//! The result of one run, as the one-line JSON object the driver reads
//! and as a table for people.

use crate::json::{number, Json};
use crate::metrics;
use crate::stats::{highest_tail, median, percentile_sorted, samples_beyond, MIN_BEYOND};
use sia_obs::json_string as string;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Every answer checked was right and no timed operation failed.
    pub correct: bool,
    /// Timed operations.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Measured>,
}

impl RunReport {
    /// Attach units from the metric tables to `(name, value)` pairs.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        values: &[(&'static str, f64)],
    ) -> RunReport {
        RunReport {
            correct,
            attempted,
            failed,
            metrics: values
                .iter()
                .map(|&(name, value)| Measured {
                    name: name.to_string(),
                    value,
                    unit: metrics::find(name).map_or("", |m| m.unit).to_string(),
                })
                .collect(),
        }
    }

    /// The value of metric `name`.
    #[cfg(test)]
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The driver's line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    string(&m.name),
                    number(m.value),
                    string(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Read a line written by [`RunReport::to_line`].
    pub fn parse(line: &str) -> Result<RunReport, String> {
        let doc = Json::parse(line)?;
        let whole = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| format!("result line: `{key}` is not a whole number"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line: no `metrics` object")?
            .iter()
            .map(|(name, m)| {
                Ok(Measured {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric {name}: no numeric `value`"))?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("metric {name}: no `unit`"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(RunReport {
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result line: no `correct`")?,
            attempted: whole("attempted")? as u64,
            failed: whole("failed")? as u64,
            metrics,
        })
    }

    /// A table for people: one metric per line, name, value, unit.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<width$}  {:>14.4} {}\n",
                m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "  correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        ));
        out
    }
}

/// One round of a run: one fresh process, one set-up, one timed phase.
/// A run is the workload's `Spec::rounds` of these, merged by [`merge`].
/// Every time is as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Seconds the product's set-up took.
    pub setup_s: f64,
    /// Latency of every timed operation, µs.
    pub latencies_us: Vec<f64>,
    /// Timed operations that were answered in time and passed the oracle.
    pub ok: u64,
    /// Good operations per second (see `goodput_ops_s`).
    pub goodput_ops_s: f64,
    /// Process CPU seconds over the timed phase.
    pub cpu_s: f64,
    /// `VmHWM` right after the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Timed operations with a useful answer.
    pub useful: u64,
    /// This round's `rows_cut_share`.
    pub rows_cut_share: f64,
    /// Warm-pass operations that failed.
    pub warm_failures: u64,
}

impl Round {
    /// Keep what the merge needs of a live run.
    pub fn of(live: &crate::run::Live) -> Round {
        Round {
            setup_s: live.setup_s,
            latencies_us: live.latencies_us.clone(),
            ok: live.ok as u64,
            goodput_ops_s: live.goodput_ops_s,
            cpu_s: live.cpu_s,
            peak_rss_mb: live.peak_rss_mb,
            useful: live.useful as u64,
            rows_cut_share: live.rows_cut_share,
            warm_failures: live.warm_failures as u64,
        }
    }

    /// One line of JSON for the parent process.
    pub fn to_line(&self) -> String {
        let samples: Vec<String> = self.latencies_us.iter().map(|x| number(*x)).collect();
        format!(
            "{{\"setup_s\":{},\"ok\":{},\"goodput_ops_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},\"useful\":{},\"rows_cut_share\":{},\"warm_failures\":{},\"latencies_us\":[{}]}}",
            number(self.setup_s),
            self.ok,
            number(self.goodput_ops_s),
            number(self.cpu_s),
            number(self.peak_rss_mb),
            self.useful,
            number(self.rows_cut_share),
            self.warm_failures,
            samples.join(",")
        )
    }

    /// Read a line written by [`Round::to_line`].
    pub fn parse(line: &str) -> Result<Round, String> {
        let doc = Json::parse(line)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("round line: no number `{key}`"))
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let whole = |key: &str| num(key).map(|n| n as u64);
        Ok(Round {
            setup_s: num("setup_s")?,
            latencies_us: doc
                .get("latencies_us")
                .and_then(Json::as_arr)
                .ok_or("round line: no `latencies_us`")?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            ok: whole("ok")?,
            goodput_ops_s: num("goodput_ops_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            useful: whole("useful")?,
            rows_cut_share: num("rows_cut_share")?,
            warm_failures: whole("warm_failures")?,
        })
    }
}

/// Merge a run's rounds into the nine end-to-end metrics, plus notes for
/// people (sample counts, failures). Latencies are pooled over all
/// rounds; goodput is the mean round's; CPU time and the shares are over
/// all operations; set-up time and peak memory are the median round's.
pub fn merge(rounds: &[Round], tail_pct: f64) -> (RunReport, Vec<String>) {
    let mut pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let attempted = pooled.len();
    #[allow(clippy::cast_precision_loss)]
    let n = attempted.max(1) as f64;
    let ok: u64 = rounds.iter().map(|r| r.ok).sum();
    let useful: u64 = rounds.iter().map(|r| r.useful).sum();
    let warm_failures: u64 = rounds.iter().map(|r| r.warm_failures).sum();
    let med = |f: &dyn Fn(&Round) -> f64| median(&mut rounds.iter().map(f).collect::<Vec<_>>());
    #[allow(clippy::cast_precision_loss)]
    let values = [
        ("setup_s", med(&|r| r.setup_s)),
        (
            "goodput_ops_s",
            rounds.iter().map(|r| r.goodput_ops_s).sum::<f64>() / rounds.len().max(1) as f64,
        ),
        ("latency_ms", percentile_sorted(&pooled, 50.0) / 1e3),
        (
            "latency_tail_ms",
            percentile_sorted(&pooled, tail_pct) / 1e3,
        ),
        (
            "cpu_ms_per_op",
            rounds.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3 / n,
        ),
        ("peak_rss_mb", med(&|r| r.peak_rss_mb)),
        ("ok_share", ok as f64 / n),
        ("useful_share", useful as f64 / n),
        (
            "rows_cut_share",
            rounds
                .iter()
                .map(|r| r.rows_cut_share * r.latencies_us.len() as f64)
                .sum::<f64>()
                / n,
        ),
    ];
    let beyond = samples_beyond(attempted, tail_pct);
    let mut notes = vec![format!(
        "latency_tail_ms is p{tail_pct} of {attempted} samples pooled over {} rounds ({beyond} beyond it)",
        rounds.len()
    )];
    if beyond < MIN_BEYOND {
        notes.push(format!(
            "warning: fewer than {MIN_BEYOND} samples beyond p{tail_pct} (the highest percentile with that many is {}); run longer",
            highest_tail(attempted).map_or("none".to_string(), |p| format!("p{p}"))
        ));
    }
    let failed = attempted as u64 - ok;
    if failed > 0 {
        notes.push(format!(
            "{failed} of {attempted} timed operations failed (deadline, degraded, error or oracle)"
        ));
    }
    if warm_failures > 0 {
        notes.push(format!("{warm_failures} warm-pass operations failed"));
    }
    let report = RunReport::new(
        failed == 0 && warm_failures == 0,
        attempted as u64,
        failed,
        &values,
    );
    (report, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_round_trips_with_its_unit() {
        let values: Vec<(&'static str, f64)> = metrics::END_TO_END
            .iter()
            .chain(&metrics::PER_LAYER)
            .enumerate()
            .map(|(i, m)| {
                #[allow(clippy::cast_precision_loss)]
                let v = 0.001_234_567_891 * (i as f64 + 1.0);
                (m.name, v)
            })
            .collect();
        let report = RunReport::new(true, 1234, 0, &values);
        let line = report.to_line();
        assert!(!line.contains('\n'));
        let back = RunReport::parse(&line).unwrap();
        assert_eq!(back, report);
        for def in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
            let m = back.metrics.iter().find(|m| m.name == def.name).unwrap();
            assert_eq!(m.unit, def.unit);
        }
        // Exactly the four keys the driver expects, in its order.
        let Json::Obj(members) = Json::parse(&line).unwrap() else {
            panic!()
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(RunReport::parse("{}").is_err());
        assert!(RunReport::parse(
            "{\"correct\":true,\"attempted\":1.5,\"failed\":0,\"metrics\":{}}"
        )
        .is_err());
        assert!(RunReport::parse("not json").is_err());
    }

    fn round(setup_s: f64, latencies_us: &[f64], ok: u64) -> Round {
        Round {
            setup_s,
            latencies_us: latencies_us.to_vec(),
            ok,
            goodput_ops_s: 100.0 * setup_s,
            cpu_s: setup_s * setup_s,
            peak_rss_mb: 10.0,
            useful: ok,
            rows_cut_share: 0.5,
            warm_failures: 0,
        }
    }

    #[test]
    fn rounds_round_trip_and_merge_pools_latencies_and_averages_rates() {
        let rounds = [
            round(1.0, &[1000.0, 2000.0, 3000.0], 3),
            round(3.0, &[4000.0, 5000.0, 6000.0], 3),
            round(2.0, &[7000.0, 8000.0, 9000.0], 2),
        ];
        for r in &rounds {
            assert_eq!(&Round::parse(&r.to_line()).unwrap(), r);
        }
        let (report, notes) = merge(&rounds, 90.0);
        assert_eq!(report.value("setup_s"), Some(2.0));
        assert_eq!(report.value("goodput_ops_s"), Some(200.0)); // (100 + 300 + 200) / 3
        assert_eq!(report.value("latency_ms"), Some(5.0));
        assert_eq!(report.value("latency_tail_ms"), Some(9.0));
        // Σ CPU over Σ operations: (1 + 9 + 4) s over 9, not the median round's.
        let cpu = report.value("cpu_ms_per_op").unwrap();
        assert!((cpu - 14_000.0 / 9.0).abs() < 1e-9, "{cpu}");
        assert_eq!(report.value("ok_share"), Some(8.0 / 9.0));
        assert_eq!(report.value("rows_cut_share"), Some(0.5));
        assert_eq!(
            (report.attempted, report.failed, report.correct),
            (9, 1, false)
        );
        assert!(notes.iter().any(|n| n.contains("1 of 9")));
        assert!(notes.iter().any(|n| n.contains("fewer than 10")));
    }
}
