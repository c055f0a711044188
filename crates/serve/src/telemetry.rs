//! Live telemetry: what the `stats` op reports, and the slow log.
//!
//! Every synthesis response carries a per-phase wall-time breakdown
//! (queue wait, parse, admit, lint, cache probe, synthesis), captured
//! by the request-local recorder even when the global collector is off,
//! and `micros` is restated as the root span's full wall time — so the
//! phases decompose exactly the number they ride along with, and
//! whatever no phase claims is the gap between their sum and `micros`.
//! [`Telemetry::finish_request`] folds each response into the cumulative
//! [`Telemetry`] — counters, a log-bucket latency histogram, per-phase
//! totals — and requests slower than
//! [`ServeConfig::slow_threshold`](crate::ServeConfig) append a full
//! response exemplar to the slow log when one is configured.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sia_cache::PredicateCache;
use sia_obs::HistData;

use crate::admission::QueueSnapshot;
use crate::protocol::{Response, StatsInfo, Status};
use crate::{lock, micros};

/// Cumulative live telemetry since startup. Readers count admissions
/// into it, workers fold each finished request into it, and reader
/// threads answer `stats` requests from it without touching the work
/// queue, so it stays readable under saturation. Everything cumulative
/// sits behind one mutex that is only held for O(1) updates, so a
/// `stats` answer is one consistent cut.
#[derive(Debug)]
pub(crate) struct Telemetry {
    started: Instant,
    totals: Mutex<Totals>,
    slow_log: Option<SlowLog>,
}

#[derive(Debug)]
struct Totals {
    /// The counters of the `stats` answer, kept in its shape. What is
    /// measured elsewhere (uptime, cache, percentiles, admission) stays
    /// zero here and is filled in by [`Telemetry::stats`].
    counts: StatsInfo,
    latency: HistData,
    phases: BTreeMap<String, u64>,
}

/// The slow-request log: a shared append-only JSONL file of response
/// exemplars (each line parses back with [`Response::parse`]).
#[derive(Debug)]
pub(crate) struct SlowLog {
    pub(crate) threshold: Duration,
    pub(crate) file: Mutex<std::fs::File>,
}

impl Telemetry {
    pub(crate) fn new(slow_log: Option<SlowLog>) -> Telemetry {
        Telemetry {
            started: Instant::now(),
            totals: Mutex::new(Totals {
                counts: StatsInfo::default(),
                latency: HistData::EMPTY,
                phases: BTreeMap::new(),
            }),
            slow_log,
        }
    }

    /// Bump admission-side counters (accepted / rejected / shed).
    pub(crate) fn count(&self, bump: impl FnOnce(&mut StatsInfo)) {
        bump(&mut lock(&self.totals).counts);
    }

    /// A point-in-time [`StatsInfo`] for the `stats` op, but for the
    /// worker count. Cache hit/miss counts come from the shared predicate
    /// cache itself, the queue depth, admission limit and brownout level
    /// from the queue's own snapshot.
    pub(crate) fn stats(&self, cache: &PredicateCache, queue: QueueSnapshot) -> StatsInfo {
        let (counts, lat) = {
            let totals = lock(&self.totals);
            (totals.counts, totals.latency)
        };
        let cache_stats = cache.stats();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let us = |v: f64| v.max(0.0) as u64;
        StatsInfo {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            mean_us: us(lat.mean()),
            p50_us: us(lat.p50()),
            p90_us: us(lat.p90()),
            p99_us: us(lat.p99()),
            p999_us: us(lat.p999()),
            admission_limit: queue.limit as u64,
            brownout: queue.level as u64,
            queue: queue.depth as u64,
            ..counts
        }
    }

    /// Cumulative `(span path, total µs)` pairs across all completed
    /// requests, sorted by path (nested phases as `synth/...`).
    pub(crate) fn phase_totals(&self) -> Vec<(String, u64)> {
        lock(&self.totals)
            .phases
            .iter()
            .map(|(p, &us)| (p.clone(), us))
            .collect()
    }

    /// Post-response bookkeeping: cumulative telemetry and the slow-log
    /// exemplar.
    pub(crate) fn finish_request(
        &self,
        response: &Response,
        total: Duration,
        respond_time: Duration,
    ) {
        let total_us = micros(total);
        let respond_us = micros(respond_time);
        let slow = self.slow_log.as_ref().filter(|log| total >= log.threshold);
        {
            let mut totals = lock(&self.totals);
            let counts = &mut totals.counts;
            counts.completed += 1;
            counts.total_us += total_us;
            counts.timeouts += u64::from(response.status == Status::Timeout);
            counts.errors += u64::from(response.status == Status::Error);
            counts.expired += u64::from(response.status == Status::Expired);
            counts.degraded += u64::from(response.degraded);
            counts.slow += u64::from(slow.is_some());
            #[allow(clippy::cast_precision_loss)]
            totals.latency.record(total_us as f64);
            for (path, us) in &response.phases {
                *totals.phases.entry(path.clone()).or_insert(0) += us;
            }
            *totals.phases.entry("respond".to_string()).or_insert(0) += respond_us;
        }

        if let Some(slow) = slow {
            let mut file = lock(&slow.file);
            let _ = writeln!(file, "{}", response.to_line());
            let _ = file.flush();
        }
    }
}
