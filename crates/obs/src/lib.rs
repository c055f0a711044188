//! # sia-obs — structured tracing and metrics for the Sia stack
//!
//! A zero-dependency, `tracing`-style observability facade shared by every
//! layer of the synthesis stack: typed counters and histograms (see
//! [`Counter`] / [`Hist`] for the key taxonomy), nested wall-time spans
//! with a thread-local stack and monotonic-clock timing, and a pluggable
//! event sink (no-op, in-memory, or JSONL file).
//!
//! The collector is process-global and **disabled by default**: every
//! instrumentation call first performs one relaxed atomic load and bails,
//! so uninstrumented runs pay essentially nothing (CI enforces a <3%
//! budget on full synthesis with a no-op sink installed). Hot solver
//! loops additionally batch their counts locally and flush once per SMT
//! check rather than per event.
//!
//! ```
//! sia_obs::reset();
//! sia_obs::enable();
//! {
//!     let _run = sia_obs::span("run");
//!     let _phase = sia_obs::span("phase");
//!     sia_obs::add(sia_obs::Counter::SmtChecks, 1);
//!     sia_obs::record(sia_obs::Hist::SvmIterations, 12.0);
//! }
//! let summary = sia_obs::summary();
//! assert!(summary.snapshot.span("run/phase").is_some());
//! println!("{summary}");
//! sia_obs::disable();
//! ```

mod jsonl;
mod key;
mod sink;
mod span;
mod summary;

pub use jsonl::{parse_object, JsonValue};
pub use key::{Counter, Hist};
pub use sink::{
    json_number, json_string, Event, JsonlSink, MemorySink, NoopSink, OwnedEvent, Sink,
};
pub use span::{
    current_trace, local_begin, local_take, record_complete, span, AdoptGuard, SpanContext,
    SpanGuard,
};
pub use summary::{fmt_duration, HistData, MetricsSummary, Snapshot, SpanStat};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const COUNTER_N: usize = Counter::ALL.len();
const HIST_N: usize = Hist::ALL.len();

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; COUNTER_N] = [const { AtomicU64::new(0) }; COUNTER_N];
static HISTS: Mutex<[HistData; HIST_N]> = Mutex::new([HistData::EMPTY; HIST_N]);
static SPANS: Mutex<BTreeMap<String, SpanStat>> = Mutex::new(BTreeMap::new());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);
static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);

/// A poisoned lock only means some sink or test panicked mid-update;
/// metric state stays usable, so recover the guard instead of unwinding.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Is the collector recording? One relaxed load — the fast path every
/// instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start recording. Sets the trace epoch on first call (or after
/// [`reset`]); idempotent.
pub fn enable() {
    let mut epoch = lock(&EPOCH);
    if epoch.is_none() {
        *epoch = Some(Instant::now());
    }
    drop(epoch);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording. Already-open spans still close and record on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Zero every counter, histogram, and span aggregate, and restart the
/// trace epoch. Does not touch the enabled flag or the sink.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    *lock(&HISTS) = [HistData::EMPTY; HIST_N];
    lock(&SPANS).clear();
    *lock(&EPOCH) = Some(Instant::now());
}

/// Install the event sink, replacing any previous one (which is dropped,
/// flushing buffered output).
pub fn set_sink(s: Box<dyn Sink>) {
    *lock(&SINK) = Some(s);
    SINK_ACTIVE.store(true, Ordering::Relaxed);
}

/// Remove and return the current sink, flushing it first.
pub fn take_sink() -> Option<Box<dyn Sink>> {
    SINK_ACTIVE.store(false, Ordering::Relaxed);
    let mut s = lock(&SINK).take();
    if let Some(s) = s.as_mut() {
        s.flush();
    }
    s
}

/// Increment counter `c` by `n`. Thread-safe (relaxed atomic add); no-op
/// while the collector is disabled or `n` is 0.
pub fn add(c: Counter, n: u64) {
    if n == 0 || !enabled() {
        return;
    }
    COUNTERS[c.index()].fetch_add(n, Ordering::Relaxed);
    if SINK_ACTIVE.load(Ordering::Relaxed) {
        emit(&Event::Counter {
            key: c,
            add: n,
            t_us: now_us(),
        });
    }
}

/// Record one observation `v` into histogram `h`; no-op while disabled.
pub fn record(h: Hist, v: f64) {
    if !enabled() {
        return;
    }
    lock(&HISTS)[h.index()].record(v);
    if SINK_ACTIVE.load(Ordering::Relaxed) {
        emit(&Event::Hist {
            key: h,
            value: v,
            t_us: now_us(),
        });
    }
}

/// Copy out the current collector state.
pub fn snapshot() -> Snapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c, COUNTERS[c.index()].load(Ordering::Relaxed)))
        .filter(|&(_, v)| v > 0)
        .collect();
    let hists = {
        let hs = lock(&HISTS);
        Hist::ALL
            .iter()
            .map(|&h| (h, hs[h.index()]))
            .filter(|(_, d)| d.count > 0)
            .collect()
    };
    let spans = lock(&SPANS).iter().map(|(p, s)| (p.clone(), *s)).collect();
    Snapshot {
        counters,
        hists,
        spans,
    }
}

/// [`snapshot`] wrapped for display as the `--metrics` table.
pub fn summary() -> MetricsSummary {
    MetricsSummary::new(snapshot())
}

pub(crate) fn record_span(path: &str, dur: Duration, child: Duration) {
    let mut spans = lock(&SPANS);
    if !spans.contains_key(path) {
        spans.insert(path.to_string(), SpanStat::default());
    }
    let stat = spans.get_mut(path).expect("present: inserted above");
    stat.count += 1;
    stat.total += dur;
    stat.child += child;
}

pub(crate) fn emit(e: &Event<'_>) {
    if !SINK_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(s) = lock(&SINK).as_mut() {
        s.event(e);
    }
}

/// Microseconds since the collector epoch (0 before the first
/// [`enable`]).
pub(crate) fn now_us() -> u64 {
    let epoch = *lock(&EPOCH);
    epoch.map_or(0, |e| {
        e.elapsed().as_micros().try_into().unwrap_or(u64::MAX)
    })
}
