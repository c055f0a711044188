//! # sia-obs — structured tracing and metrics for the Sia stack
//!
//! A zero-dependency, `tracing`-style observability facade shared by every
//! layer of the synthesis stack: typed counters and histograms (see
//! [`Counter`] / [`Hist`] for the key taxonomy), nested wall-time spans
//! with a thread-local stack and monotonic-clock timing, and a pluggable
//! event sink (no-op, or JSONL to any writer).
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
//!     sia_obs::record(sia_obs::Hist::SatLearnedLen, 12.0);
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
pub use sink::{json_number, json_string, Event, JsonlSink, NoopSink, Sink};
pub use span::{
    current_trace, local_begin, local_take, record_complete, span, AdoptGuard, SpanContext,
    SpanGuard,
};
pub use summary::{fmt_duration, HistData, MetricsSummary, Snapshot, SpanStat};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

const COUNTER_N: usize = Counter::ALL.len();
const HIST_N: usize = Hist::ALL.len();

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; COUNTER_N] = [const { AtomicU64::new(0) }; COUNTER_N];
static HISTS: Mutex<[HistData; HIST_N]> = Mutex::new([HistData::EMPTY; HIST_N]);
/// Span aggregates, one slot per path, in path order. A slot is leaked
/// once, the first time any thread opens its path, and each thread keeps
/// it on the path's node (`span.rs`), so closing a span is three atomic
/// adds and no thread waits on another.
static SPAN_SLOTS: Mutex<Vec<(&'static str, &'static SpanSlot)>> = Mutex::new(Vec::new());
/// The clock every timestamp is read against, fixed at first use.
static CLOCK: OnceLock<Instant> = OnceLock::new();
/// The trace epoch as nanoseconds past [`CLOCK`]; [`NO_EPOCH`] before the
/// first [`enable`]. An atomic, so stamping an event takes no lock.
static EPOCH_NS: AtomicU64 = AtomicU64::new(NO_EPOCH);
const NO_EPOCH: u64 = u64::MAX;
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
    let now = since_clock(Instant::now());
    let _ = EPOCH_NS.compare_exchange(NO_EPOCH, now, Ordering::Relaxed, Ordering::Relaxed);
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
    for (_, slot) in lock(&SPAN_SLOTS).iter() {
        slot.clear();
    }
    EPOCH_NS.store(since_clock(Instant::now()), Ordering::Relaxed);
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
            t_us: span::event_us(),
        });
    }
}

/// [`add`] for several counters at once, as one flush: their events
/// share one timestamp and one sink lock. Zero increments are skipped.
pub fn add_all(adds: &[(Counter, u64)]) {
    if !enabled() {
        return;
    }
    let adds = || adds.iter().filter(|(_, n)| *n > 0);
    for &(c, n) in adds() {
        COUNTERS[c.index()].fetch_add(n, Ordering::Relaxed);
    }
    if SINK_ACTIVE.load(Ordering::Relaxed) {
        let t_us = span::event_us();
        if let Some(s) = lock(&SINK).as_mut() {
            for &(key, add) in adds() {
                s.event(&Event::Counter { key, add, t_us });
            }
        }
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
            t_us: span::event_us(),
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
    let spans = lock(&SPAN_SLOTS)
        .iter()
        .map(|(p, slot)| ((*p).to_string(), slot.read()))
        .filter(|(_, stat)| stat.count > 0)
        .collect();
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

/// One span path's aggregate: [`SpanStat`] in atomics, as nanoseconds.
#[derive(Default)]
pub(crate) struct SpanSlot {
    count: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
}

impl SpanSlot {
    /// Add one closed span.
    pub(crate) fn add(&self, dur: Duration, child: Duration) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns(dur), Ordering::Relaxed);
        self.child_ns.fetch_add(ns(child), Ordering::Relaxed);
    }

    fn read(&self) -> SpanStat {
        SpanStat {
            count: self.count.load(Ordering::Relaxed),
            total: Duration::from_nanos(self.total_ns.load(Ordering::Relaxed)),
            child: Duration::from_nanos(self.child_ns.load(Ordering::Relaxed)),
        }
    }

    fn clear(&self) {
        for n in [&self.count, &self.total_ns, &self.child_ns] {
            n.store(0, Ordering::Relaxed);
        }
    }
}

/// The slot aggregating `path`, leaked and registered on first sight.
pub(crate) fn span_slot(path: &'static str) -> &'static SpanSlot {
    let mut slots = lock(&SPAN_SLOTS);
    match slots.binary_search_by(|(p, _)| (*p).cmp(path)) {
        Ok(i) => slots[i].1,
        Err(i) => {
            let slot: &'static SpanSlot = Box::leak(Box::default());
            slots.insert(i, (path, slot));
            slot
        }
    }
}

pub(crate) fn emit(e: &Event<'_>) {
    if !SINK_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(s) = lock(&SINK).as_mut() {
        s.event(e);
    }
}

/// Nanoseconds from [`CLOCK`] to `at`.
pub(crate) fn since_clock(at: Instant) -> u64 {
    let clock = *CLOCK.get_or_init(|| at);
    at.saturating_duration_since(clock)
        .as_nanos()
        .try_into()
        .unwrap_or(u64::MAX)
}

/// Microseconds from the collector epoch to `at` (0 before the first
/// [`enable`]).
pub(crate) fn us_at(at: Instant) -> u64 {
    us_since_epoch(since_clock(at))
}

/// Microseconds from the collector epoch to `clock_ns` past [`CLOCK`]:
/// the epoch is read now, so a reading taken before a [`reset`] is
/// measured against the epoch that reset set.
pub(crate) fn us_since_epoch(clock_ns: u64) -> u64 {
    let epoch = EPOCH_NS.load(Ordering::Relaxed);
    if epoch == NO_EPOCH {
        return 0;
    }
    clock_ns.saturating_sub(epoch) / 1_000
}

/// Microseconds since the collector epoch (0 before the first
/// [`enable`]).
pub(crate) fn now_us() -> u64 {
    us_at(Instant::now())
}
