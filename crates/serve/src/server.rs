//! The synthesis server: accept loop, bounded job queue, supervised
//! worker pool.
//!
//! Threading model (std only — threads and channels, no async runtime):
//!
//! - An **accept thread** takes connections and spawns one reader thread
//!   per connection.
//! - **Reader threads** parse request lines, classify each request into
//!   a **cheap or expensive lane** (cache-template probe + static
//!   derivability — see [`sia_analyze::Analyzer::derive`]), anchor the
//!   request's deadline and [`Budget`] *at admission*, and push jobs
//!   into the bounded two-lane [`JobQueue`]. A queue at its admission
//!   limit is the admission control: the reader answers `overloaded`
//!   (with a `retry_after_ms` back-off hint) immediately instead of
//!   letting latency grow without bound, and under pressure the
//!   expensive lane is shed first while cheap requests keep flowing.
//!   The limit itself is either the fixed `queue_depth` or, when
//!   [`ServeConfig::admission_delay_budget`] is set, moved by an AIMD
//!   controller targeting that queue-delay budget. `health` and `stats`
//!   requests are answered inline by the reader, bypassing the queue, so
//!   health and live telemetry stay observable even when the pool is
//!   saturated. Each synthesis request gets a trace ID (the client's if
//!   it sent one, a fresh one otherwise) and an open `serve.request`
//!   root span ([`sia_obs::SpanContext`]) that travels with the job
//!   through the queue.
//! - **Worker threads** drain the queue (cheap lane first), adopt the
//!   job's span context (so every span they record — lint, cache probe,
//!   the synthesizer's own `synth/...` tree — nests under
//!   `serve.request` and carries the request's trace ID), and run
//!   synthesis with the admission-anchored [`Budget`]: queue wait is
//!   charged against the deadline, and a job whose deadline already
//!   passed while queued is answered `expired` without running
//!   synthesis at all. The budget is polled inside the SMT solver's
//!   CDCL and simplex loops, so a 10 ms deadline on a hard instance
//!   returns `timeout` without wedging the worker. Under sustained
//!   pressure a **brownout ladder** (driven by the AIMD controller's
//!   hysteresis) first disables CEGIS refinement rounds, then serves
//!   static `Derivation::Bounds` results flagged `degraded:"brownout"`,
//!   then sheds the expensive lane outright. Each request runs under
//!   [`std::panic::catch_unwind`]: a panic answers the request with a
//!   degraded fallback (the original predicate) instead of killing the
//!   connection.
//! - A **supervisor thread** owns the worker join handles. When a worker
//!   dies anyway (a panic outside the unwind guard, e.g. the
//!   `serve.worker.die` failpoint), the supervisor respawns it with
//!   per-slot exponential backoff; a restart storm (too many respawns in
//!   a short window) opens a circuit breaker that pauses respawning
//!   until the window drains. The supervisor also writes periodic
//!   crash-safe cache snapshots when configured.
//! - Responses are written through a per-connection `Mutex<TcpStream>`,
//!   so workers and the reader (which writes `overloaded` rejections)
//!   never interleave partial lines.
//! - Every synthesis response carries a per-phase wall-time breakdown
//!   (queue wait, parse, lint, cache probe, synthesis), captured by the
//!   request-local recorder even when the global collector is off.
//!   Cumulative [`Telemetry`] — counters, a log-bucket latency
//!   histogram, per-phase totals — backs the `stats` op, and requests
//!   slower than [`ServeConfig::slow_threshold`] append a full response
//!   exemplar to the slow log when one is configured.
//!
//! Shutdown is cooperative: a `{"op":"shutdown"}` request sets the stop
//! flag and wakes the accept thread with a loopback connection; readers
//! notice the flag within one read timeout, drop their queue senders,
//! and the workers exit once the queue drains — already-queued requests
//! are still answered. The supervisor joins the drained workers and the
//! final cache save goes through the same atomic temp-file + rename
//! path as the snapshots.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sia_analyze::{Analyzer, Derivation};
use sia_cache::{canonicalize, Canonical, PredicateCache};
use sia_core::{SiaConfig, SynthesisError, Synthesizer};
use sia_expr::{Pred, Schema};
use sia_obs::{Counter, Hist, HistData, SpanContext};
use sia_smt::Budget;
use sia_sql::parse_predicate;

use crate::protocol::{
    fresh_trace_id, parse_request, HealthInfo, Request, RequestLine, Response, StatsInfo, Status,
};

/// How long reader threads block on a socket before re-checking the
/// shutdown flag. Bounds the drain time of an idle connection.
const READ_POLL: Duration = Duration::from_millis(100);

/// Supervisor poll interval for dead-worker detection and snapshots.
const SUPERVISE_POLL: Duration = Duration::from_millis(10);

/// First respawn delay after a worker death; doubles per consecutive
/// death of the same slot, capped at [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(20);

/// Upper bound on the per-slot respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// A slot that survives this long has its backoff reset.
const BACKOFF_RESET_AFTER: Duration = Duration::from_secs(1);

/// Respawns within [`STORM_WINDOW`] that open the circuit breaker.
const STORM_LIMIT: usize = 16;

/// Sliding window for restart-storm detection.
const STORM_WINDOW: Duration = Duration::from_secs(2);

/// AIMD control-tick interval: how often the supervisor re-evaluates the
/// admission limit and brownout level from the queue waits observed
/// since the last tick.
const CONTROL_TICK: Duration = Duration::from_millis(100);

/// Consecutive over-budget control ticks before the brownout ladder
/// escalates one level.
const BROWNOUT_ENTER_STREAK: u32 = 3;

/// Consecutive calm control ticks before the brownout ladder steps back
/// down one level — the exit hysteresis.
const BROWNOUT_EXIT_STREAK: u32 = 5;

/// Top of the brownout ladder: 0 = normal, 1 = no CEGIS refinement,
/// 2 = serve static bounds, 3 = shed the whole expensive lane.
const BROWNOUT_MAX_LEVEL: usize = 3;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads running synthesis.
    pub workers: usize,
    /// Predicate-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Bounded queue depth; requests beyond it are rejected as
    /// `overloaded`.
    pub queue_depth: usize,
    /// Default per-request deadline when the request carries none
    /// (`None` = unlimited).
    pub default_timeout_ms: Option<u64>,
    /// Cache persistence file: loaded at startup if present, written on
    /// shutdown (and periodically, see
    /// [`ServeConfig::snapshot_interval`]).
    pub cache_file: Option<String>,
    /// When set together with `cache_file`, the supervisor writes an
    /// atomic cache snapshot this often, so a crash loses at most one
    /// interval of cache warmth.
    pub snapshot_interval: Option<Duration>,
    /// Slow-request log: when set, every request whose total wall time
    /// (queue wait included) meets [`ServeConfig::slow_threshold`]
    /// appends its full response line — trace ID and phase breakdown
    /// included — to this JSONL file as a debugging exemplar.
    pub slow_log_file: Option<String>,
    /// Latency threshold for the slow log.
    pub slow_threshold: Duration,
    /// Schemas used to seed the lint analyzer that annotates responses
    /// with advisory warnings. Empty means an unseeded analyzer, which
    /// cannot tell date columns from integer ones and so stays silent on
    /// date/integer confusions.
    pub lint_schemas: Vec<Schema>,
    /// Queue-delay budget for the adaptive (AIMD) admission controller.
    /// `None` keeps the legacy fixed cap at [`ServeConfig::queue_depth`].
    /// When set, the admission limit is cut multiplicatively whenever the
    /// p99 queue wait of a control window exceeds this budget and raised
    /// additively otherwise, and sustained pressure walks the brownout
    /// ladder (see [`StatsInfo::brownout`]). A reasonable value is ¼ of
    /// the default request deadline.
    pub admission_delay_budget: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 1024,
            queue_depth: 64,
            default_timeout_ms: None,
            cache_file: None,
            snapshot_interval: None,
            slow_log_file: None,
            slow_threshold: Duration::from_secs(1),
            lint_schemas: Vec::new(),
            admission_delay_budget: None,
        }
    }
}

/// Shared overload-control state: the live admission limit, the brownout
/// level, and the queue-wait window feeding the AIMD controller. Readers
/// consult it at admission, workers feed it at dequeue, and the
/// supervisor runs the control ticks.
#[derive(Debug)]
struct Overload {
    /// False = legacy fixed queue cap; the atomics below never move.
    enabled: bool,
    delay_budget_us: u64,
    max_limit: usize,
    /// Current admission limit (jobs in queue beyond it are rejected).
    limit: AtomicUsize,
    /// Current brownout ladder level.
    level: AtomicUsize,
    /// Queue waits (µs) observed since the last control tick.
    waits: Mutex<Vec<u64>>,
    /// p99 queue wait of the last control window — the basis of the
    /// `retry_after_ms` hint on `overloaded` responses.
    last_p99_us: AtomicU64,
}

impl Overload {
    fn new(queue_depth: usize, delay_budget: Option<Duration>) -> Overload {
        let max_limit = queue_depth.max(1);
        Overload {
            enabled: delay_budget.is_some(),
            delay_budget_us: delay_budget
                .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX)),
            max_limit,
            limit: AtomicUsize::new(max_limit),
            level: AtomicUsize::new(0),
            waits: Mutex::new(Vec::new()),
            last_p99_us: AtomicU64::new(0),
        }
    }

    /// Cap on the expensive lane at the current admission `limit`:
    /// `None` = never shed (controller disabled), `Some(0)` = shed every
    /// expensive request (brownout level 3), otherwise half the limit so
    /// cheap requests always have room to flow.
    fn expensive_cap(&self, limit: usize) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.level.load(Ordering::Relaxed) >= BROWNOUT_MAX_LEVEL {
            return Some(0);
        }
        Some(limit.div_ceil(2))
    }

    /// Back-off hint for `overloaded` responses: roughly two control
    /// windows of observed queue delay, clamped to a sane range.
    fn retry_after_ms(&self) -> u64 {
        if self.enabled {
            (2 * self.last_p99_us.load(Ordering::Relaxed) / 1000).clamp(10, 2000)
        } else {
            50
        }
    }

    /// Record one dequeue's queue wait into the current control window.
    fn observe_wait(&self, wait_us: u64) {
        if self.enabled {
            lock(&self.waits).push(wait_us);
        }
    }
}

/// The AIMD + brownout control law, kept pure (fed by the supervisor,
/// no clocks of its own) so the hysteresis is unit-testable.
#[derive(Debug)]
struct Governor {
    delay_budget_us: u64,
    min_limit: usize,
    max_limit: usize,
    limit: usize,
    level: usize,
    over_streak: u32,
    calm_streak: u32,
}

impl Governor {
    fn new(delay_budget_us: u64, max_limit: usize) -> Governor {
        let max_limit = max_limit.max(1);
        Governor {
            delay_budget_us,
            min_limit: 1,
            max_limit,
            limit: max_limit,
            level: 0,
            over_streak: 0,
            calm_streak: 0,
        }
    }

    /// One control tick over the queue waits observed since the last
    /// tick. Over budget: cut the limit in half (multiplicative
    /// decrease). Otherwise: raise it by one (additive increase). Three
    /// consecutive over-budget ticks climb the brownout ladder; five
    /// consecutive calm ticks (p99 under half the budget, or an idle
    /// window) step back down. Returns the window's p99 (0 when empty).
    fn tick(&mut self, waits_us: &[u64]) -> u64 {
        let p99 = percentile_99(waits_us);
        let over = !waits_us.is_empty() && p99 > self.delay_budget_us;
        let calm = waits_us.is_empty() || p99 <= self.delay_budget_us / 2;
        if over {
            let cut = (self.limit / 2).max(self.min_limit);
            if cut < self.limit {
                sia_obs::add(Counter::ServeAdmissionDecrease, 1);
            }
            self.limit = cut;
            self.over_streak += 1;
            self.calm_streak = 0;
        } else {
            if self.limit < self.max_limit {
                self.limit += 1;
                sia_obs::add(Counter::ServeAdmissionIncrease, 1);
            }
            self.over_streak = 0;
            self.calm_streak = if calm { self.calm_streak + 1 } else { 0 };
        }
        if self.over_streak >= BROWNOUT_ENTER_STREAK {
            if self.level < BROWNOUT_MAX_LEVEL {
                self.level += 1;
                sia_obs::add(Counter::ServeBrownoutEnter, 1);
            }
            self.over_streak = 0;
        }
        if self.calm_streak >= BROWNOUT_EXIT_STREAK && self.level > 0 {
            self.level -= 1;
            sia_obs::add(Counter::ServeBrownoutExit, 1);
            self.calm_streak = 0;
        }
        p99
    }
}

/// p99 of a control window (0 for an empty window). Windows are small
/// (one tick's dequeues), so a sort is fine.
fn percentile_99(waits_us: &[u64]) -> u64 {
    if waits_us.is_empty() {
        return 0;
    }
    let mut sorted = waits_us.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)]
}

/// Shared worker-pool bookkeeping, read by health requests.
#[derive(Debug)]
struct PoolState {
    target: usize,
    alive: AtomicUsize,
    restarts: AtomicU64,
    breaker_open: AtomicBool,
}

/// Cumulative live telemetry since startup. Workers write it after each
/// request; reader threads answer `stats` requests from it without
/// touching the work queue, so it stays readable under saturation. All
/// counters are relaxed atomics; the latency histogram and per-phase
/// totals sit behind mutexes that are only held for O(1) updates.
#[derive(Debug)]
struct Telemetry {
    started: Instant,
    requests: AtomicU64,
    completed: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
    expired: AtomicU64,
    shed: AtomicU64,
    slow: AtomicU64,
    total_us: AtomicU64,
    latency: Mutex<HistData>,
    phases: Mutex<BTreeMap<String, u64>>,
}

impl Telemetry {
    fn new() -> Telemetry {
        Telemetry {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            latency: Mutex::new(HistData::EMPTY),
            phases: Mutex::new(BTreeMap::new()),
        }
    }

    /// A point-in-time [`StatsInfo`] for the `stats` op. Cache hit/miss
    /// counts come from the shared predicate cache itself.
    fn stats(&self, cache: &PredicateCache, overload: &Overload) -> StatsInfo {
        let lat = *lock(&self.latency);
        let cache_stats = cache.stats();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let us = |v: f64| v.max(0.0) as u64;
        StatsInfo {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            requests: self.requests.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            slow: self.slow.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            mean_us: us(lat.mean()),
            p50_us: us(lat.p50()),
            p90_us: us(lat.p90()),
            p99_us: us(lat.p99()),
            p999_us: us(lat.p999()),
            expired: self.expired.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            admission_limit: overload.limit.load(Ordering::Relaxed) as u64,
            brownout: overload.level.load(Ordering::Relaxed) as u64,
        }
    }

    /// Cumulative `(span path, total µs)` pairs across all completed
    /// requests, sorted by path (nested phases as `synth/...`).
    fn phase_totals(&self) -> Vec<(String, u64)> {
        lock(&self.phases)
            .iter()
            .map(|(p, &us)| (p.clone(), us))
            .collect()
    }
}

/// The slow-request log: a shared append-only JSONL file of response
/// exemplars (each line parses back with [`Response::parse`]).
#[derive(Debug)]
struct SlowLog {
    threshold: Duration,
    file: Mutex<std::fs::File>,
}

impl SlowLog {
    fn capture(&self, response: &Response) {
        let mut file = lock(&self.file);
        let _ = writeln!(file, "{}", response.to_line());
        let _ = file.flush();
    }
}

/// See [`sia_obs`]'s lock helper: a poisoned telemetry lock only means a
/// panic mid-update; the data stays usable.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a worker thread needs; cloned per (re)spawn. Workers hold
/// the queue directly (not a [`QueueSender`] lease) so the queue closes
/// once the accept thread and every reader have dropped their senders.
#[derive(Clone)]
struct WorkerCtx {
    queue: Arc<JobQueue>,
    cache: Arc<PredicateCache>,
    queue_len: Arc<AtomicI64>,
    pool: Arc<PoolState>,
    telemetry: Arc<Telemetry>,
    slow_log: Option<Arc<SlowLog>>,
    linter: Arc<Analyzer>,
    overload: Arc<Overload>,
}

/// Scheduling lane, decided by the reader at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Likely fast: cached template or statically derivable — kept
    /// flowing even under pressure.
    Cheap,
    /// Likely a full CEGIS run — shed first under pressure.
    Expensive,
}

/// One unit of work: a parsed request, its open root span (carrying the
/// trace ID across the thread handoff), its admission-time deadline and
/// budget, and where to write the answer.
struct Job {
    request: Request,
    /// Parse + canonicalization result, computed once by the reader and
    /// reused by the worker (classification needs it anyway).
    parsed: Result<(Pred, Canonical), String>,
    lane: Lane,
    /// Solver budget anchored at *admission*: queue wait is charged
    /// against the request's deadline.
    budget: Budget,
    /// Absolute deadline; a job still queued past it is answered
    /// `expired` at dequeue without running synthesis.
    deadline: Option<Instant>,
    /// Reader-side phase timings (parse, admit), replayed by the worker
    /// under the adopted span so the response's phase breakdown still
    /// covers them.
    pre_phases: Vec<(&'static str, Duration)>,
    span: SpanContext,
    enqueued: Instant,
    out: Arc<Mutex<TcpStream>>,
}

/// The bounded two-lane work queue. Cheap jobs are always popped before
/// expensive ones, the admission limit is dynamic (the AIMD controller
/// moves it), and the expensive lane has its own cap so a burst of slow
/// requests cannot crowd out cheap ones.
#[derive(Debug)]
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// Live [`QueueSender`] leases; the last drop closes the queue,
    /// mirroring `sync_channel`'s sender-drop drain semantics.
    senders: AtomicUsize,
}

#[derive(Debug)]
struct QueueState {
    cheap: VecDeque<Job>,
    expensive: VecDeque<Job>,
    closed: bool,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.request.id)
            .field("lane", &self.lane)
            .finish_non_exhaustive()
    }
}

/// Why a job was not admitted; the job is handed back (boxed — it is a
/// large struct and the error path should stay thin) so the reader can
/// answer it.
enum AdmitError {
    /// Queue at the admission limit.
    Full(Box<Job>),
    /// Expensive lane at its cap (or brownout level 3): shed.
    Shed(Box<Job>),
    /// Server shutting down.
    Closed(Box<Job>),
}

impl JobQueue {
    fn new() -> (Arc<JobQueue>, QueueSender) {
        let queue = Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                cheap: VecDeque::new(),
                expensive: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
        });
        let sender = QueueSender(Arc::clone(&queue));
        (queue, sender)
    }

    /// Admit a job under the current limit, or hand it back. Returns the
    /// queue depth after the push.
    fn admit(
        &self,
        job: Job,
        limit: usize,
        expensive_cap: Option<usize>,
    ) -> Result<usize, AdmitError> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(AdmitError::Closed(Box::new(job)));
        }
        let depth = st.cheap.len() + st.expensive.len();
        if depth >= limit {
            return Err(AdmitError::Full(Box::new(job)));
        }
        match job.lane {
            Lane::Cheap => st.cheap.push_back(job),
            Lane::Expensive => {
                if expensive_cap.is_some_and(|cap| st.expensive.len() >= cap) {
                    return Err(AdmitError::Shed(Box::new(job)));
                }
                st.expensive.push_back(job);
            }
        }
        drop(st);
        self.ready.notify_one();
        Ok(depth + 1)
    }

    /// Block until a job is available (cheap lane first) or the queue is
    /// closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut st = lock(&self.state);
        loop {
            if let Some(job) = st.cheap.pop_front() {
                return Some(job);
            }
            if let Some(job) = st.expensive.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// A counted lease on the queue's send side. Held by the accept loop and
/// cloned into every reader; when the last lease drops (accept thread
/// gone, every reader drained) the queue closes and the workers exit
/// once it is empty.
#[derive(Debug)]
struct QueueSender(Arc<JobQueue>);

impl QueueSender {
    fn admit(
        &self,
        job: Job,
        limit: usize,
        expensive_cap: Option<usize>,
    ) -> Result<usize, AdmitError> {
        self.0.admit(job, limit, expensive_cap)
    }
}

impl Clone for QueueSender {
    fn clone(&self) -> QueueSender {
        self.0.senders.fetch_add(1, Ordering::SeqCst);
        QueueSender(Arc::clone(&self.0))
    }
}

impl Drop for QueueSender {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.0.close();
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    cache: Arc<PredicateCache>,
    pool: Arc<PoolState>,
    telemetry: Arc<Telemetry>,
    overload: Arc<Overload>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    cache_file: Option<String>,
}

/// Start a server with the given configuration.
///
/// # Errors
///
/// Fails when the listen address cannot be bound or a cache file was
/// given but cannot be read/created.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let cache = Arc::new(PredicateCache::new(config.cache_capacity));
    if let Some(path) = &config.cache_file {
        if std::path::Path::new(path).exists() {
            cache.load_file(path)?;
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (queue, tx) = JobQueue::new();
    let overload = Arc::new(Overload::new(
        config.queue_depth,
        config.admission_delay_budget,
    ));
    let pool = Arc::new(PoolState {
        target: config.workers.max(1),
        alive: AtomicUsize::new(0),
        restarts: AtomicU64::new(0),
        breaker_open: AtomicBool::new(false),
    });
    let telemetry = Arc::new(Telemetry::new());
    let slow_log = match &config.slow_log_file {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Some(Arc::new(SlowLog {
                threshold: config.slow_threshold,
                file: Mutex::new(file),
            }))
        }
        None => None,
    };
    let ctx = WorkerCtx {
        queue,
        cache: Arc::clone(&cache),
        queue_len: Arc::new(AtomicI64::new(0)),
        pool: Arc::clone(&pool),
        telemetry: Arc::clone(&telemetry),
        slow_log,
        linter: Arc::new(Analyzer::with_schemas(&config.lint_schemas)),
        overload: Arc::clone(&overload),
    };

    let slots = (0..pool.target)
        .map(|i| spawn_worker(i, &ctx).map(Some))
        .collect::<std::io::Result<Vec<_>>>()?;

    let supervisor = {
        let ctx = ctx.clone();
        let stop = Arc::clone(&stop);
        let snapshot = config
            .cache_file
            .clone()
            .zip(config.snapshot_interval)
            .filter(|(_, every)| !every.is_zero());
        std::thread::Builder::new()
            .name("sia-supervisor".to_string())
            .spawn(move || supervise(slots, &ctx, &stop, snapshot.as_ref()))?
    };

    let accept = {
        let stop = Arc::clone(&stop);
        let reader_ctx = ReaderCtx {
            tx,
            queue_len: Arc::clone(&ctx.queue_len),
            pool: Arc::clone(&pool),
            cache: Arc::clone(&cache),
            telemetry: Arc::clone(&telemetry),
            overload: Arc::clone(&overload),
            linter: Arc::clone(&ctx.linter),
            default_timeout_ms: config.default_timeout_ms,
        };
        std::thread::Builder::new()
            .name("sia-accept".to_string())
            .spawn(move || accept_loop(&listener, addr, &stop, &reader_ctx))?
    };

    Ok(ServerHandle {
        addr,
        cache,
        pool,
        telemetry,
        overload,
        stop,
        accept: Some(accept),
        supervisor: Some(supervisor),
        cache_file: config.cache_file,
    })
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared predicate cache (for statistics).
    pub fn cache(&self) -> &PredicateCache {
        &self.cache
    }

    /// An owned handle to the cache, usable after the server stops
    /// (e.g. to report final statistics once [`Self::wait`] returns).
    pub fn cache_arc(&self) -> Arc<PredicateCache> {
        Arc::clone(&self.cache)
    }

    /// A point-in-time snapshot of worker-pool health.
    pub fn health(&self) -> HealthInfo {
        HealthInfo {
            workers: self.pool.alive.load(Ordering::Relaxed) as u64,
            target: self.pool.target as u64,
            restarts: self.pool.restarts.load(Ordering::Relaxed),
            queue: 0,
            breaker_open: self.pool.breaker_open.load(Ordering::Relaxed),
        }
    }

    /// Live telemetry — the same numbers the `stats` op reports over
    /// the wire.
    pub fn stats(&self) -> StatsInfo {
        self.telemetry.stats(&self.cache, &self.overload)
    }

    /// Cumulative per-phase wall-time totals across completed requests,
    /// as `(span path, µs)` pairs sorted by path.
    pub fn phase_totals(&self) -> Vec<(String, u64)> {
        self.telemetry.phase_totals()
    }

    /// Block until a client asks the server to shut down (via the
    /// `shutdown` op), then drain and stop.
    ///
    /// # Errors
    ///
    /// Fails when the configured cache file cannot be written.
    pub fn wait(mut self) -> std::io::Result<()> {
        self.join_all()
    }

    /// Stop the server from this process: reject new connections, drain
    /// queued requests, join all threads, persist the cache.
    ///
    /// # Errors
    ///
    /// Fails when the configured cache file cannot be written.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.signal_stop();
        self.join_all()
    }

    fn signal_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread, which may be blocked in accept().
        drop(TcpStream::connect(self.addr));
    }

    fn join_all(&mut self) -> std::io::Result<()> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        if let Some(path) = self.cache_file.take() {
            self.cache.save_file(&path)?;
        }
        Ok(())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.signal_stop();
            let _ = self.join_all();
        }
    }
}

fn spawn_worker(slot: usize, ctx: &WorkerCtx) -> std::io::Result<JoinHandle<()>> {
    let ctx = ctx.clone();
    std::thread::Builder::new()
        .name(format!("sia-worker-{slot}"))
        .spawn(move || {
            ctx.pool.alive.fetch_add(1, Ordering::Relaxed);
            let _alive = AliveGuard(Arc::clone(&ctx.pool));
            worker_loop(&ctx);
        })
}

/// Decrements the live-worker count however the worker exits — clean
/// drain or unwinding panic.
struct AliveGuard(Arc<PoolState>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.alive.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The supervisor: detect dead workers, respawn with backoff and a
/// restart-storm breaker, write periodic cache snapshots, and join
/// everything at shutdown.
fn supervise(
    mut slots: Vec<Option<JoinHandle<()>>>,
    ctx: &WorkerCtx,
    stop: &AtomicBool,
    snapshot: Option<&(String, Duration)>,
) {
    let now = Instant::now();
    let mut backoff_exp: Vec<u32> = vec![0; slots.len()];
    let mut next_spawn: Vec<Instant> = vec![now; slots.len()];
    let mut spawned_at: Vec<Instant> = vec![now; slots.len()];
    let mut recent_respawns: VecDeque<Instant> = VecDeque::new();
    let mut last_snapshot = now;
    let mut governor = ctx
        .overload
        .enabled
        .then(|| Governor::new(ctx.overload.delay_budget_us, ctx.overload.max_limit));
    let mut last_control = now;
    loop {
        let stopping = stop.load(Ordering::SeqCst);

        // AIMD control tick: fold the queue waits observed since the
        // last tick into a new admission limit and brownout level.
        if let Some(g) = governor.as_mut() {
            if last_control.elapsed() >= CONTROL_TICK {
                let waits = std::mem::take(&mut *lock(&ctx.overload.waits));
                let p99 = g.tick(&waits);
                ctx.overload.limit.store(g.limit, Ordering::Relaxed);
                ctx.overload.level.store(g.level, Ordering::Relaxed);
                ctx.overload.last_p99_us.store(p99, Ordering::Relaxed);
                #[allow(clippy::cast_precision_loss)]
                sia_obs::record(Hist::ServeAdmissionLimit, g.limit as f64);
                last_control = Instant::now();
            }
        }

        // Reap finished workers. Outside a shutdown, any exit is a death
        // (workers only return cleanly once the queue disconnects).
        for slot in 0..slots.len() {
            let finished = slots[slot].as_ref().is_some_and(JoinHandle::is_finished);
            if finished {
                let _ = slots[slot].take().map(JoinHandle::join);
                if !stopping {
                    if spawned_at[slot].elapsed() >= BACKOFF_RESET_AFTER {
                        backoff_exp[slot] = 0;
                    }
                    let delay = BACKOFF_BASE
                        .saturating_mul(1 << backoff_exp[slot].min(16))
                        .min(BACKOFF_CAP);
                    backoff_exp[slot] = backoff_exp[slot].saturating_add(1);
                    next_spawn[slot] = Instant::now() + delay;
                }
            }
        }

        // Restart-storm breaker: when too many respawns land inside the
        // sliding window, pause respawning until the window drains.
        while recent_respawns
            .front()
            .is_some_and(|t| t.elapsed() > STORM_WINDOW)
        {
            recent_respawns.pop_front();
        }
        let breaker_open = recent_respawns.len() >= STORM_LIMIT;
        ctx.pool.breaker_open.store(breaker_open, Ordering::Relaxed);

        if !stopping && !breaker_open {
            for slot in 0..slots.len() {
                if slots[slot].is_none() && Instant::now() >= next_spawn[slot] {
                    if let Ok(handle) = spawn_worker(slot, ctx) {
                        slots[slot] = Some(handle);
                        spawned_at[slot] = Instant::now();
                        recent_respawns.push_back(Instant::now());
                        ctx.pool.restarts.fetch_add(1, Ordering::Relaxed);
                        sia_obs::add(Counter::ServeRestarts, 1);
                    }
                }
            }
        }

        if let Some((path, every)) = snapshot {
            if !stopping && last_snapshot.elapsed() >= *every {
                let _ = ctx.cache.save_file(path);
                last_snapshot = Instant::now();
            }
        }

        if stopping && slots.iter().all(Option::is_none) {
            break;
        }
        std::thread::sleep(SUPERVISE_POLL);
    }
}

/// Everything a reader thread needs; cloned per connection (cloning the
/// queue-sender lease with it).
#[derive(Clone)]
struct ReaderCtx {
    tx: QueueSender,
    queue_len: Arc<AtomicI64>,
    pool: Arc<PoolState>,
    cache: Arc<PredicateCache>,
    telemetry: Arc<Telemetry>,
    overload: Arc<Overload>,
    linter: Arc<Analyzer>,
    default_timeout_ms: Option<u64>,
}

fn accept_loop(listener: &TcpListener, addr: SocketAddr, stop: &Arc<AtomicBool>, ctx: &ReaderCtx) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let stop = Arc::clone(stop);
        let ctx = ctx.clone();
        let _ = std::thread::Builder::new()
            .name("sia-conn".to_string())
            .spawn(move || reader_loop(stream, addr, &stop, &ctx));
    }
    // Dropping the accept loop's `ctx.tx` here (with every reader's
    // clone gone once they see the stop flag) lets the workers drain
    // the queue and exit.
}

fn reader_loop(stream: TcpStream, addr: SocketAddr, stop: &AtomicBool, ctx: &ReaderCtx) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(read_side) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_side);
    let out = Arc::new(Mutex::new(stream));
    let mut line = String::new();
    'conn: loop {
        line.clear();
        // Retry timeouts without clearing: a slow client may deliver a
        // line across several poll intervals.
        let n = loop {
            if stop.load(Ordering::SeqCst) {
                break 'conn;
            }
            match reader.read_line(&mut line) {
                Ok(n) => break n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break 'conn,
            }
        };
        if n == 0 {
            break; // EOF
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_request(trimmed) {
            Ok(RequestLine::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                // Wake the accept thread so it observes the flag.
                drop(TcpStream::connect(addr));
                respond(&out, &Response::plain("", Status::Bye));
                break;
            }
            Ok(RequestLine::Health) => {
                respond(
                    &out,
                    &Response {
                        health: Some(pool_health(ctx)),
                        ..Response::plain("", Status::Ok)
                    },
                );
            }
            Ok(RequestLine::Stats) => {
                sia_obs::add(Counter::ServeStatsOps, 1);
                respond(
                    &out,
                    &Response {
                        health: Some(pool_health(ctx)),
                        stats: Some(ctx.telemetry.stats(&ctx.cache, &ctx.overload)),
                        phases: ctx.telemetry.phase_totals(),
                        ..Response::plain("", Status::Ok)
                    },
                );
            }
            Ok(RequestLine::Synth(mut request)) => {
                let id = request.id.clone();
                // Every request is traced: keep the client's ID or mint
                // one, and open the root span *here* so the trace shows
                // the request starting on the thread that accepted it.
                let trace = request.trace.unwrap_or_else(fresh_trace_id);
                request.trace = Some(trace);
                let span = SpanContext::begin("serve.request", trace);

                // Parse once, at admission: classification needs the
                // predicate anyway, and the worker reuses the result.
                let parse_start = Instant::now();
                let parsed = match parse_predicate(&request.predicate) {
                    Ok(p) => {
                        let canon = canonicalize(&p);
                        Ok((p, canon))
                    }
                    Err(e) => Err(e.to_string()),
                };
                let parse_time = parse_start.elapsed();

                // Classify into a lane: a cached template or a statically
                // derivable predicate is cheap; everything else is a
                // likely CEGIS run. Malformed requests are cheap — they
                // fail fast in the worker.
                let admit_start = Instant::now();
                let lane = match &parsed {
                    Ok((p, canon)) => {
                        if ctx.cache.peek(canon, &request.cols)
                            || ctx
                                .linter
                                .derive(p, &request.cols)
                                .is_some_and(|d| d.is_exact())
                        {
                            Lane::Cheap
                        } else {
                            Lane::Expensive
                        }
                    }
                    Err(_) => Lane::Cheap,
                };
                let admit_time = admit_start.elapsed();
                sia_obs::add(
                    match lane {
                        Lane::Cheap => Counter::ServeAdmitCheap,
                        Lane::Expensive => Counter::ServeAdmitExpensive,
                    },
                    1,
                );

                // The deadline clock starts *here*, at admission: queue
                // wait is charged against the request's budget.
                let now = Instant::now();
                let deadline = request
                    .timeout_ms
                    .or(ctx.default_timeout_ms)
                    .map(|ms| now + Duration::from_millis(ms));
                let budget = deadline.map_or_else(Budget::unlimited, Budget::with_deadline_at);

                let job = Job {
                    request,
                    parsed,
                    lane,
                    budget,
                    deadline,
                    pre_phases: vec![("parse", parse_time), ("admit", admit_time)],
                    span,
                    enqueued: now,
                    out: Arc::clone(&out),
                };
                let limit = ctx.overload.limit.load(Ordering::Relaxed);
                let expensive_cap = ctx.overload.expensive_cap(limit);
                match ctx.tx.admit(job, limit, expensive_cap) {
                    Ok(depth) => {
                        ctx.queue_len.fetch_add(1, Ordering::Relaxed);
                        ctx.telemetry.requests.fetch_add(1, Ordering::Relaxed);
                        sia_obs::add(Counter::ServeRequests, 1);
                        #[allow(clippy::cast_precision_loss)]
                        sia_obs::record(Hist::ServeQueueDepth, depth as f64);
                    }
                    Err(AdmitError::Full(job)) => {
                        ctx.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
                        sia_obs::add(Counter::ServeRejected, 1);
                        // The request dies at admission: close its root
                        // span so the trace stream stays balanced.
                        let _ = job.span.finish();
                        respond(
                            &out,
                            &Response {
                                trace: Some(trace),
                                retry_after_ms: Some(ctx.overload.retry_after_ms()),
                                ..Response::plain(&id, Status::Overloaded)
                            },
                        );
                    }
                    Err(AdmitError::Shed(job)) => {
                        ctx.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
                        ctx.telemetry.shed.fetch_add(1, Ordering::Relaxed);
                        sia_obs::add(Counter::ServeRejected, 1);
                        sia_obs::add(Counter::ServeAdmissionShedExpensive, 1);
                        let _ = job.span.finish();
                        respond(
                            &out,
                            &Response {
                                trace: Some(trace),
                                retry_after_ms: Some(ctx.overload.retry_after_ms()),
                                ..Response::plain(&id, Status::Overloaded)
                            },
                        );
                    }
                    Err(AdmitError::Closed(job)) => {
                        let _ = job.span.finish();
                        respond(
                            &out,
                            &Response {
                                error: Some("server is shutting down".into()),
                                ..Response::plain(&id, Status::Error)
                            },
                        );
                        break;
                    }
                }
            }
            Err(e) => {
                respond(
                    &out,
                    &Response {
                        error: Some(e),
                        ..Response::plain("", Status::Error)
                    },
                );
            }
        }
    }
}

/// A point-in-time [`HealthInfo`] from the shared pool and queue
/// counters (used for both the `health` and `stats` ops).
fn pool_health(ctx: &ReaderCtx) -> HealthInfo {
    #[allow(clippy::cast_sign_loss)]
    HealthInfo {
        workers: ctx.pool.alive.load(Ordering::Relaxed) as u64,
        target: ctx.pool.target as u64,
        restarts: ctx.pool.restarts.load(Ordering::Relaxed),
        queue: ctx.queue_len.load(Ordering::Relaxed).max(0) as u64,
        breaker_open: ctx.pool.breaker_open.load(Ordering::Relaxed),
    }
}

fn worker_loop(ctx: &WorkerCtx) {
    loop {
        // The `serve.worker.die` failpoint kills the worker *between*
        // jobs — no request is held, so nothing is lost and the
        // supervisor's respawn is the only observable effect.
        if let Some(msg) = sia_fault::fire("serve.worker.die") {
            panic!("{msg}");
        }
        let Some(job) = ctx.queue.pop() else {
            break; // queue drained and all senders gone
        };
        ctx.queue_len.fetch_sub(1, Ordering::Relaxed);
        // Adopt the request's span context: everything recorded below
        // nests under `serve.request` and carries its trace ID. The
        // request-local recorder captures the same phases into a private
        // map so the response can report them even when the global
        // collector is off. The reader's pre-queue phases (parse,
        // classification) are replayed first so the breakdown still
        // covers the whole request.
        let adopted = job.span.adopt();
        sia_obs::local_begin();
        for (name, dur) in &job.pre_phases {
            sia_obs::record_complete(name, *dur);
        }
        let queue_wait = job.enqueued.elapsed();
        sia_obs::record_complete("queue", queue_wait);
        let wait_us = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
        #[allow(clippy::cast_precision_loss)]
        sia_obs::record(Hist::ServeQueueWaitUs, wait_us as f64);
        ctx.overload.observe_wait(wait_us);
        // Belt and braces: if anything below unwinds past catch_unwind
        // (it cannot today, but this code evolves), the guard still
        // answers the request before the worker dies.
        let mut guard = JobGuard::armed(&job);
        let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
        let result = if expired {
            // The deadline passed while the job was queued: answer
            // `expired` without burning a worker on doomed synthesis.
            sia_obs::add(Counter::ServeExpired, 1);
            Ok(Response {
                predicate: Some(job.request.predicate.clone()),
                reason: Some("expired".into()),
                ..degraded_body(&job.request.id, Status::Expired)
            })
        } else {
            let level = ctx.overload.level.load(Ordering::Relaxed);
            catch_unwind(AssertUnwindSafe(|| {
                process(
                    &job.request,
                    &job.parsed,
                    &ctx.cache,
                    &job.budget,
                    &ctx.linter,
                    level,
                )
            }))
        };
        guard.disarm();
        let mut response = match result {
            Ok(response) => response,
            Err(_) => {
                sia_obs::add(Counter::ServePanics, 1);
                degraded(&job.request.id, &job.request.predicate, "panic")
            }
        };
        // Echo the trace ID and attach the phase breakdown, restating
        // `micros` as the root span's full wall time (queue wait
        // included) so the phases decompose exactly the number they
        // ride along with.
        response.trace = job.request.trace;
        response.phases = sia_obs::local_take()
            .into_iter()
            .map(|(path, us)| match path.strip_prefix("serve.request/") {
                Some(rel) => (rel.to_string(), us),
                None => (path, us),
            })
            .collect();
        response.micros = u64::try_from(job.span.elapsed().as_micros()).unwrap_or(u64::MAX);
        let respond_start = Instant::now();
        respond(&job.out, &response);
        let respond_time = respond_start.elapsed();
        sia_obs::record_complete("respond", respond_time);
        drop(adopted);
        let total = job.span.finish();
        finish_request(ctx, &response, total, respond_time);
    }
}

/// Post-response bookkeeping: cumulative telemetry, per-phase global
/// counters, and the slow-log exemplar.
fn finish_request(ctx: &WorkerCtx, response: &Response, total: Duration, respond_time: Duration) {
    let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    let total_us = us(total);
    let respond_us = us(respond_time);

    let t = &ctx.telemetry;
    t.completed.fetch_add(1, Ordering::Relaxed);
    t.total_us.fetch_add(total_us, Ordering::Relaxed);
    #[allow(clippy::cast_precision_loss)]
    lock(&t.latency).record(total_us as f64);
    match response.status {
        Status::Timeout => {
            t.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        Status::Error => {
            t.errors.fetch_add(1, Ordering::Relaxed);
        }
        Status::Expired => {
            t.expired.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    if response.degraded {
        t.degraded.fetch_add(1, Ordering::Relaxed);
    }

    // Fold this request's phases into the cumulative per-phase totals
    // and the global `serve.phase.*` counters. Only top-level phases
    // count toward attribution (nested `synth/...` time is already
    // inside `synth`); whatever wall time no phase claims goes to
    // `serve.phase.other_us` so coverage gaps are visible, not silent.
    let mut attributed = respond_us;
    {
        let mut phases = lock(&t.phases);
        for (path, us) in &response.phases {
            *phases.entry(path.clone()).or_insert(0) += us;
            if !path.contains('/') {
                attributed = attributed.saturating_add(*us);
                sia_obs::add(phase_counter(path), *us);
            }
        }
        *phases.entry("respond".to_string()).or_insert(0) += respond_us;
    }
    sia_obs::add(Counter::ServePhaseRespondUs, respond_us);
    sia_obs::add(
        Counter::ServePhaseOtherUs,
        total_us.saturating_sub(attributed),
    );

    if let Some(slow) = &ctx.slow_log {
        if total >= slow.threshold {
            t.slow.fetch_add(1, Ordering::Relaxed);
            sia_obs::add(Counter::SlowlogCaptured, 1);
            slow.capture(response);
        }
    }
}

/// The global counter accumulating a top-level request phase.
fn phase_counter(path: &str) -> Counter {
    match path {
        "queue" => Counter::ServePhaseQueueUs,
        "parse" => Counter::ServePhaseParseUs,
        "admit" => Counter::ServePhaseAdmitUs,
        "lint" => Counter::ServePhaseLintUs,
        "cache" => Counter::ServePhaseCacheUs,
        "synth" => Counter::ServePhaseSynthUs,
        "respond" => Counter::ServePhaseRespondUs,
        _ => Counter::ServePhaseOtherUs,
    }
}

/// Answers the in-flight request with a degraded fallback if the worker
/// thread unwinds while still holding it.
struct JobGuard {
    id: String,
    predicate: String,
    out: Arc<Mutex<TcpStream>>,
    armed: bool,
}

impl JobGuard {
    fn armed(job: &Job) -> JobGuard {
        JobGuard {
            id: job.request.id.clone(),
            predicate: job.request.predicate.clone(),
            out: Arc::clone(&job.out),
            armed: true,
        }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        if self.armed {
            sia_obs::add(Counter::ServePanics, 1);
            respond(&self.out, &degraded(&self.id, &self.predicate, "panic"));
        }
    }
}

/// Build a degraded fallback response: status `ok`, the *original*
/// predicate echoed back (always valid, never optimal), and the reason
/// the result is not a real synthesis.
fn degraded(id: &str, original_predicate: &str, reason: &str) -> Response {
    sia_obs::add(Counter::ServeDegraded, 1);
    Response {
        predicate: Some(original_predicate.to_string()),
        degraded: true,
        reason: Some(reason.to_string()),
        ..Response::plain(id, Status::Ok)
    }
}

/// Run one request to completion (cache hit, synthesis, timeout, or
/// degraded fallback). The predicate was already parsed and
/// canonicalized at admission; the budget was anchored there too, so
/// queue wait has been charged against the deadline. `brownout_level`
/// degrades the work: ≥1 disables CEGIS refinement rounds, ≥2 serves
/// static bounds when the analyzer can derive them.
fn process(
    req: &Request,
    parsed: &Result<(Pred, Canonical), String>,
    cache: &PredicateCache,
    budget: &Budget,
    linter: &Analyzer,
    brownout_level: usize,
) -> Response {
    let start = Instant::now();
    let finish = |mut r: Response| {
        #[allow(clippy::cast_precision_loss)]
        let micros = start.elapsed().as_micros() as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            r.micros = micros as u64;
        }
        sia_obs::record(Hist::ServeLatencyUs, micros);
        r
    };

    if sia_fault::fire("serve.worker.request").is_some() {
        return finish(degraded(&req.id, &req.predicate, "internal"));
    }

    let (p, canon) = match parsed {
        Ok(pair) => pair,
        Err(e) => {
            sia_obs::add(Counter::ServeErrors, 1);
            return finish(Response {
                error: Some(e.clone()),
                ..Response::plain(&req.id, Status::Error)
            });
        }
    };
    let warnings = {
        let _lint_span = sia_obs::span("lint");
        lint_warnings(linter, p)
    };
    let cache_span = sia_obs::span("cache");
    let hit = cache.lookup(canon, &req.cols);
    drop(cache_span);
    if let Some(hit) = hit {
        return finish(Response {
            predicate: (!hit.predicate.is_true()).then(|| hit.predicate.to_string()),
            optimal: hit.optimal,
            cached: true,
            warnings,
            ..Response::plain(&req.id, Status::Ok)
        });
    }

    // Brownout level 2+: if static zone projection yields sound bounds,
    // serve them as a flagged degraded result instead of synthesizing.
    // (An *exact* derivation falls through — the synthesizer discharges
    // it statically anyway, no CEGIS needed.)
    if brownout_level >= 2 {
        if let Some(Derivation::Bounds(bounds)) = linter.derive(p, &req.cols) {
            sia_obs::add(Counter::ServeBrownoutServed, 1);
            return finish(Response {
                predicate: Some(bounds.to_string()),
                reason: Some("brownout".into()),
                warnings,
                ..degraded_body(&req.id, Status::Ok)
            });
        }
    }

    let mut config = SiaConfig {
        budget: budget.clone(),
        ..SiaConfig::default()
    };
    if brownout_level >= 1 {
        // Brownout level 1+: no CEGIS refinement rounds — take whatever
        // the first round (static derivation + one learner pass) yields.
        config.max_iterations = 1;
    }
    let mut syn = Synthesizer::new(config);
    match syn.synthesize(p, &req.cols) {
        Ok(result) => {
            let predicate = result.predicate.unwrap_or_else(Pred::true_);
            cache.insert(canon, &req.cols, &predicate, result.optimal);
            finish(Response {
                predicate: (!predicate.is_true()).then(|| predicate.to_string()),
                optimal: result.optimal,
                warnings,
                ..Response::plain(&req.id, Status::Ok)
            })
        }
        Err(SynthesisError::Timeout) => {
            sia_obs::add(Counter::ServeTimeouts, 1);
            // Deadline expiry keeps its distinct status (clients and the
            // CLI exit code depend on it) but now also carries the
            // fallback predicate, so callers can proceed un-optimized.
            finish(Response {
                predicate: Some(req.predicate.clone()),
                reason: Some("timeout".into()),
                warnings,
                ..degraded_body(&req.id, Status::Timeout)
            })
        }
        Err(SynthesisError::Internal(msg)) => finish(Response {
            error: Some(msg),
            warnings,
            ..degraded(&req.id, &req.predicate, "internal")
        }),
        Err(e) => {
            sia_obs::add(Counter::ServeErrors, 1);
            finish(Response {
                error: Some(e.to_string()),
                warnings,
                ..Response::plain(&req.id, Status::Error)
            })
        }
    }
}

/// Static-analysis lint of the request predicate. Advisory only: the
/// result rides along on the response's `warnings` field and never
/// changes the synthesis outcome. The analyzer is built once at startup
/// from [`ServeConfig::lint_schemas`] and shared by every worker.
fn lint_warnings(linter: &Analyzer, p: &Pred) -> Vec<String> {
    let warnings: Vec<String> = linter.lint(p).iter().map(ToString::to_string).collect();
    sia_obs::add(
        Counter::AnalyzeLintWarnings,
        u64::try_from(warnings.len()).unwrap_or(u64::MAX),
    );
    warnings
}

/// A degraded response skeleton with an explicit status (used for
/// timeouts, which keep `status:"timeout"`).
fn degraded_body(id: &str, status: Status) -> Response {
    sia_obs::add(Counter::ServeDegraded, 1);
    Response {
        degraded: true,
        ..Response::plain(id, status)
    }
}

/// Write one response line, serialized per connection. Write failures are
/// ignored: the client has gone away, and the worker must not die with it.
fn respond(out: &Mutex<TcpStream>, response: &Response) {
    let mut stream = out.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = writeln!(stream, "{}", response.to_line());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_governor_halves_under_pressure_and_recovers_additively() {
        let mut g = Governor::new(1_000, 64);
        assert_eq!(g.limit, 64);
        let slow = vec![10_000_u64; 20];
        g.tick(&slow);
        assert_eq!(g.limit, 32, "multiplicative decrease");
        g.tick(&slow);
        assert_eq!(g.limit, 16);
        g.tick(&[]);
        assert_eq!(g.limit, 17, "additive increase on an idle window");
        let fast = vec![100_u64; 20];
        g.tick(&fast);
        assert_eq!(g.limit, 18, "additive increase under budget");
    }

    #[test]
    fn governor_limit_never_leaves_bounds() {
        let mut g = Governor::new(1_000, 4);
        let slow = vec![1_000_000_u64; 4];
        for _ in 0..20 {
            g.tick(&slow);
        }
        assert_eq!(g.limit, 1, "floor is one slot");
        for _ in 0..200 {
            g.tick(&[]);
        }
        assert_eq!(g.limit, 4, "recovery stops at the configured cap");
    }

    #[test]
    fn brownout_ladder_enters_and_exits_with_hysteresis() {
        let mut g = Governor::new(1_000, 64);
        let slow = vec![50_000_u64; 8];
        g.tick(&slow);
        g.tick(&slow);
        assert_eq!(
            g.level, 0,
            "two over-budget ticks are not sustained pressure"
        );
        g.tick(&slow);
        assert_eq!(g.level, 1, "three consecutive over-budget ticks escalate");
        g.tick(&[]);
        assert_eq!(g.level, 1, "one calm tick does not de-escalate");
        for _ in 0..4 {
            g.tick(&[]);
        }
        assert_eq!(g.level, 0, "five consecutive calm ticks de-escalate");
        for _ in 0..9 {
            g.tick(&slow);
        }
        assert_eq!(g.level, 3, "sustained pressure climbs to shedding");
        for _ in 0..10 {
            g.tick(&slow);
        }
        assert_eq!(g.level, 3, "the ladder is capped");
    }

    #[test]
    fn brownout_interrupted_calm_does_not_exit() {
        let mut g = Governor::new(1_000, 64);
        let slow = vec![50_000_u64; 8];
        for _ in 0..3 {
            g.tick(&slow);
        }
        assert_eq!(g.level, 1);
        // Calm streaks broken by borderline (under-budget but not calm)
        // windows never reach the exit threshold.
        let borderline = vec![900_u64; 8];
        for _ in 0..20 {
            g.tick(&[]);
            g.tick(&[]);
            g.tick(&borderline);
        }
        assert_eq!(g.level, 1, "borderline windows reset the calm streak");
    }

    #[test]
    fn overload_expensive_cap_tracks_the_ladder() {
        let fixed = Overload::new(64, None);
        assert_eq!(fixed.expensive_cap(64), None, "legacy mode never sheds");
        let adaptive = Overload::new(64, Some(Duration::from_millis(100)));
        assert_eq!(adaptive.expensive_cap(64), Some(32));
        assert_eq!(adaptive.expensive_cap(5), Some(3));
        adaptive.level.store(BROWNOUT_MAX_LEVEL, Ordering::Relaxed);
        assert_eq!(
            adaptive.expensive_cap(64),
            Some(0),
            "level 3 sheds the whole expensive lane"
        );
    }

    #[test]
    fn percentile_99_is_sane() {
        assert_eq!(percentile_99(&[]), 0);
        assert_eq!(percentile_99(&[7]), 7);
        let many: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_99(&many), 199);
    }
}
