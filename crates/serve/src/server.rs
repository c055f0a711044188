//! The synthesis server: configuration, startup, and the accept,
//! reader and worker loops.
//!
//! Threading model (std only — threads and channels, no async runtime),
//! all over one `Shared` context:
//!
//! - An **accept thread** takes connections and spawns one reader thread
//!   per connection.
//! - **Reader threads** parse request lines, anchor each request's
//!   deadline and [`Budget`] *at admission*, and offer the job to the
//!   queue (`admission.rs`); a refused job is answered on the spot.
//!   `stats` requests are answered inline by the reader, bypassing the
//!   queue, so live telemetry stays observable even when the pool is
//!   saturated. Each synthesis request gets a trace ID (the client's if
//!   it sent one, a fresh one otherwise) and an open `serve.request`
//!   root span ([`sia_obs::SpanContext`]) that travels with the job
//!   through the queue.
//! - **Worker threads** drain the queue, adopt the job's span context
//!   (so every span they record — lint, cache probe, the synthesizer's
//!   own `synth/...` tree — nests under `serve.request` and carries the
//!   request's trace ID), and answer it (`answer.rs`): queue wait is
//!   charged against the deadline, and a job whose deadline already
//!   passed while queued is answered `expired` without running
//!   synthesis at all. All of that runs in one unwind domain per job, so
//!   a worker answers every job it pops exactly once and leaves its loop
//!   only when the queue closes.
//! - A **control thread** ticks the admission law, writes periodic cache
//!   snapshots, and joins the workers at shutdown.
//!
//! Shutdown is cooperative: a `{"op":"shutdown"}` request sets the stop
//! flag and wakes the accept thread with a loopback connection; readers
//! notice the flag within one read timeout, drop their queue senders,
//! and the workers exit once the queue drains — already-queued requests
//! are still answered. The control thread joins the drained workers and
//! the final cache save goes through the same atomic temp-file + rename
//! path as the snapshots.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sia_analyze::Analyzer;
use sia_cache::{canonicalize, LoadReport, PredicateCache};
use sia_expr::Schema;
use sia_obs::{AdoptGuard, Counter, Hist, SpanContext};
use sia_smt::Budget;
use sia_sql::parse_predicate;

use crate::admission::{Admission, Job, JobQueue, Lane, Popped, QueueSender, Reject, CONTROL_TICK};
use crate::answer::{degraded, degraded_body, process, respond};
use crate::micros;
use crate::protocol::{
    fresh_trace_id, parse_request, Request, RequestLine, Response, StatsInfo, Status,
};
use crate::telemetry::{SlowLog, Telemetry};

/// How long reader threads block on a socket before re-checking the
/// shutdown flag. Bounds the drain time of an idle connection.
const READ_POLL: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// When set together with `cache_file`, the control thread writes an
    /// atomic cache snapshot this often (checked every 100 ms control
    /// tick), so a crash loses at most one interval of cache warmth.
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
    /// Queue-delay budget of the AIMD admission law (`None` =
    /// unbounded, so the limit stays at [`ServeConfig::queue_depth`] and
    /// only a full queue refuses). The admission limit is cut
    /// multiplicatively whenever the p99 queue wait of a control window
    /// exceeds this budget and raised additively otherwise, an expensive
    /// request is shed once the oldest queued expensive job has waited
    /// past it, and sustained pressure walks the brownout ladder (see
    /// [`StatsInfo::brownout`]). A reasonable value is ¼ of the default
    /// request deadline.
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

/// The one context every server thread works over. Readers additionally
/// hold a [`QueueSender`] lease each; workers reach the queue through
/// here, so the queue closes once the accept thread and every reader
/// have dropped their leases.
struct Shared {
    addr: SocketAddr,
    stop: AtomicBool,
    queue: Arc<JobQueue<Job>>,
    cache: Arc<PredicateCache>,
    /// Worker threads: a worker leaves only when the queue closes, so
    /// this is also how many are serving.
    workers: usize,
    telemetry: Telemetry,
    linter: Analyzer,
    default_timeout_ms: Option<u64>,
}

impl Shared {
    /// Live telemetry from one queue snapshot — what the `stats` op and
    /// [`ServerHandle::stats`] report.
    fn stats(&self) -> StatsInfo {
        StatsInfo {
            workers: self.workers as u64,
            ..self.telemetry.stats(&self.cache, self.queue.snapshot())
        }
    }

    /// The `stats` op's answer: live telemetry and the cumulative phase
    /// totals.
    fn stats_response(&self) -> Response {
        Response {
            stats: Some(self.stats()),
            phases: self.telemetry.phase_totals(),
            ..Response::plain("", Status::Ok)
        }
    }

    fn signal_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread, which may be blocked in accept().
        drop(TcpStream::connect(self.addr));
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// The accept and control threads, until joined.
    threads: Vec<JoinHandle<()>>,
    cache_file: Option<String>,
    cache_load: Option<LoadReport>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
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
    let cache_load = match &config.cache_file {
        Some(path) if std::path::Path::new(path).exists() => Some(cache.load_file(path)?),
        Some(_) => Some(LoadReport::default()),
        None => None,
    };
    let slow_log = match &config.slow_log_file {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Some(SlowLog {
                threshold: config.slow_threshold,
                file: Mutex::new(file),
            })
        }
        None => None,
    };
    let (queue, tx) = JobQueue::new(Admission::new(
        config.queue_depth,
        config.admission_delay_budget.unwrap_or(Duration::MAX),
    ));
    let shared = Arc::new(Shared {
        addr,
        stop: AtomicBool::new(false),
        queue,
        cache,
        workers: config.workers.max(1),
        telemetry: Telemetry::new(slow_log),
        linter: Analyzer::with_schemas(&config.lint_schemas),
        default_timeout_ms: config.default_timeout_ms,
    });

    // Each worker holds a sender it never sends on: the channel
    // disconnects the moment the last worker leaves its loop.
    let (alive, all_gone) = mpsc::channel::<()>();
    let workers = (0..shared.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let alive = alive.clone();
            std::thread::Builder::new()
                .name(format!("sia-worker-{i}"))
                .spawn(move || {
                    worker_loop(&shared);
                    drop(alive);
                })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    drop(alive);

    let control = {
        let shared = Arc::clone(&shared);
        let snapshot = config
            .cache_file
            .clone()
            .zip(config.snapshot_interval)
            .filter(|(_, every)| !every.is_zero());
        std::thread::Builder::new()
            .name("sia-control".to_string())
            .spawn(move || control_loop(&shared, &all_gone, snapshot.as_ref(), workers))?
    };

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sia-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared, &tx))?
    };

    Ok(ServerHandle {
        shared,
        threads: vec![accept, control],
        cache_file: config.cache_file,
        cache_load,
    })
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared predicate cache (for statistics).
    pub fn cache(&self) -> &PredicateCache {
        &self.shared.cache
    }

    /// An owned handle to the cache, usable after the server stops
    /// (e.g. to report final statistics once [`Self::wait`] returns).
    pub fn cache_arc(&self) -> Arc<PredicateCache> {
        Arc::clone(&self.shared.cache)
    }

    /// What startup recovered from [`ServeConfig::cache_file`] (all zero
    /// when the file did not exist yet); `None` without a cache file.
    pub fn cache_load(&self) -> Option<LoadReport> {
        self.cache_load
    }

    /// Live telemetry — the same numbers the `stats` op reports over
    /// the wire.
    pub fn stats(&self) -> StatsInfo {
        self.shared.stats()
    }

    /// Cumulative per-phase wall-time totals across completed requests,
    /// as `(span path, µs)` pairs sorted by path.
    pub fn phase_totals(&self) -> Vec<(String, u64)> {
        self.shared.telemetry.phase_totals()
    }

    /// Block until a client asks the server to shut down (via the
    /// `shutdown` op), then drain and stop. Returns what the `stats` op
    /// would answer once the last request has finished.
    ///
    /// # Errors
    ///
    /// Fails when the configured cache file cannot be written.
    pub fn wait(mut self) -> std::io::Result<Response> {
        self.join_all()?;
        Ok(self.shared.stats_response())
    }

    /// Stop the server from this process: reject new connections, drain
    /// queued requests, join all threads, persist the cache.
    ///
    /// # Errors
    ///
    /// Fails when the configured cache file cannot be written.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.shared.signal_stop();
        self.join_all()
    }

    fn join_all(&mut self) -> std::io::Result<()> {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        if let Some(path) = self.cache_file.take() {
            self.shared.cache.save_file(&path)?;
        }
        Ok(())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shared.signal_stop();
            let _ = self.join_all();
        }
    }
}

/// `tx` is the accept thread's own queue lease: the thread drops it when
/// this returns, and with every reader's clone gone once they see the
/// stop flag, the workers drain the queue and exit.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, tx: &QueueSender<Job>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let tx = tx.clone();
        let _ = std::thread::Builder::new()
            .name("sia-conn".to_string())
            .spawn(move || reader_loop(stream, &shared, &tx));
    }
}

fn reader_loop(stream: TcpStream, shared: &Shared, tx: &QueueSender<Job>) {
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
            if shared.stop.load(Ordering::SeqCst) {
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
        let reply = match parse_request(trimmed) {
            Ok(RequestLine::Shutdown) => {
                shared.signal_stop();
                respond(&out, &Response::plain("", Status::Bye));
                break;
            }
            Ok(RequestLine::Stats) => {
                sia_obs::add(Counter::ServeStatsOps, 1);
                shared.stats_response()
            }
            Ok(RequestLine::Synth(request)) => {
                if admit_request(shared, tx, &out, request) {
                    continue;
                }
                break;
            }
            Err(e) => Response {
                error: Some(e),
                ..Response::plain("", Status::Error)
            },
        };
        respond(&out, &reply);
    }
}

/// Trace, parse, classify and offer one synthesis request to the queue;
/// a refused request is answered here. Returns false when the server is
/// shutting down and the connection should close.
fn admit_request(
    shared: &Shared,
    tx: &QueueSender<Job>,
    out: &Arc<Mutex<TcpStream>>,
    mut request: Request,
) -> bool {
    // Every request is traced: keep the client's ID or mint one, and
    // open the root span *here* so the trace shows the request starting
    // on the thread that accepted it.
    let trace = request.trace.unwrap_or_else(fresh_trace_id);
    request.trace = Some(trace);
    let span = SpanContext::begin("serve.request", trace);

    // Parse once, at admission: classification needs the predicate
    // anyway, and the worker reuses the result.
    let parse_start = Instant::now();
    let parsed = match parse_predicate(&request.predicate) {
        Ok(p) => {
            let canon = canonicalize(&p);
            Ok((p, canon))
        }
        Err(e) => Err(e.to_string()),
    };
    let parse_time = parse_start.elapsed();

    // Classify into a lane: a cached template or a statically derivable
    // predicate is cheap; everything else is a likely CEGIS run.
    // Malformed requests are cheap — they fail fast in the worker.
    let admit_start = Instant::now();
    let lane = match &parsed {
        Ok((p, canon)) => {
            if shared.cache.peek(canon, &request.cols)
                || shared
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

    // The deadline clock starts *here*, at admission: queue wait is
    // charged against the request's budget.
    let timeout_ms = request.timeout_ms.or(shared.default_timeout_ms);
    let job = Job {
        request,
        parsed,
        budget: timeout_ms.map_or_else(Budget::unlimited, |ms| {
            Budget::with_deadline(Duration::from_millis(ms))
        }),
        pre_phases: [("parse", parse_time), ("admit", admit_time)],
        span,
        out: Arc::clone(out),
    };
    let rejected = match tx.admit(lane, job) {
        Ok(depth) => {
            shared.telemetry.count(|c| c.requests += 1);
            #[allow(clippy::cast_precision_loss)]
            sia_obs::record(Hist::ServeQueueDepth, depth as f64);
            return true;
        }
        Err(rejected) => rejected,
    };
    // The request dies at admission: close its root span so the trace
    // stream stays balanced.
    let _ = rejected.job.span.finish();
    let id = &rejected.job.request.id;
    if rejected.why == Reject::Closed {
        respond(
            out,
            &Response {
                error: Some("server is shutting down".into()),
                ..Response::plain(id, Status::Error)
            },
        );
        return false;
    }
    let shed = rejected.why == Reject::Shed;
    shared.telemetry.count(|c| {
        c.rejected += 1;
        c.shed += u64::from(shed);
    });
    respond(
        out,
        &Response {
            trace: Some(trace),
            retry_after_ms: Some(rejected.retry_after_ms),
            ..Response::plain(id, Status::Overloaded)
        },
    );
    true
}

/// The control thread: tick the admission law every [`CONTROL_TICK`],
/// write the periodic cache snapshot when one is configured, and once
/// the last worker has left the drained queue, join them all.
fn control_loop(
    shared: &Shared,
    all_gone: &Receiver<()>,
    snapshot: Option<&(String, Duration)>,
    workers: Vec<JoinHandle<()>>,
) {
    let mut last_snapshot = Instant::now();
    while let Err(RecvTimeoutError::Timeout) = all_gone.recv_timeout(CONTROL_TICK) {
        shared.queue.tick();
        if let Some((path, every)) = snapshot {
            if !shared.stop.load(Ordering::SeqCst) && last_snapshot.elapsed() >= *every {
                let _ = shared.cache.save_file(path);
                last_snapshot = Instant::now();
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// A worker answers every job it pops exactly once, and leaves only
/// when the queue has closed and drained. Everything done with a job
/// until its reply is fixed runs in one unwind domain ([`run_job`]); a
/// panic anywhere in it is answered `degraded` with reason `panic`. The
/// one reply is written outside the domain.
fn worker_loop(shared: &Shared) {
    while let Some(popped) = shared.queue.pop() {
        let job = &popped.job;
        let (response, adopted) = match catch_unwind(AssertUnwindSafe(|| run_job(shared, &popped)))
        {
            Ok((response, adopted)) => (response, Some(adopted)),
            Err(_) => {
                sia_obs::add(Counter::ServePanics, 1);
                let response = Response {
                    trace: job.request.trace,
                    micros: micros(job.span.elapsed()),
                    ..degraded(&job.request.id, &job.request.predicate, "panic")
                };
                (response, None)
            }
        };
        let respond_start = Instant::now();
        respond(&job.out, &response);
        let respond_time = respond_start.elapsed();
        sia_obs::record_complete("respond", respond_time);
        drop(adopted);
        let total = popped.job.span.finish();
        shared
            .telemetry
            .finish_request(&response, total, respond_time);
    }
}

/// One job's unwind domain: everything from adopting its span to
/// collecting its phases. Returns the reply, its content fixed, and the
/// adoption, which the worker holds until the reply is written.
fn run_job<'a>(shared: &Shared, popped: &'a Popped<Job>) -> (Response, AdoptGuard<'a>) {
    let injected = sia_fault::fire("serve.worker.request");
    let job = &popped.job;
    let request = &job.request;
    // Adopt the request's span context: everything recorded below
    // nests under `serve.request` and carries its trace ID. The
    // request-local recorder captures the same phases into a private
    // map so the response can report them even when the global
    // collector is off. The reader's pre-queue phases (parse,
    // classification) are replayed first so the breakdown still covers
    // the whole request, and the `queue` phase is read only after that
    // bookkeeping, so it runs from admission right up to the start of
    // work with no gap.
    let adopted = job.span.adopt();
    sia_obs::local_begin();
    for (name, dur) in &job.pre_phases {
        sia_obs::record_complete(name, *dur);
    }
    sia_obs::record_complete("queue", popped.enqueued.elapsed());
    let mut response = if injected.is_some() {
        degraded(&request.id, &request.predicate, "internal")
    } else if job.budget.is_exhausted() {
        // The deadline passed while the job was queued: answer
        // `expired` without burning a worker on doomed synthesis.
        Response {
            predicate: Some(request.predicate.clone()),
            reason: Some("expired".into()),
            ..degraded_body(&request.id, Status::Expired)
        }
    } else {
        process(job, &shared.cache, &shared.linter, popped.level)
    };
    // Echo the trace ID and restate `micros` as the root span's full
    // wall time (queue wait included), read before the phases are
    // collected: the collection is bookkeeping about a reply whose
    // content is already fixed, so the phases decompose exactly the
    // number they ride along with.
    response.trace = request.trace;
    response.micros = micros(job.span.elapsed());
    response.phases = sia_obs::local_take()
        .into_iter()
        .map(|(path, us)| match path.strip_prefix("serve.request/") {
            Some(rel) => (rel.to_string(), us),
            None => (path.into_owned(), us),
        })
        .collect();
    (response, adopted)
}

#[cfg(test)]
mod tests {
    //! The six control-law tests that predate `admission.rs`, under the
    //! names they have always had; the rest of the law's tests sit
    //! beside it in that module.
    use crate::admission::{percentile_99, Admission, Lane, Reject};
    use std::time::Duration;

    /// A law with a 1 ms queue-delay budget.
    fn law(max_limit: usize) -> Admission {
        Admission::new(max_limit, Duration::from_micros(1_000))
    }

    /// Feed one control window, then tick.
    fn tick(a: &mut Admission, waits_us: &[u64]) {
        for &w in waits_us {
            a.observe_wait(w);
        }
        a.tick();
    }

    #[test]
    fn aimd_governor_halves_under_pressure_and_recovers_additively() {
        let mut g = law(64);
        assert_eq!(g.limit(), 64);
        let slow = vec![10_000_u64; 20];
        tick(&mut g, &slow);
        assert_eq!(g.limit(), 32, "multiplicative decrease");
        tick(&mut g, &slow);
        assert_eq!(g.limit(), 16);
        tick(&mut g, &[]);
        assert_eq!(g.limit(), 17, "additive increase on an idle window");
        let fast = vec![100_u64; 20];
        tick(&mut g, &fast);
        assert_eq!(g.limit(), 18, "additive increase under budget");
    }

    #[test]
    fn governor_limit_never_leaves_bounds() {
        let mut g = law(4);
        let slow = vec![1_000_000_u64; 4];
        for _ in 0..20 {
            tick(&mut g, &slow);
        }
        assert_eq!(g.limit(), 1, "floor is one slot");
        for _ in 0..200 {
            tick(&mut g, &[]);
        }
        assert_eq!(g.limit(), 4, "recovery stops at the configured cap");
    }

    #[test]
    fn brownout_ladder_enters_and_exits_with_hysteresis() {
        let mut g = law(64);
        let slow = vec![50_000_u64; 8];
        tick(&mut g, &slow);
        tick(&mut g, &slow);
        assert_eq!(
            g.level(),
            0,
            "two over-budget ticks are not sustained pressure"
        );
        tick(&mut g, &slow);
        assert_eq!(g.level(), 1, "three consecutive over-budget ticks escalate");
        tick(&mut g, &[]);
        assert_eq!(g.level(), 1, "one calm tick does not de-escalate");
        for _ in 0..4 {
            tick(&mut g, &[]);
        }
        assert_eq!(g.level(), 0, "five consecutive calm ticks de-escalate");
        for _ in 0..9 {
            tick(&mut g, &slow);
        }
        assert_eq!(g.level(), 3, "sustained pressure climbs to shedding");
        for _ in 0..10 {
            tick(&mut g, &slow);
        }
        assert_eq!(g.level(), 3, "the ladder is capped");
    }

    #[test]
    fn brownout_interrupted_calm_does_not_exit() {
        let mut g = law(64);
        let slow = vec![50_000_u64; 8];
        for _ in 0..3 {
            tick(&mut g, &slow);
        }
        assert_eq!(g.level(), 1);
        // Calm streaks broken by borderline (under-budget but not calm)
        // windows never reach the exit threshold.
        let borderline = vec![900_u64; 8];
        for _ in 0..20 {
            tick(&mut g, &[]);
            tick(&mut g, &[]);
            tick(&mut g, &borderline);
        }
        assert_eq!(g.level(), 1, "borderline windows reset the calm streak");
    }

    #[test]
    fn overload_expensive_cap_tracks_the_ladder() {
        let mut adaptive = Admission::new(64, Duration::from_millis(100));
        assert_eq!(
            adaptive.refuses(Lane::Expensive, 63, 100_000),
            None,
            "a calm lane within its budget fills to the limit"
        );
        assert_eq!(
            adaptive.refuses(Lane::Expensive, 0, 100_001),
            Some(Reject::Shed)
        );
        for _ in 0..9 {
            tick(&mut adaptive, &[1_000_000; 4]);
        }
        assert_eq!(adaptive.level(), 3);
        assert_eq!(
            adaptive.refuses(Lane::Expensive, 0, 0),
            Some(Reject::Shed),
            "level 3 sheds the whole expensive lane"
        );
        assert_eq!(adaptive.refuses(Lane::Cheap, 0, 0), None);
    }

    #[test]
    fn percentile_99_is_sane() {
        assert_eq!(percentile_99(&[]), 0);
        assert_eq!(percentile_99(&[7]), 7);
        let many: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_99(&many), 199);
    }
}
