//! Long-running chaos soak: drive a generated workload through a live
//! serve pool under injected faults while continuously checking the
//! invariants the service promises — zero soundness violations (sampled
//! answers re-verified against the solver oracle), zero lost requests,
//! bounded cache memory, and stable tail latency across time windows.
//!
//! The driver is [`load::open_loop`] over a Poisson schedule. Results
//! land in `BENCH_soak.json` (or `--out`).

use std::time::Duration;

use sia_core::{verify_implies, PredEncoder, Validity};
use sia_expr::Pred;
use sia_gen::GenConfig;
use sia_obs::Counter;
use sia_rand::SplitMix64;
use sia_serve::{client, server, Request, Response, RetryPolicy, ServeConfig, Status};
use sia_sql::parse_predicate;

use crate::load::{self, percentile, unit, Answer, Arrival};
use crate::util;
use crate::Gates;

/// Per-arrival retry attempts before a request is declared lost.
const ATTEMPTS: usize = 4;
/// Predicate-cache capacity (entries).
const CACHE_CAPACITY: usize = 1024;
/// Server queue depth.
const QUEUE_DEPTH: usize = 64;
/// Per-request deadline forwarded to the server.
const TIMEOUT_MS: u64 = 10_000;
/// Warmup sends the pool in chunks that stay within the queue depth, so
/// it cannot overload the server and silently skip shapes.
const WARMUP_CHUNK: usize = QUEUE_DEPTH / 2;
/// How long warmup gives a shape to produce a cacheable answer.
const WARMUP_TIMEOUT_MS: u64 = 3000;
/// Fraction of successful answers re-verified against the solver oracle
/// (`p ⇒ learned` must hold).
const ORACLE_RATE: f64 = 0.05;
/// Tail-latency window width.
const WINDOW: Duration = Duration::from_secs(5);
/// Cadence of the cache snapshots the server writes *during* the
/// soak. The fault mix tears the first two apart (`cache.rename`
/// failpoint) to prove the atomic-rename protocol rides out mid-write
/// failures under live traffic.
const SNAPSHOT_INTERVAL: Duration = Duration::from_millis(500);
/// Windowed p99 may drift this far above the median window's.
pub const MAX_P99_DRIFT: f64 = 10.0;

/// The request *pool* the soak cycles through.
fn pool_config() -> GenConfig {
    GenConfig {
        count: 128,
        max_terms: 4,
        repeat_rate: 0.4,
        drift_rate: 0.25,
        seed: 0x51A_50AC,
        ..GenConfig::default()
    }
}

/// The load `sia-exp soak`'s flags shape.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Total arrivals to offer (ignored when `duration` is set).
    pub requests: usize,
    /// Wall-clock budget; when set, arrivals are offered for this long
    /// instead of counting to `requests`.
    pub duration: Option<Duration>,
    /// Offered arrival rate, req/s (Poisson).
    pub rate: f64,
    /// Server worker threads.
    pub workers: usize,
    /// Total fault budget in percent, split across failpoints: half
    /// worker panics, half synthesis errors, plus a fixed trickle of
    /// 1 ms solver-pivot delays.
    pub fault_percent: u32,
    /// Seed for arrivals, fault sites, and oracle sampling.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            requests: 5000,
            duration: None,
            rate: 80.0,
            workers: 4,
            fault_percent: 10,
            seed: 0x51A_50AC,
        }
    }
}

/// Tail-latency and outcome counts for one time window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window start, seconds since the soak began.
    pub start_s: f64,
    /// Arrivals scheduled inside the window.
    pub requests: usize,
    /// Successful, non-degraded answers.
    pub ok: usize,
    /// Degraded fallbacks (panic, injected error, shed).
    pub degraded: usize,
    /// Deadline expiries.
    pub timeouts: usize,
    /// Cache hits.
    pub hits: usize,
    /// Median latency from scheduled arrival, µs.
    pub p50_us: f64,
    /// 99th-percentile latency from scheduled arrival, µs.
    pub p99_us: f64,
}

/// Everything a soak run measured; [`run`] holds it to the gates.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Arrivals offered.
    pub offered: usize,
    /// Arrivals that received any response.
    pub answered: usize,
    /// Arrivals with no response after every retry — must be zero.
    pub lost: usize,
    /// Arrivals still `overloaded` after every retry (a definitive
    /// answer, not a loss — the server shed them under pressure).
    pub shed: usize,
    /// Successful, non-degraded answers.
    pub ok: usize,
    /// Degraded fallbacks.
    pub degraded: usize,
    /// Deadline expiries.
    pub timeouts: usize,
    /// Arrivals that needed at least one retry.
    pub retried: usize,
    /// Sampled answers re-verified against the solver oracle.
    pub oracle_checks: usize,
    /// Oracle refutations (`p ⇒ learned` failed) — must be zero.
    pub violations: usize,
    /// Cache entries at shutdown.
    pub cache_len: usize,
    /// Cache capacity the server ran with.
    pub cache_capacity: usize,
    /// Whole-run cache hit rate.
    pub hit_rate: f64,
    /// Fraction of synthesis runs discharged by static derivation.
    pub derive_static_rate: f64,
    /// Faults actually injected.
    pub faults_injected: u64,
    /// Per-window tail latency.
    pub windows: Vec<WindowStats>,
    /// Max window p99 over median window p99 (1.0 = perfectly flat).
    pub p99_drift: f64,
    /// Wall time of the drive phase, seconds.
    pub elapsed_s: f64,
    /// Shapes the generator produced for the pool.
    pub pool_size: usize,
    /// Shapes that survived warmup (cacheable inside the deadline) and
    /// were actually offered.
    pub pool_kept: usize,
    /// Cache entries recovered from the persisted snapshot after
    /// shutdown. With torn snapshots injected mid-soak, a non-zero count
    /// proves recovery.
    pub snapshot_recovered: usize,
}

impl SoakReport {
    /// Flat-ish JSON (only strings, numbers, and arrays of flat objects,
    /// to stay within the workspace's hand-rolled parser).
    pub fn to_json(&self) -> String {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{{\"start_s\":{},\"requests\":{},\"ok\":{},\"degraded\":{},\
                     \"timeouts\":{},\"hits\":{},\"p50_us\":{},\"p99_us\":{}}}",
                    sia_obs::json_number(w.start_s),
                    w.requests,
                    w.ok,
                    w.degraded,
                    w.timeouts,
                    w.hits,
                    sia_obs::json_number(w.p50_us),
                    sia_obs::json_number(w.p99_us),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"offered\":{},\"answered\":{},\"lost\":{},\"shed\":{},\"ok\":{},\"degraded\":{},\
             \"timeouts\":{},\"retried\":{},\"oracle_checks\":{},\"violations\":{},\
             \"cache_len\":{},\"cache_capacity\":{},\"hit_rate\":{},\
             \"derive_static_rate\":{},\"faults_injected\":{},\"p99_drift\":{},\"elapsed_s\":{},\
             \"pool_size\":{},\"pool_kept\":{},\"snapshot_recovered\":{},\
             \"windows\":[{windows}]}}",
            self.offered,
            self.answered,
            self.lost,
            self.shed,
            self.ok,
            self.degraded,
            self.timeouts,
            self.retried,
            self.oracle_checks,
            self.violations,
            self.cache_len,
            self.cache_capacity,
            sia_obs::json_number(self.hit_rate),
            sia_obs::json_number(self.derive_static_rate),
            self.faults_injected,
            sia_obs::json_number(self.p99_drift),
            sia_obs::json_number(self.elapsed_s),
            self.pool_size,
            self.pool_kept,
            self.snapshot_recovered,
        )
    }
}

/// Keep injected panics (message prefix `failpoint `) off stderr — they
/// are the point of the experiment, not noise worth a backtrace each.
/// Anything else still reports through the default hook.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("failpoint ") {
            default_hook(info);
        }
    }));
}

/// Send one request with bounded retries on transport errors and
/// `overloaded` rejections. Transient failures back off linearly. A
/// final `overloaded` answer is returned as-is (the server shed the
/// request — definitive, not lost); `None` means no answer at all.
fn send_with_retry(addr: &str, req: &Request) -> Answer {
    let mut retried = false;
    let mut last = None;
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            retried = true;
            std::thread::sleep(Duration::from_millis(20 * attempt as u64));
        }
        match client::request_one(addr, req) {
            Ok(r) if r.status == Status::Overloaded => last = Some(r),
            Ok(r) => return (retried, Some(r)),
            Err(_) => {}
        }
    }
    (retried, last)
}

/// Re-verify a sampled answer against the solver oracle: the request
/// predicate must imply the learned one. Returns true on a violation.
fn oracle_refutes(original: &Pred, resp: &Response) -> bool {
    let Some(text) = &resp.predicate else {
        return false; // no learned predicate ⇒ trivially sound
    };
    let Ok(learned) = parse_predicate(text) else {
        return true; // an unparseable answer is its own violation
    };
    let mut enc = PredEncoder::new();
    matches!(
        verify_implies(&mut enc, original, &learned),
        Ok(Validity::Invalid)
    )
}

/// Drive one full soak, persisting the cache to `cache_file`: generate,
/// start, load, verify, report.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn run_soak(cfg: &SoakConfig, cache_file: &str) -> Result<SoakReport, String> {
    let pool_reqs = sia_gen::generate(&pool_config())?;
    let pool: Vec<Request> = pool_reqs
        .iter()
        .map(|g| load::request(g, Some(TIMEOUT_MS)))
        .collect();
    if pool.is_empty() {
        return Err("generator produced an empty pool".to_string());
    }

    let handle = server::start(ServeConfig {
        workers: cfg.workers,
        cache_capacity: CACHE_CAPACITY,
        queue_depth: QUEUE_DEPTH,
        cache_file: Some(cache_file.to_string()),
        snapshot_interval: Some(SNAPSHOT_INTERVAL),
        lint_schemas: sia_gen::schemas().into_iter().map(|(_, s)| s).collect(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start soak server: {e}"))?;
    let addr = handle.addr().to_string();

    // Warm the cache with one pass over the distinct pool before any
    // fault is armed: the soak measures steady-state serving stability,
    // not cold-start synthesis cost. Shapes that fail to produce a
    // cacheable answer inside the warmup deadline are dropped from the
    // arrival pool — an uncached shape would re-run a multi-second
    // synthesis on every cycle of the pool, wedging the workers behind it.
    let warmup: Vec<Request> = pool
        .iter()
        .map(|r| Request {
            timeout_ms: Some(WARMUP_TIMEOUT_MS),
            ..r.clone()
        })
        .collect();
    let mut keep = vec![false; pool.len()];
    for (ci, chunk) in warmup.chunks(WARMUP_CHUNK).enumerate() {
        let outcome =
            client::run_batch_retry(&addr, chunk, cfg.workers * 2, &RetryPolicy::default());
        for (j, resp) in outcome.responses.iter().enumerate() {
            keep[ci * WARMUP_CHUNK + j] = resp.status == Status::Ok && !resp.degraded;
        }
    }
    let pool_size = pool.len();
    let kept_idx: Vec<usize> = (0..pool.len()).filter(|&i| keep[i]).collect();
    if kept_idx.is_empty() {
        handle.shutdown().ok();
        return Err("warmup cached no shapes; cannot soak".to_string());
    }
    let pool: Vec<Request> = kept_idx.iter().map(|&i| pool[i].clone()).collect();
    let pool_preds: Vec<&Pred> = kept_idx.iter().map(|&i| &pool_reqs[i].predicate).collect();

    if cfg.fault_percent > 0 {
        sia_fault::set_seed(cfg.seed ^ 0xFA17);
        let half = (cfg.fault_percent / 2).max(1);
        sia_fault::configure(
            "serve.worker.request",
            &format!("{half}%panic(injected worker panic)"),
        )?;
        sia_fault::configure("synth.run", &format!("{half}%error(injected synth error)"))?;
        sia_fault::configure("smt.simplex.pivot", "1%delay(1)")?;
        // Tear the first two mid-soak snapshots apart at the atomic
        // rename. Count-limited so the budget is exhausted well before
        // shutdown's final save, which must succeed.
        sia_fault::configure("cache.rename", "2*error(injected torn snapshot)")?;
    }

    let schedule = load::poisson_schedule(cfg.rate, cfg.requests, cfg.duration, cfg.seed);
    let static_before = sia_obs::snapshot().counter(Counter::AnalyzeDeriveStatic);
    let miss_before = sia_obs::snapshot().counter(Counter::AnalyzeDeriveMiss);
    let (arrivals, elapsed) =
        load::open_loop(&schedule, |i| send_with_retry(&addr, &pool[i % pool.len()]));
    let elapsed_s = elapsed.as_secs_f64();

    // Fault and cache bookkeeping before shutdown.
    let faults_injected = sia_obs::snapshot().counter(Counter::FaultInjected);
    sia_fault::clear();
    let cache_len = handle.cache().len();
    let hit_rate = handle.cache().stats().hit_rate();
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    // Recovery proof: the snapshot on disk — written under live traffic
    // with torn-snapshot faults armed — must load back into a fresh
    // cache. A torn write that slipped through would drop records here.
    let snapshot_recovered = sia_cache::PredicateCache::new(CACHE_CAPACITY)
        .load_file(cache_file)
        .map_err(|e| format!("snapshot reload from {cache_file}: {e}"))?
        .recovered;

    // Outcome tallies + soundness oracle on a deterministic sample.
    let mut oracle_rng = SplitMix64::new(cfg.seed ^ 0x0AC1E);
    let mut lost = 0usize;
    let mut shed = 0usize;
    let mut ok = 0usize;
    let mut degraded = 0usize;
    let mut timeouts = 0usize;
    let mut retried = 0usize;
    let mut oracle_checks = 0usize;
    let mut violations = 0usize;
    for (i, a) in arrivals.iter().enumerate() {
        let (was_retried, response) = &a.result;
        retried += usize::from(*was_retried);
        let Some(resp) = response else {
            lost += 1;
            continue;
        };
        if resp.status == Status::Overloaded {
            shed += 1;
        } else if resp.degraded {
            degraded += 1;
        } else if resp.status == Status::Timeout {
            timeouts += 1;
        } else if resp.status == Status::Ok {
            ok += 1;
            if unit(&mut oracle_rng) < ORACLE_RATE {
                oracle_checks += 1;
                violations += usize::from(oracle_refutes(pool_preds[i % pool_preds.len()], resp));
            }
        }
    }

    // Windowed tail latency, keyed by scheduled arrival time.
    let window_s = WINDOW.as_secs_f64();
    let n_windows = (elapsed_s / window_s).ceil().max(1.0) as usize;
    let mut buckets: Vec<Vec<&Arrival<Answer>>> = vec![Vec::new(); n_windows];
    for a in &arrivals {
        let w = ((a.scheduled.as_secs_f64() / window_s) as usize).min(n_windows - 1);
        buckets[w].push(a);
    }
    let mut windows = Vec::new();
    for (w, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut lat: Vec<f64> = bucket.iter().map(|a| a.latency_us()).collect();
        let count = |pred: fn(&Response) -> bool| {
            bucket
                .iter()
                .filter(|a| a.result.1.as_ref().is_some_and(pred))
                .count()
        };
        windows.push(WindowStats {
            start_s: w as f64 * window_s,
            requests: bucket.len(),
            ok: count(|r| r.status == Status::Ok && !r.degraded),
            degraded: count(|r| r.degraded),
            timeouts: count(|r| r.status == Status::Timeout),
            hits: count(|r| r.cached),
            p50_us: percentile(&mut lat, 50.0),
            p99_us: percentile(&mut lat, 99.0),
        });
    }
    let mut p99s: Vec<f64> = windows.iter().map(|w| w.p99_us).collect();
    let median_p99 = percentile(&mut p99s, 50.0);
    let max_p99 = p99s.iter().copied().fold(0.0f64, f64::max);
    let p99_drift = if median_p99 > 0.0 {
        max_p99 / median_p99
    } else {
        1.0
    };

    let static_hits = sia_obs::snapshot().counter(Counter::AnalyzeDeriveStatic) - static_before;
    let misses = sia_obs::snapshot().counter(Counter::AnalyzeDeriveMiss) - miss_before;
    let derive_static_rate = if static_hits + misses == 0 {
        0.0
    } else {
        static_hits as f64 / (static_hits + misses) as f64
    };

    Ok(SoakReport {
        offered: arrivals.len(),
        answered: arrivals.len() - lost,
        lost,
        shed,
        ok,
        degraded,
        timeouts,
        retried,
        oracle_checks,
        violations,
        cache_len,
        cache_capacity: CACHE_CAPACITY,
        hit_rate,
        derive_static_rate,
        faults_injected,
        windows,
        p99_drift,
        elapsed_s,
        pool_size,
        pool_kept: pool.len(),
        snapshot_recovered,
    })
}

/// The `soak` gate: run `cfg`, print the windows and totals, write
/// `out`, and report the missed bars.
///
/// # Errors
///
/// Fails when the soak cannot run at all: the server does not start, or
/// warmup caches no shape.
pub fn run(cfg: &SoakConfig, out: &str) -> Result<Gates, String> {
    silence_injected_panics();
    sia_obs::reset();
    sia_obs::enable();

    let cache_path =
        std::env::temp_dir().join(format!("sia_soak_cache_{}.bin", std::process::id()));
    std::fs::remove_file(&cache_path).ok();
    println!(
        "== soak: {} arrivals at {:.0} rps, {} workers, {}% faults ==",
        cfg.duration.map_or_else(
            || cfg.requests.to_string(),
            |d| format!("{:.0}s of", d.as_secs_f64())
        ),
        cfg.rate,
        cfg.workers,
        cfg.fault_percent
    );
    let result = run_soak(cfg, cache_path.to_str().expect("utf-8 temp path"));
    std::fs::remove_file(&cache_path).ok();
    let report = result?;
    for w in &report.windows {
        println!(
            "  [{:>5.0}s] {:>4} reqs | {:>3} ok% | p50 {:>7.0} us | p99 {:>8.0} us | {} hits",
            w.start_s,
            w.requests,
            100 * w.ok / w.requests.max(1),
            w.p50_us,
            w.p99_us,
            w.hits
        );
    }
    println!(
        "soak: {}/{} answered ({} lost, {} shed) | {} ok / {} degraded / {} timeout | {} retried",
        report.answered,
        report.offered,
        report.lost,
        report.shed,
        report.ok,
        report.degraded,
        report.timeouts,
        report.retried
    );
    println!(
        "invariants: {} oracle checks, {} violations | cache {}/{} entries, hit rate {:.1}% \
         | p99 drift {:.2}x | {} faults injected",
        report.oracle_checks,
        report.violations,
        report.cache_len,
        report.cache_capacity,
        100.0 * report.hit_rate,
        report.p99_drift,
        report.faults_injected
    );
    println!(
        "persistence: {} cache entries recovered from the snapshot",
        report.snapshot_recovered
    );
    util::write_results(
        out,
        &format!(
            "{{\"experiment\":\"soak\",\"report\":{},\"gen_config\":{},\"metrics\":{}}}\n",
            report.to_json(),
            pool_config().to_json(),
            sia_obs::snapshot().to_json()
        ),
    );
    sia_obs::disable();

    let mut gates = Gates::default();
    gates.require(
        report.violations == 0,
        format!("{} soundness violations in soak", report.violations),
    );
    gates.require(
        report.lost == 0,
        format!("{} lost requests in soak", report.lost),
    );
    gates.require(
        report.cache_len <= report.cache_capacity,
        format!(
            "cache grew past capacity: {} > {}",
            report.cache_len, report.cache_capacity
        ),
    );
    gates.require(
        report.oracle_checks > 0,
        "oracle never sampled an answer".to_string(),
    );
    gates.require(
        cfg.fault_percent == 0 || report.faults_injected > 0,
        "fault injection never fired".to_string(),
    );
    gates.require(
        report.snapshot_recovered > 0,
        "no cache entries recovered from the persisted snapshot".to_string(),
    );
    gates.require(
        report.windows.len() >= 2,
        format!(
            "need >= 2 windows of {:.0}s for a drift gate",
            WINDOW.as_secs_f64()
        ),
    );
    gates.require(
        report.p99_drift <= MAX_P99_DRIFT,
        format!(
            "windowed p99 drifted {:.2}x (gate {MAX_P99_DRIFT}x)",
            report.p99_drift
        ),
    );
    Ok(gates)
}
