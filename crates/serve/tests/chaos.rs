//! Chaos tests: failpoint-driven worker panics and injected errors,
//! degraded fallbacks, and the client's retry/shed machinery.
//!
//! These live in their own test binary because failpoints are
//! process-global: the plain serve tests must never observe them. Tests
//! here serialize on [`FAULT_LOCK`] and clear the registry when done.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sia_serve::{client, server, Request, RetryPolicy, ServeConfig, Status};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serialize the test and guarantee a clean registry on entry and exit
/// (including panicking exits).
fn fault_guard() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    sia_fault::clear();
    guard
}

struct ClearOnDrop;

impl Drop for ClearOnDrop {
    fn drop(&mut self) {
        sia_fault::clear();
    }
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

fn synth_req(id: &str) -> Request {
    Request {
        id: id.to_string(),
        predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
        cols: strs(&["a"]),
        timeout_ms: None,
        trace: None,
    }
}

fn wait_for(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// Six requests against a two-worker pool whose every job meets the
/// `serve.worker.request` failpoint set to `policy`: each popped job is
/// answered exactly once, degraded with `reason` and the original
/// predicate; both workers keep serving; and once the failpoint is
/// cleared the same pool synthesizes again.
fn every_popped_job_degrades(policy: &str, reason: &str) {
    let _lock = fault_guard();
    let _clear = ClearOnDrop;
    let handle = server::start(ServeConfig {
        workers: 2,
        cache_capacity: 0, // force real synthesis on every request
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    sia_fault::configure("serve.worker.request", policy).unwrap();
    let requests: Vec<Request> = (0..6).map(|i| synth_req(&format!("p{i}"))).collect();
    let responses = client::run_batch(&addr, &requests, 3).expect("batch survives faults");
    assert_eq!(responses.len(), 6);
    for r in &responses {
        assert_eq!(r.status, Status::Ok, "{r:?}");
        assert!(r.degraded, "expected degraded fallback: {r:?}");
        assert_eq!(r.reason.as_deref(), Some(reason), "{r:?}");
        // The fallback is the original predicate, verbatim.
        assert_eq!(r.predicate.as_deref(), Some(requests[0].predicate.as_str()));
    }

    // Telemetry lands after each reply is written.
    wait_for("six completions", Duration::from_secs(10), || {
        handle.stats().completed == 6
    });
    let stats = client::stats(&addr)
        .expect("stats over tcp")
        .stats
        .expect("stats payload");
    assert_eq!(
        (stats.workers, stats.completed, stats.degraded),
        (2, 6, 6),
        "{stats:?}"
    );

    // Clearing the failpoint restores real synthesis on the same pool.
    sia_fault::clear();
    let ok = client::request_one(&addr, &synth_req("after")).expect("healed request");
    assert_eq!(ok.status, Status::Ok, "{ok:?}");
    assert!(!ok.degraded, "{ok:?}");
    assert_eq!(ok.predicate.as_deref(), Some("a >= 22"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
#[cfg_attr(miri, ignore)]
fn panicking_requests_degrade_instead_of_dropping() {
    every_popped_job_degrades("panic(injected for test)", "panic");
}

#[test]
#[cfg_attr(miri, ignore)]
fn erroring_requests_degrade_instead_of_dropping() {
    every_popped_job_degrades("error(injected for test)", "internal");
}

#[test]
#[cfg_attr(miri, ignore)]
fn retry_client_rides_out_mixed_faults_without_losing_requests() {
    let _lock = fault_guard();
    let _clear = ClearOnDrop;
    // A hostile mix: 30% of requests panic and 20% of syntheses fail.
    // Every request must still get exactly one answer (ok or degraded —
    // never a dropped connection).
    sia_fault::set_seed(7);
    sia_fault::configure("serve.worker.request", "30%panic(chaos)").unwrap();
    sia_fault::configure("synth.run", "20%error(chaos)").unwrap();
    let handle = server::start(ServeConfig {
        workers: 3,
        cache_capacity: 0,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let requests: Vec<Request> = (0..40).map(|i| synth_req(&format!("c{i}"))).collect();
    let outcome = client::run_batch_retry(&addr, &requests, 4, &RetryPolicy::default());
    assert_eq!(outcome.responses.len(), 40, "one response per request");
    for (i, r) in outcome.responses.iter().enumerate() {
        assert_eq!(r.id, requests[i].id, "responses in request order");
        assert!(
            r.status == Status::Ok || r.status == Status::Timeout,
            "request {i} not answered ok/degraded: {r:?}"
        );
        if r.degraded {
            assert!(r.predicate.is_some(), "degraded without fallback: {r:?}");
        }
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
#[cfg_attr(miri, ignore)]
fn slow_requests_leave_an_exemplar_in_the_slow_log() {
    let _lock = fault_guard();
    let _clear = ClearOnDrop;
    let path = std::env::temp_dir().join(format!("sia-slowlog-{}.jsonl", std::process::id()));
    let path = path.to_str().unwrap().to_string();
    std::fs::remove_file(&path).ok();

    // The first synthesis stalls 300ms inside the `synth` span; with a
    // 100ms threshold that request — and only that request — must leave
    // a full trace exemplar in the slow log.
    sia_fault::configure("synth.run", "1*delay(300)").unwrap();
    let handle = server::start(ServeConfig {
        workers: 1,
        cache_capacity: 0,
        slow_log_file: Some(path.clone()),
        slow_threshold: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let slow = client::request_one(&addr, &synth_req("slow0")).expect("slow request");
    assert_eq!(slow.status, Status::Ok, "{slow:?}");
    assert!(slow.micros >= 100_000, "not slow enough: {slow:?}");

    let fast = client::request_one(&addr, &synth_req("fast0")).expect("fast request");
    assert_eq!(fast.status, Status::Ok, "{fast:?}");
    assert!(fast.micros < 100_000, "fault budget not spent: {fast:?}");

    // One worker: slow0's bookkeeping finished before fast0 was served.
    let stats = handle.stats();
    assert_eq!(stats.slow, 1, "{stats:?}");
    handle.shutdown().expect("clean shutdown");

    // The exemplar is a full response line: it parses back, names the
    // slow request, and its phase breakdown pins the time on synthesis.
    let text = std::fs::read_to_string(&path).expect("slow log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one exemplar: {text:?}");
    let exemplar = sia_serve::Response::parse(lines[0]).expect("exemplar parses");
    assert_eq!(exemplar.id, "slow0", "{exemplar:?}");
    assert!(exemplar.trace.is_some(), "{exemplar:?}");
    assert!(exemplar.micros >= 100_000, "{exemplar:?}");
    assert!(
        exemplar
            .phases
            .iter()
            .any(|(p, us)| p == "synth" && *us >= 250_000),
        "stall not attributed to synth: {:?}",
        exemplar.phases
    );
    std::fs::remove_file(&path).ok();
}

#[test]
#[cfg_attr(miri, ignore)]
fn shed_fallback_answers_when_server_is_unreachable() {
    // No failpoints needed: the address refuses connections, every
    // attempt fails, and the client must shed with degraded fallbacks
    // rather than erroring out.
    let requests: Vec<Request> = (0..3).map(|i| synth_req(&format!("s{i}"))).collect();
    let policy = RetryPolicy {
        attempts: 2,
        ..RetryPolicy::default()
    };
    let outcome = client::run_batch_retry("127.0.0.1:1", &requests, 2, &policy);
    assert_eq!(outcome.responses.len(), 3);
    assert_eq!(outcome.shed, 3);
    for (i, r) in outcome.responses.iter().enumerate() {
        assert!(r.degraded, "{r:?}");
        assert_eq!(r.reason.as_deref(), Some("shed"), "{r:?}");
        assert_eq!(r.predicate.as_deref(), Some(requests[i].predicate.as_str()));
    }
}
