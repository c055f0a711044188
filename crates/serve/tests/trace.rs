//! End-to-end trace tests: one trace ID links the client-side span, the
//! reader-side `serve.request` root, and the worker-side phase spans
//! into a single parentage chain, and the response's phase breakdown
//! accounts for (nearly) all of its reported wall time.
//!
//! The collector is process-global, so the tests here serialize on one
//! lock and reset collector state on entry.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sia_obs::{JsonValue, JsonlSink};
use sia_serve::{client, server, Request, ServeConfig, Status};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A buffer a [`JsonlSink`] writes into while the test keeps a handle
/// to read the lines back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn obs_guard() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    drop(sia_obs::take_sink());
    sia_obs::reset();
    guard
}

fn field<'a>(event: &'a [(String, JsonValue)], name: &str) -> Option<&'a JsonValue> {
    event.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

fn synth_req(id: &str, trace: Option<u64>) -> Request {
    Request {
        id: id.to_string(),
        predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
        cols: strs(&["a"]),
        timeout_ms: None,
        trace,
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn traced_request_links_client_queue_and_worker_spans() {
    let _guard = obs_guard();
    sia_obs::enable();
    let buf = SharedBuf::default();
    sia_obs::set_sink(Box::new(JsonlSink::new(buf.clone())));

    let handle = server::start(ServeConfig {
        workers: 1,
        cache_capacity: 0, // force real synthesis so the synth spans exist
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    const TRACE: u64 = 0x0051_A7EA_CE01;
    // The doubled `a` keeps the atom outside the zone fragment, and b's
    // coefficient 3 leaves a divisibility literal in its projection, so
    // CEGIS runs: a statically answered or projected request finishes in
    // under a millisecond, of which the ~55 µs outside any phase is more
    // than 5 %.
    let req = Request {
        predicate: "2 * a <= 3 * b AND b <= 10 AND b >= 0".into(),
        ..synth_req("t0", Some(TRACE))
    };
    let resp = client::request_one(&addr, &req).expect("traced request");
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    assert_eq!(resp.trace, Some(TRACE), "trace id echoed back: {resp:?}");
    assert!(resp.micros > 0, "{resp:?}");

    // The phase breakdown decomposes the reported wall time: top-level
    // phases (queue wait included) must cover at least 95% of `micros`.
    let covered: u64 = resp
        .phases
        .iter()
        .filter(|(path, _)| !path.contains('/'))
        .map(|(_, us)| *us)
        .sum();
    assert!(
        covered.saturating_mul(100) >= resp.micros.saturating_mul(95),
        "phases cover {covered}µs of {}µs: {:?}",
        resp.micros,
        resp.phases
    );
    for phase in ["queue", "synth"] {
        assert!(
            resp.phases.iter().any(|(p, _)| p == phase),
            "missing phase {phase}: {:?}",
            resp.phases
        );
    }

    handle.shutdown().expect("clean shutdown");
    drop(sia_obs::take_sink());
    sia_obs::disable();

    // The JSONL stream links the client span, the server root (begun on
    // the reader thread), and the worker-side spans under one trace ID.
    let bytes = buf.0.lock().unwrap();
    let events: Vec<Vec<(String, JsonValue)>> = std::str::from_utf8(&bytes)
        .expect("utf-8 JSONL")
        .lines()
        .map(|line| sia_obs::parse_object(line).expect("well-formed JSONL"))
        .collect();
    let traced_paths = |kind: &str| -> Vec<&str> {
        events
            .iter()
            .filter(|e| {
                field(e, "type").and_then(JsonValue::as_str) == Some(kind)
                    && field(e, "trace").and_then(JsonValue::as_num) == Some(TRACE as f64)
            })
            .filter_map(|e| field(e, "path")?.as_str())
            .collect()
    };
    let enters = traced_paths("span_enter");
    let exits = traced_paths("span_exit");
    for root in ["client.request", "serve.request"] {
        assert!(enters.contains(&root), "missing root {root}: {enters:?}");
    }
    for child in ["serve.request/queue", "serve.request/synth"] {
        assert!(enters.contains(&child), "missing child {child}: {enters:?}");
    }
    // Parentage chain: every traced span either is a root or nests under
    // a span that was itself entered with the same trace ID.
    for path in &enters {
        if let Some((parent, _)) = path.rsplit_once('/') {
            assert!(
                enters.contains(&parent),
                "span {path} has no traced parent {parent}: {enters:?}"
            );
        }
    }
    // Balanced stream: every traced enter has a matching traced exit.
    for path in &enters {
        assert!(exits.contains(path), "unclosed traced span {path}");
    }
    assert_eq!(enters.len(), exits.len(), "{enters:?} vs {exits:?}");
}

#[test]
#[cfg_attr(miri, ignore)]
fn requests_without_a_trace_id_get_one_assigned_at_the_client() {
    let _guard = obs_guard();
    sia_obs::disable();
    let handle = server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let resp = client::request_one(&addr, &synth_req("fresh", None)).expect("request");
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    let assigned = resp.trace.expect("client assigned a trace id");
    assert_ne!(assigned, 0);

    // Distinct requests get distinct IDs.
    let other = client::request_one(&addr, &synth_req("fresh2", None)).expect("request");
    assert_ne!(other.trace, resp.trace, "{other:?} vs {resp:?}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
#[cfg_attr(miri, ignore)]
fn stats_op_reports_live_telemetry_without_queueing() {
    // Telemetry must work with the global collector disabled (the
    // production default): the per-request recorder is independent.
    let _guard = obs_guard();
    sia_obs::disable();
    let handle = server::start(ServeConfig {
        workers: 2,
        queue_depth: 32,
        cache_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Two identical shapes: the repeat is a cache hit.
    for id in ["s0", "s1", "s2", "s3"] {
        let r = client::request_one(&addr, &synth_req(id, None)).expect("request");
        assert_eq!(r.status, Status::Ok, "{r:?}");
    }

    // Telemetry is finalized after the response is written, so poll
    // until the last completion lands.
    let t0 = Instant::now();
    let stats = loop {
        let resp = client::stats(&addr).expect("stats over tcp");
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
        let stats = resp.stats.expect("stats payload");
        if stats.completed == 4 {
            // Phase totals ride along on the stats answer.
            for phase in ["queue", "synth", "respond"] {
                assert!(
                    resp.phases.iter().any(|(p, _)| p == phase),
                    "missing phase total {phase}: {:?}",
                    resp.phases
                );
            }
            // So do the worker count and the queue depth.
            assert_eq!((stats.workers, stats.queue), (2, 0), "{stats:?}");
            break stats;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "completions never reached 4: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    assert_eq!(stats.requests, 4, "{stats:?}");
    assert_eq!(
        stats.timeouts + stats.errors + stats.rejected,
        0,
        "{stats:?}"
    );
    assert!(stats.cache_hits >= 3, "{stats:?}");
    assert!(stats.total_us > 0, "{stats:?}");
    assert!(stats.p50_us > 0, "{stats:?}");
    assert!(stats.p90_us >= stats.p50_us, "{stats:?}");
    assert!(stats.p99_us >= stats.p90_us, "{stats:?}");
    assert!(stats.p999_us >= stats.p99_us, "{stats:?}");
    assert!(stats.hit_rate() > 0.0, "{stats:?}");

    // The in-process view agrees with the wire view.
    let local = handle.stats();
    assert_eq!(local.requests, 4, "{local:?}");
    assert_eq!(local.completed, 4, "{local:?}");
    let totals = handle.phase_totals();
    assert!(
        totals.iter().any(|(p, us)| p == "synth" && *us > 0),
        "{totals:?}"
    );
    handle.shutdown().expect("clean shutdown");
}
