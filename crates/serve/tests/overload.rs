//! Overload-resilience tests: deadline expiry in the queue, two-lane
//! shedding of expensive work under pressure, and the AIMD admission
//! controller tightening its limit when queue delay blows the budget.
//!
//! Each test holds the single worker with an injected `synth.run` stall
//! rather than by counting on CEGIS being slow (in a release build it
//! finishes before the victims are queued). Failpoints are process-global,
//! so the tests serialize on [`FAULT_LOCK`] and clear the registry when
//! done.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sia_serve::{client, server, Request, ServeConfig, Status};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serialize the test, start it from a clean registry, and stall the first
/// synthesis — the occupier's — for `millis`. The registry is cleared
/// again when the returned guard drops, panicking exits included.
fn hold_worker(millis: u64) -> (MutexGuard<'static, ()>, ClearOnDrop) {
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    sia_fault::clear();
    sia_fault::configure("synth.run", &format!("1*delay({millis})")).expect("policy parses");
    (guard, ClearOnDrop)
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

/// A predicate multi-variable enough that static derivation cannot
/// discharge it exactly, so the reader classifies it into the expensive
/// lane and its synthesis reaches the stalled `synth.run`.
const HARD: &str = "a2 - 2 * b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0 AND a1 + b1 < 30";

/// A predicate the analyzer derives exactly: cheap lane, instant answer.
const CHEAP: &str = "x < 5 AND y > 2";

fn request(id: &str, predicate: &str, cols: &[&str], timeout_ms: Option<u64>) -> Request {
    Request {
        id: id.into(),
        predicate: predicate.into(),
        cols: strs(cols),
        timeout_ms,
        trace: None,
    }
}

/// Deadline propagation: a request whose deadline passes while it waits
/// in the queue is answered `expired` at dequeue — the queue wait shows
/// up in its phase breakdown and no synthesis ever runs for it.
#[test]
#[cfg_attr(miri, ignore)]
fn queued_request_past_its_deadline_expires_without_running() {
    let _hold = hold_worker(2000);
    let handle = server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Occupy the only worker for ~2 s.
    let occupier = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            client::request_one(&addr, &request("occ", HARD, &["a1"], Some(2000)))
        })
    };
    std::thread::sleep(Duration::from_millis(200));

    // The victim's 100 ms deadline expires long before the worker frees
    // up; it must be answered without running.
    let victim = client::request_one(&addr, &request("victim", CHEAP, &["x"], Some(100)))
        .expect("victim answered");
    assert_eq!(victim.status, Status::Expired, "{victim:?}");
    assert!(victim.degraded, "{victim:?}");
    assert_eq!(victim.reason.as_deref(), Some("expired"), "{victim:?}");
    let queue_us = victim
        .phases
        .iter()
        .find(|(p, _)| p == "queue")
        .map(|(_, us)| *us)
        .expect("queue wait attributed in phases");
    assert!(queue_us > 0, "{victim:?}");
    assert!(
        !victim.phases.iter().any(|(p, _)| p.contains("synth")),
        "expired request must not reach synthesis: {victim:?}"
    );

    // The occupier's own outcome (Ok or Timeout, depending on how fast
    // CEGIS converges) is not what this test is about.
    occupier.join().expect("occupier thread").expect("answered");

    // Telemetry is recorded after the response is written; give the
    // worker a beat to finish its bookkeeping.
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.stats();
    assert!(stats.expired >= 1, "{stats:?}");
    handle.shutdown().expect("clean shutdown");
}

/// Two-lane scheduling: once the oldest queued expensive job has waited
/// past the delay budget, a new expensive request is shed with a
/// `retry_after_ms` hint — while cheap requests keep being admitted and
/// answered non-degraded.
#[test]
#[cfg_attr(miri, ignore)]
fn expensive_lane_sheds_under_pressure_while_cheap_flows() {
    let _hold = hold_worker(1500);
    let handle = server::start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        // The held worker keeps the expensive lane waiting ~1.3 s, far
        // past this budget. No job dequeues before the shed, so the AIMD
        // limit stays at 4 and only the lane's age is in play.
        admission_delay_budget: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Occupy the only worker.
    let occupier = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            client::request_one(&addr, &request("occ", HARD, &["a1"], Some(1500)))
        })
    };
    std::thread::sleep(Duration::from_millis(200));

    // Two expensive requests arrive together into an empty lane and are
    // admitted; their tiny deadlines expire while the occupier holds the
    // worker.
    let expensive: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let id = format!("e{i}");
            std::thread::spawn(move || {
                client::request_one(&addr, &request(&id, HARD, &["a1"], Some(30)))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // Both are parked behind the occupier, and the handle reports the
    // queue depth the `stats` op reports over the wire.
    assert_eq!(handle.stats().queue, 2);
    let wire = client::stats(&addr).expect("stats over tcp");
    assert_eq!(wire.stats.expect("stats payload").queue, 2);

    // The lane's head has now waited ~200 ms, past the 100 ms budget:
    // the third expensive request is shed, with a back-pressure hint,
    // instead of joining a doomed queue.
    let shed =
        client::request_one(&addr, &request("e2", HARD, &["a1"], Some(30))).expect("shed answered");
    assert_eq!(shed.status, Status::Overloaded, "{shed:?}");
    assert!(shed.retry_after_ms.is_some(), "{shed:?}");

    // Cheap requests still flow: admitted past the shed, answered Ok
    // from the preferred lane once the worker frees up.
    let cheap: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let id = format!("c{i}");
            std::thread::spawn(move || {
                client::request_one(&addr, &request(&id, CHEAP, &["x"], Some(30_000)))
            })
        })
        .collect();

    for h in cheap {
        let r = h.join().expect("cheap thread").expect("cheap answered");
        assert_eq!(r.status, Status::Ok, "{r:?}");
        assert!(!r.degraded, "{r:?}");
    }
    for h in expensive {
        let r = h.join().expect("expensive thread").expect("answered");
        assert_eq!(r.status, Status::Expired, "{r:?}");
    }
    occupier.join().expect("occupier thread").expect("answered");

    // Telemetry is recorded after the response is written; give the
    // worker a beat to finish its bookkeeping.
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.stats();
    assert!(stats.shed >= 1, "{stats:?}");
    assert!(stats.expired >= 2, "{stats:?}");
    handle.shutdown().expect("clean shutdown");
}

/// Adaptive admission: queue waits far beyond the delay budget make the
/// AIMD controller cut the admission limit multiplicatively, visible in
/// `stats` — and additive recovery keeps it below the configured depth
/// for a while after.
#[test]
#[cfg_attr(miri, ignore)]
fn adaptive_admission_tightens_the_limit_under_queue_delay() {
    let _hold = hold_worker(1000);
    let handle = server::start(ServeConfig {
        workers: 1,
        queue_depth: 64,
        admission_delay_budget: Some(Duration::from_millis(1)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let occupier = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            client::request_one(&addr, &request("occ", HARD, &["a1"], Some(1000)))
        })
    };
    std::thread::sleep(Duration::from_millis(150));

    // Victims pile up behind the occupier; their ~850 ms queue waits
    // land in the controller's window when they finally dequeue.
    let victims: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let id = format!("v{i}");
            std::thread::spawn(move || {
                client::request_one(&addr, &request(&id, CHEAP, &["x"], Some(50)))
            })
        })
        .collect();
    for h in victims {
        let r = h.join().expect("victim thread").expect("victim answered");
        assert_eq!(r.status, Status::Expired, "{r:?}");
    }
    occupier.join().expect("occupier thread").expect("answered");

    // Give the 100 ms control loop a couple of ticks to ingest the
    // window; additive (+1 per tick) recovery cannot regain a halving
    // from 64 in that time.
    std::thread::sleep(Duration::from_millis(300));
    let stats = handle.stats();
    assert!(
        stats.admission_limit < 64,
        "limit should have been cut: {stats:?}"
    );
    assert!(stats.expired >= 1, "{stats:?}");
    handle.shutdown().expect("clean shutdown");
}
