//! End-to-end tests for the synthesis server: concurrent batches, cache
//! hits on repeated shapes, deadline timeouts that do not wedge workers,
//! and graceful shutdown.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sia_serve::{client, server, Request, ServeConfig, Status};

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

/// A predicate hard enough that CEGIS cannot finish within 10 ms: b1's
/// coefficient 2 leaves a divisibility literal in the projection onto a1,
/// so the projection cannot answer it (with `a2 - b1` it could, in µs).
const HARD: &str = "a2 - 2 * b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0 AND a1 + b1 < 30";

#[test]
#[cfg_attr(miri, ignore)]
fn batch_cache_timeout_and_shutdown() {
    let handle = server::start(ServeConfig {
        workers: 2,
        queue_depth: 32,
        cache_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Two repeated predicate shapes: alpha-renamed + reordered variants
    // must land on the same cache entry.
    let requests: Vec<Request> = vec![
        Request {
            id: "q0".into(),
            predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
            cols: strs(&["a"]),
            timeout_ms: None,
            trace: None,
        },
        Request {
            id: "q1".into(),
            predicate: "v + 10 > 20 AND u + 10 > v + 20".into(),
            cols: strs(&["u"]),
            timeout_ms: None,
            trace: None,
        },
        Request {
            id: "q2".into(),
            predicate: "x < 5 AND y > 2".into(),
            cols: strs(&["x"]),
            timeout_ms: None,
            trace: None,
        },
    ];

    // First pass: all ok, nothing cached yet for q0 (q1 may already hit
    // q0's entry depending on worker interleaving, so don't assert on it).
    let first = client::run_batch(&addr, &requests, 2).expect("batch runs");
    assert_eq!(first.len(), 3);
    let by_id: HashMap<String, _> = first.into_iter().map(|r| (r.id.clone(), r)).collect();
    for id in ["q0", "q1", "q2"] {
        assert_eq!(by_id[id].status, Status::Ok, "{id}: {:?}", by_id[id]);
    }
    assert_eq!(
        by_id["q0"].predicate.as_deref(),
        Some("a >= 22"),
        "{:?}",
        by_id["q0"]
    );
    // q1 is q0 alpha-renamed: same result in its own column names.
    assert_eq!(by_id["q1"].predicate.as_deref(), Some("u >= 22"));

    // Second pass: every response must now come from the cache.
    let second = client::run_batch(&addr, &requests, 3).expect("second batch runs");
    for r in &second {
        assert_eq!(r.status, Status::Ok, "{r:?}");
        assert!(r.cached, "expected cache hit: {r:?}");
    }
    let stats = handle.cache().stats();
    assert!(stats.hits >= 3, "cache stats {stats:?}");

    // A 10ms deadline on a hard instance must time out without wedging
    // the worker that ran it.
    let t0 = Instant::now();
    let timed_out = client::request_one(
        &addr,
        &Request {
            id: "hard".into(),
            predicate: HARD.into(),
            cols: strs(&["a1"]),
            timeout_ms: Some(10),
            trace: None,
        },
    )
    .expect("hard request answered");
    assert_eq!(timed_out.status, Status::Timeout, "{timed_out:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout took {:?}",
        t0.elapsed()
    );

    // Both workers still alive: two more requests complete.
    let after = client::run_batch(
        &addr,
        &[
            Request {
                id: "a0".into(),
                predicate: "x < 5 AND y > 2".into(),
                cols: strs(&["x"]),
                timeout_ms: None,
                trace: None,
            },
            Request {
                id: "a1".into(),
                predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
                cols: strs(&["a"]),
                timeout_ms: None,
                trace: None,
            },
        ],
        2,
    )
    .expect("post-timeout batch runs");
    assert!(after.iter().all(|r| r.status == Status::Ok), "{after:?}");

    // Remote shutdown: server acknowledges, then the handle drains.
    let wait = std::thread::spawn(move || handle.wait());
    let bye = client::shutdown(&addr).expect("shutdown acknowledged");
    assert_eq!(bye.status, Status::Bye);
    let last = wait.join().expect("wait thread").expect("clean drain");
    let stats = last.stats.expect("final stats");
    assert_eq!(
        (stats.requests, stats.completed, stats.timeouts),
        (9, 9, 1),
        "{stats:?}"
    );
}

#[test]
#[cfg_attr(miri, ignore)]
fn admission_control_rejects_when_queue_is_full() {
    // One worker, queue of 1: a burst must produce `overloaded` answers.
    let handle = server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let burst: Vec<Request> = (0..8)
        .map(|i| Request {
            id: format!("b{i}"),
            predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
            cols: strs(&["a"]),
            timeout_ms: None,
            trace: None,
        })
        .collect();
    let responses = client::run_batch(&addr, &burst, 1).expect("burst answered");
    assert_eq!(responses.len(), 8);
    let overloaded = responses
        .iter()
        .filter(|r| r.status == Status::Overloaded)
        .count();
    let ok = responses.iter().filter(|r| r.status == Status::Ok).count();
    assert!(overloaded > 0, "no overloaded responses: {responses:?}");
    assert!(ok > 0, "no successful responses: {responses:?}");
    assert_eq!(overloaded + ok, 8, "unexpected statuses: {responses:?}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
#[cfg_attr(miri, ignore)]
fn malformed_lines_get_error_responses() {
    let handle = server::start(ServeConfig::default()).expect("server starts");
    let addr = handle.addr().to_string();

    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    writeln!(stream, "this is not json").unwrap();
    writeln!(
        stream,
        "{{\"id\":\"x\",\"predicate\":\"a <\",\"cols\":\"a\"}}"
    )
    .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let bad_json = sia_serve::Response::parse(line.trim()).unwrap();
    assert_eq!(bad_json.status, Status::Error);
    line.clear();
    reader.read_line(&mut line).unwrap();
    let bad_pred = sia_serve::Response::parse(line.trim()).unwrap();
    assert_eq!(bad_pred.status, Status::Error);
    assert_eq!(bad_pred.id, "x");
    assert!(bad_pred.error.is_some());
    drop(reader);
    handle.shutdown().expect("clean shutdown");
}

#[test]
#[cfg_attr(miri, ignore)]
fn contradictory_predicate_carries_warnings() {
    let handle = server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let req = Request {
        id: "w0".into(),
        predicate: "x < 0 AND x > 10".into(),
        cols: strs(&["x"]),
        timeout_ms: None,
        trace: None,
    };
    let fresh = client::request_one(&addr, &req).expect("fresh run");
    assert_eq!(fresh.status, Status::Ok, "{fresh:?}");
    assert!(
        fresh.warnings.iter().any(|w| w.contains("contradiction")),
        "expected a contradiction warning: {fresh:?}"
    );
    // Warnings describe the *request*, so a cache hit re-lints and still
    // carries them.
    let cached = client::request_one(&addr, &req).expect("cached run");
    assert!(cached.cached, "{cached:?}");
    assert!(
        cached.warnings.iter().any(|w| w.contains("contradiction")),
        "expected a contradiction warning on the cache hit: {cached:?}"
    );

    // A clean predicate stays warning-free.
    let clean = client::request_one(
        &addr,
        &Request {
            id: "w1".into(),
            predicate: "x < 5 AND y > 2".into(),
            cols: strs(&["x"]),
            timeout_ms: None,
            trace: None,
        },
    )
    .expect("clean run");
    assert_eq!(clean.status, Status::Ok, "{clean:?}");
    assert!(clean.warnings.is_empty(), "{clean:?}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
#[cfg_attr(miri, ignore)]
fn cache_persists_across_restarts() {
    let dir = std::env::temp_dir().join(format!("sia-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.jsonl");
    let path = path.to_str().unwrap().to_string();

    let config = ServeConfig {
        workers: 1,
        cache_file: Some(path.clone()),
        ..ServeConfig::default()
    };
    let reqs = [
        ("p0", "a + 10 > b + 20 AND b + 10 > 20", "a", "a >= 22"),
        ("p1", "x + 5 > y + 10 AND y + 5 > 10", "x", "x >= 12"),
    ]
    .map(|(id, predicate, col, learned)| {
        let req = Request {
            id: id.into(),
            predicate: predicate.into(),
            cols: strs(&[col]),
            timeout_ms: None,
            trace: None,
        };
        (req, learned)
    });

    let handle = server::start(config.clone()).expect("first server");
    let addr = handle.addr().to_string();
    for (req, _) in &reqs {
        let cold = client::request_one(&addr, req).expect("first run");
        assert_eq!(cold.status, Status::Ok);
        assert!(!cold.cached);
    }
    handle.shutdown().expect("persists cache");

    let handle = server::start(config.clone()).expect("second server");
    let addr = handle.addr().to_string();
    for (req, learned) in &reqs {
        let warm = client::request_one(&addr, req).expect("warm run");
        assert_eq!(warm.status, Status::Ok, "{warm:?}");
        assert!(warm.cached, "expected warm-start hit: {warm:?}");
        assert_eq!(warm.predicate.as_deref(), Some(*learned));
    }
    handle.shutdown().expect("clean shutdown");

    // A crash mid-append: rip through the final record's JSON. The CRC
    // scan must drop exactly the damaged tail and keep the rest, and a
    // server restarted on the torn file must still serve warm hits.
    let bytes = std::fs::read(&path).expect("read snapshot");
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);
    std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("tear snapshot");
    let report = sia_cache::PredicateCache::new(16)
        .load_file(&path)
        .expect("torn snapshot loads");
    assert_eq!((report.recovered, report.dropped), (1, 1), "{report:?}");

    let handle = server::start(config).expect("server restarts on torn snapshot");
    let addr = handle.addr().to_string();
    let hits = reqs
        .iter()
        .filter(|(req, learned)| {
            let resp = client::request_one(&addr, req).expect("run after recovery");
            assert_eq!(resp.status, Status::Ok, "{resp:?}");
            assert_eq!(resp.predicate.as_deref(), Some(*learned));
            resp.cached
        })
        .count();
    assert_eq!(
        hits, 1,
        "the intact record hits, the torn one re-synthesizes"
    );
    handle.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(miri, ignore)]
fn seeded_lint_schemas_type_responses() {
    use sia_expr::{ColumnDef, DataType, Schema};

    // Seed the server with a synthetic schema: two DATE columns. The
    // worker-side linter must know their types without any TPC-H naming.
    let handle = server::start(ServeConfig {
        workers: 1,
        lint_schemas: vec![Schema::new(vec![
            ColumnDef::new("w_t0", DataType::Date),
            ColumnDef::new("w_t1", DataType::Date),
            ColumnDef::new("w_i0", DataType::Integer),
        ])],
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // A date compared against a bare integer literal is type-suspect…
    let suspect = client::request_one(
        &addr,
        &Request {
            id: "s0".into(),
            predicate: "w_t0 < 19940101".into(),
            cols: strs(&["w_t0"]),
            timeout_ms: None,
            trace: None,
        },
    )
    .expect("suspect run");
    assert_eq!(suspect.status, Status::Ok, "{suspect:?}");
    assert!(
        suspect.warnings.iter().any(|w| w.contains("type-suspect")),
        "expected a type-suspect warning: {suspect:?}"
    );

    // …but a date *difference* is an interval, so comparing it with an
    // integer is legitimate and must stay clean.
    let interval = client::request_one(
        &addr,
        &Request {
            id: "s1".into(),
            predicate: "w_t0 - w_t1 < 30 AND w_i0 > 2".into(),
            cols: strs(&["w_i0"]),
            timeout_ms: None,
            trace: None,
        },
    )
    .expect("interval run");
    assert_eq!(interval.status, Status::Ok, "{interval:?}");
    assert!(
        !interval.warnings.iter().any(|w| w.contains("type-suspect")),
        "date difference is an interval, not type-suspect: {interval:?}"
    );
    handle.shutdown().expect("clean shutdown");
}

/// A cache hit whose entry linted clean under the same column types is
/// not linted again; one whose column types differ is.
#[test]
#[cfg_attr(miri, ignore)]
fn a_clean_hit_is_not_linted_again_unless_its_column_types_differ() {
    use sia_expr::{ColumnDef, DataType, Schema};

    let handle = server::start(ServeConfig {
        workers: 1,
        lint_schemas: vec![Schema::new(vec![
            ColumnDef::new("w_d0", DataType::Date),
            ColumnDef::new("w_i1", DataType::Integer),
        ])],
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    let ask = |id: &str, predicate: &str, col: &str| {
        let r = client::request_one(
            &addr,
            &Request {
                id: id.into(),
                predicate: predicate.into(),
                cols: strs(&[col]),
                timeout_ms: None,
                trace: None,
            },
        )
        .expect("answered");
        assert_eq!(r.status, Status::Ok, "{r:?}");
        r
    };
    let linted = |r: &sia_serve::Response| r.phases.iter().any(|(p, _)| p.ends_with("lint"));

    // Untyped columns: the miss lints clean and is cached.
    let first = ask("u", "u0 < 19940101 AND u1 > 2", "u0");
    assert!(
        !first.cached && first.warnings.is_empty() && linted(&first),
        "{first:?}"
    );
    // An alpha-renamed hit of it returns no warnings without linting.
    let renamed = ask("v", "v1 > 2 AND v0 < 19940101", "v0");
    assert!(renamed.cached, "{renamed:?}");
    assert!(renamed.warnings.is_empty(), "{renamed:?}");
    assert!(!linted(&renamed), "{renamed:?}");
    // The same entry over a DATE column lints again, and warns.
    let typed = ask("w", "w_d0 < 19940101 AND w_i1 > 2", "w_d0");
    assert!(typed.cached && linted(&typed), "{typed:?}");
    assert!(
        typed.warnings.iter().any(|w| w.contains("type-suspect")),
        "{typed:?}"
    );
    // The untyped shape still hits without linting: a verdict with
    // warnings is not recorded over the clean one.
    let again = ask("x", "x0 < 19940101 AND x1 > 2", "x0");
    assert!(
        again.cached && again.warnings.is_empty() && !linted(&again),
        "{again:?}"
    );
    handle.shutdown().expect("clean shutdown");
}
