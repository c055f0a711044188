//! Integration tests for the global collector: span nesting under
//! panics, concurrent counter increments, and JSONL sink round-trips.
//!
//! The collector is process-global, so every test here serializes on one
//! lock and resets state up front.

use sia_obs::{Counter, Event, Hist, JsonValue, JsonlSink};
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

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

type Fields = Vec<(String, JsonValue)>;

impl SharedBuf {
    /// Every event written so far, each line parsed.
    fn events(&self) -> Vec<Fields> {
        let bytes = self.0.lock().unwrap();
        let text = std::str::from_utf8(&bytes).expect("utf-8 JSONL");
        text.lines()
            .map(|line| sia_obs::parse_object(line).expect("well-formed JSONL"))
            .collect()
    }
}

fn field<'a>(event: &'a Fields, name: &str) -> Option<&'a JsonValue> {
    event.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn text_of<'a>(event: &'a Fields, name: &str) -> Option<&'a str> {
    field(event, name).and_then(JsonValue::as_str)
}

fn isolated() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    drop(sia_obs::take_sink());
    sia_obs::reset();
    sia_obs::enable();
    guard
}

#[test]
fn spans_nest_and_attribute_child_time() {
    let _guard = isolated();
    {
        let _outer = sia_obs::span("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = sia_obs::span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let snap = sia_obs::snapshot();
    let outer = snap.span("outer").expect("outer recorded");
    let inner = snap.span("outer/inner").expect("inner nested under outer");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 1);
    assert!(outer.total >= inner.total);
    assert!(outer.child >= inner.total);
    assert!(outer.self_time() <= outer.total);
    let cov = snap.coverage("outer").expect("outer has duration");
    assert!(cov > 0.0 && cov <= 1.0 + f64::EPSILON, "{cov}");
    sia_obs::disable();
}

#[test]
fn panicking_span_still_closes() {
    let _guard = isolated();
    let result = std::panic::catch_unwind(|| {
        let _outer = sia_obs::span("proof");
        let _inner = sia_obs::span("step");
        panic!("solver exploded");
    });
    assert!(result.is_err());
    let snap = sia_obs::snapshot();
    // Both guards dropped during unwinding: the stack is balanced and
    // both paths were recorded exactly once, correctly nested.
    assert_eq!(snap.span("proof").map(|s| s.count), Some(1));
    assert_eq!(snap.span("proof/step").map(|s| s.count), Some(1));
    // A fresh span after the panic lands at the root, not under a
    // leaked frame.
    {
        let _after = sia_obs::span("after");
    }
    let snap = sia_obs::snapshot();
    assert!(snap.span("after").is_some(), "stack leaked a frame");
    sia_obs::disable();
}

#[test]
fn concurrent_counter_increments_all_land() {
    let _guard = isolated();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    sia_obs::add(Counter::SatPropagations, 1);
                }
                sia_obs::add(Counter::SmtChecks, 1);
            });
        }
    });
    let snap = sia_obs::snapshot();
    assert_eq!(snap.counter(Counter::SatPropagations), THREADS * PER_THREAD);
    assert_eq!(snap.counter(Counter::SmtChecks), THREADS);
    sia_obs::disable();
}

#[test]
fn jsonl_sink_sees_the_event_stream() {
    let _guard = isolated();
    let buf = SharedBuf::default();
    sia_obs::set_sink(Box::new(JsonlSink::new(buf.clone())));
    {
        let _s = sia_obs::span("root");
        sia_obs::add(Counter::QeEliminations, 3);
        sia_obs::record(Hist::QeBlowup, 1.5);
    }
    drop(sia_obs::take_sink());
    let events = buf.events();
    let seen = |kind: &str, name_field: &str, name: &str| {
        events
            .iter()
            .any(|e| text_of(e, "type") == Some(kind) && text_of(e, name_field) == Some(name))
    };
    assert!(seen("span_enter", "path", "root"));
    assert!(seen("span_exit", "path", "root"));
    assert!(events.iter().any(|e| {
        text_of(e, "type") == Some("counter")
            && text_of(e, "key") == Some(Counter::QeEliminations.name())
            && field(e, "add").and_then(JsonValue::as_num) == Some(3.0)
    }));
    assert!(seen("hist", "key", Hist::QeBlowup.name()));
    sia_obs::disable();
}

#[test]
fn a_batched_flush_counts_and_emits_each_nonzero_counter() {
    let _guard = isolated();
    let buf = SharedBuf::default();
    sia_obs::set_sink(Box::new(JsonlSink::new(buf.clone())));
    sia_obs::add_all(&[
        (Counter::SmtChecks, 1),
        (Counter::SatConflicts, 0),
        (Counter::SimplexPivots, 7),
    ]);
    drop(sia_obs::take_sink());
    let snap = sia_obs::snapshot();
    assert_eq!(snap.counter(Counter::SmtChecks), 1);
    assert_eq!(snap.counter(Counter::SimplexPivots), 7);
    let events = buf.events();
    let keys: Vec<&str> = events
        .iter()
        .filter(|e| text_of(e, "type") == Some("counter"))
        .filter_map(|e| text_of(e, "key"))
        .collect();
    assert_eq!(
        keys,
        [Counter::SmtChecks.name(), Counter::SimplexPivots.name()]
    );
    sia_obs::disable();
}

/// A counter or histogram event inside a span carries the thread's last
/// span boundary as its timestamp: it lies between the span's enter and
/// exit, and, with a sleep between the two boundaries, no clock read made
/// it. Outside any span the event reads the clock.
#[test]
fn events_inside_a_span_carry_its_last_boundary() {
    let _guard = isolated();
    let buf = SharedBuf::default();
    sia_obs::set_sink(Box::new(JsonlSink::new(buf.clone())));
    std::thread::sleep(std::time::Duration::from_millis(2));
    {
        let _s = sia_obs::span("bounded");
        std::thread::sleep(std::time::Duration::from_millis(5));
        sia_obs::add(Counter::QeEliminations, 1);
        sia_obs::record(Hist::QeBlowup, 2.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    std::thread::sleep(std::time::Duration::from_millis(5));
    sia_obs::add(Counter::SmtChecks, 1);
    drop(sia_obs::take_sink());
    sia_obs::disable();
    let events = buf.events();
    let t_of = |kind: &str, name_field: &str, name: &str| {
        let e = events
            .iter()
            .find(|e| text_of(e, "type") == Some(kind) && text_of(e, name_field) == Some(name))
            .unwrap_or_else(|| panic!("no {kind} {name}"));
        field(e, "t_us").and_then(JsonValue::as_num).expect("t_us")
    };
    let enter = t_of("span_enter", "path", "bounded");
    let exit = t_of("span_exit", "path", "bounded");
    let counter = t_of("counter", "key", Counter::QeEliminations.name());
    let hist = t_of("hist", "key", Hist::QeBlowup.name());
    assert!(
        enter <= counter && counter <= exit,
        "{enter} {counter} {exit}"
    );
    assert_eq!((counter, hist), (enter, enter));
    let after = t_of("counter", "key", Counter::SmtChecks.name());
    assert!(after >= exit + 5_000.0, "{exit} {after}");
}

#[test]
fn jsonl_round_trips_through_hand_parser() {
    let _guard = isolated();
    // Drive the real sink pipeline into an in-memory JSONL buffer via a
    // tiny adapter, then re-parse every line with the serde-free parser.
    struct VecSink(Vec<String>);
    impl sia_obs::Sink for VecSink {
        fn event(&mut self, e: &Event<'_>) {
            self.0.push(e.to_jsonl());
        }
    }
    let events = vec![
        Event::SpanEnter {
            path: "synth/generate",
            trace: 0,
            t_us: 10,
        },
        Event::SpanExit {
            path: "synth/generate",
            trace: 7_777,
            t_us: 260,
            dur_us: 250,
        },
        Event::Counter {
            key: Counter::SatDecisions,
            add: 42,
            t_us: 270,
        },
        Event::Hist {
            key: Hist::SvmMargin,
            value: 0.125,
            t_us: 280,
        },
    ];
    let mut sink = VecSink(Vec::new());
    for e in &events {
        sia_obs::Sink::event(&mut sink, e);
    }
    assert_eq!(sink.0.len(), events.len());
    for (line, original) in sink.0.iter().zip(&events) {
        let fields = sia_obs::parse_object(line).expect("well-formed JSONL");
        let get = |name: &str| -> &JsonValue {
            &fields
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("field {name} in {line}"))
                .1
        };
        match original {
            Event::SpanEnter { path, t_us, .. } => {
                assert_eq!(get("type").as_str(), Some("span_enter"));
                assert_eq!(get("path").as_str(), Some(*path));
                assert_eq!(get("t_us").as_num(), Some(*t_us as f64));
                // Untraced events omit the trace field entirely.
                assert!(!fields.iter().any(|(k, _)| k == "trace"), "{line}");
            }
            Event::SpanExit {
                path,
                trace,
                dur_us,
                ..
            } => {
                assert_eq!(get("type").as_str(), Some("span_exit"));
                assert_eq!(get("path").as_str(), Some(*path));
                assert_eq!(get("dur_us").as_num(), Some(*dur_us as f64));
                assert_eq!(get("trace").as_num(), Some(*trace as f64));
            }
            Event::Counter { key, add, .. } => {
                assert_eq!(get("type").as_str(), Some("counter"));
                assert_eq!(get("key").as_str(), Some(key.name()));
                assert_eq!(get("add").as_num(), Some(*add as f64));
            }
            Event::Hist { key, value, .. } => {
                assert_eq!(get("type").as_str(), Some("hist"));
                assert_eq!(get("key").as_str(), Some(key.name()));
                assert_eq!(get("value").as_num(), Some(*value));
            }
        }
    }
    sia_obs::disable();
}

#[test]
fn span_context_adoption_links_threads_under_one_trace() {
    let _guard = isolated();
    let buf = SharedBuf::default();
    sia_obs::set_sink(Box::new(JsonlSink::new(buf.clone())));
    const TRACE: u64 = 42;

    // Reader thread opens the root; a different (worker) thread adopts
    // it, so its spans must nest under the root path and carry the
    // trace ID — the cross-thread parentage the thread-local stack
    // alone cannot provide.
    let ctx = sia_obs::SpanContext::begin("serve.request", TRACE);
    std::thread::spawn(move || {
        let _adopt = ctx.adopt();
        assert_eq!(sia_obs::current_trace(), TRACE);
        sia_obs::record_complete("queue", std::time::Duration::from_micros(150));
        {
            let _work = sia_obs::span("work");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(_adopt);
        assert_eq!(sia_obs::current_trace(), 0, "trace restored on detach");
        ctx.finish()
    })
    .join()
    .expect("worker thread");

    let snap = sia_obs::snapshot();
    let root = snap.span("serve.request").expect("root span recorded once");
    assert_eq!(root.count, 1);
    let work = snap.span("serve.request/work").expect("nested under root");
    assert!(root.child >= work.total, "adoption credits child time back");
    assert!(
        snap.span("serve.request/queue").is_some(),
        "queue attributed"
    );

    drop(sia_obs::take_sink());
    let events = buf.events();
    // An untraced event has no `trace` field: trace 0.
    let span_trace = |path: &str, enter: bool| {
        let kind = if enter { "span_enter" } else { "span_exit" };
        events
            .iter()
            .find(|e| text_of(e, "type") == Some(kind) && text_of(e, "path") == Some(path))
            .map(|e| field(e, "trace").and_then(JsonValue::as_num).unwrap_or(0.0) as u64)
    };
    // Client/root, queue, and worker spans all share the one trace ID.
    assert_eq!(span_trace("serve.request", true), Some(TRACE));
    assert_eq!(span_trace("serve.request", false), Some(TRACE));
    assert_eq!(span_trace("serve.request/queue", true), Some(TRACE));
    assert_eq!(span_trace("serve.request/work", true), Some(TRACE));
    assert_eq!(span_trace("serve.request/work", false), Some(TRACE));
    sia_obs::disable();
}

#[test]
fn local_recorder_breaks_down_phases_without_global_collector() {
    let _guard = isolated();
    sia_obs::disable(); // request-local recording must not need the collector
    sia_obs::local_begin();
    {
        let _root = sia_obs::span("req");
        sia_obs::record_complete("queue", std::time::Duration::from_micros(500));
        let _phase = sia_obs::span("synth");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let phases = sia_obs::local_take();
    let get = |p: &str| phases.iter().find(|(k, _)| k == p).map(|&(_, us)| us);
    assert_eq!(get("req/queue"), Some(500));
    assert!(get("req/synth").is_some_and(|us| us >= 1_000), "{phases:?}");
    assert!(get("req").is_some(), "{phases:?}");
    // Nothing leaked into the global collector, and the recorder is off.
    assert!(sia_obs::snapshot().spans.is_empty());
    assert!(sia_obs::local_take().is_empty());
}

#[test]
fn local_sums_keep_sub_microsecond_closes() {
    let _guard = isolated();
    sia_obs::disable();
    sia_obs::local_begin();
    {
        let _root = sia_obs::span("req");
        for _ in 0..1_000 {
            sia_obs::record_complete("lint", std::time::Duration::from_nanos(1_500));
        }
    }
    let phases = sia_obs::local_take();
    let lint = phases
        .iter()
        .find(|(k, _)| k == "req/lint")
        .map(|&(_, us)| us);
    // Truncating each close to whole µs summed them to 1 000.
    assert!(lint.is_some_and(|us| us >= 1_500), "{phases:?}");
}

#[test]
fn concurrent_jsonl_sink_writes_never_tear_lines() {
    let _guard = isolated();
    let path = std::env::temp_dir().join(format!("sia_obs_conc_{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();
    let sink = sia_obs::JsonlSink::create(&path_str).expect("create trace file");
    sia_obs::set_sink(Box::new(sink));

    const THREADS: usize = 8;
    const SPANS: usize = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let ctx = sia_obs::SpanContext::begin("req", (t as u64) + 1);
                {
                    let _adopt = ctx.adopt();
                    for _ in 0..SPANS {
                        let _inner = sia_obs::span("step");
                        sia_obs::add(Counter::SmtChecks, 1);
                    }
                }
                ctx.finish();
            });
        }
    });
    drop(sia_obs::take_sink()); // flush + close

    let text = std::fs::read_to_string(&path).expect("trace readable");
    // Every line is one whole event: a known type naming a span `path`
    // or a metric `key`, and the last line is complete.
    assert!(text.ends_with('\n'), "torn tail from live interleaving");
    let (mut enters, mut exits, mut counters) = (0, 0, 0);
    for line in text.lines() {
        let fields = sia_obs::parse_object(line).expect("interleaved writes parse");
        let get = |name: &str| {
            let field = fields.iter().find(|(k, _)| k == name);
            field.and_then(|(_, v)| v.as_str())
        };
        let name = match get("type") {
            Some("span_enter") => {
                enters += 1;
                get("path")
            }
            Some("span_exit") => {
                exits += 1;
                get("path")
            }
            Some("counter") => {
                counters += 1;
                get("key")
            }
            Some("hist") => get("key"),
            other => panic!("unknown event type {other:?}: {line}"),
        };
        assert!(name.is_some_and(|n| !n.is_empty()), "{line}");
    }
    assert_eq!(enters, exits, "spans balance");
    assert_eq!(enters, THREADS * (SPANS + 1));
    // SmtChecks per step, plus trace.roots + trace.adopted per thread.
    assert_eq!(counters, THREADS * (SPANS + 2));
    std::fs::remove_file(&path).ok();
    sia_obs::disable();
}

#[test]
fn jsonl_file_sink_writes_parseable_lines() {
    let _guard = isolated();
    let path = std::env::temp_dir().join(format!("sia_obs_trace_{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();
    let sink = sia_obs::JsonlSink::create(&path_str).expect("create trace file");
    sia_obs::set_sink(Box::new(sink));
    {
        let _s = sia_obs::span("file-span");
        sia_obs::add(Counter::SmtRounds, 5);
    }
    drop(sia_obs::take_sink()); // flush + close
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "enter + counter + exit: {text}");
    for line in &lines {
        sia_obs::parse_object(line).expect("every line parses");
    }
    std::fs::remove_file(&path).ok();
    sia_obs::disable();
}
