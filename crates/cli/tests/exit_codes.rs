//! Exit-code contract of the `sia` binary: 0 on success, 1 on errors,
//! 2 on synthesis timeouts (and all-timeout batches). Drives the real
//! binary via `CARGO_BIN_EXE_sia`, including a serve/batch round trip.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

const SIA: &str = env!("CARGO_BIN_EXE_sia");

/// A predicate hard enough that CEGIS cannot finish within a few ms: b1's
/// coefficient 2 leaves a divisibility literal in the projection onto a1,
/// so the projection cannot answer it (with `a2 - b1` it could, in µs).
const HARD: &str = "a2 - 2 * b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0 AND a1 + b1 < 30";

fn sia(args: &[&str]) -> std::process::Output {
    Command::new(SIA)
        .args(args)
        .output()
        .expect("sia binary runs")
}

#[test]
fn synth_success_exits_zero() {
    let out = sia(&[
        "synth",
        "a + 10 > b + 20 AND b + 10 > 20",
        "--cols",
        "a",
        "--max-iter",
        "6",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("a >= 22"), "{stdout}");
}

#[test]
fn synth_trace_is_wellformed_jsonl() {
    let path = std::env::temp_dir().join(format!("sia_cli_trace_{}.jsonl", std::process::id()));
    let out = sia(&[
        "synth",
        "a + 10 > b + 20 AND b + 10 > 20",
        "--cols",
        "a",
        "--max-iter",
        "6",
        "--trace",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    // Every line is a flat JSON object of a known event type naming a
    // span `path` or a metric `key`, and the last line is complete.
    assert!(text.ends_with('\n'), "trace not flushed: {text:?}");
    let (mut enters, mut exits) = (0, 0);
    for line in text.lines() {
        let fields = sia_obs::parse_object(line).expect("well-formed JSONL");
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
            Some("counter" | "hist") => get("key"),
            other => panic!("unknown event type {other:?}: {line}"),
        };
        assert!(name.is_some_and(|n| !n.is_empty()), "{line}");
    }
    assert!(
        enters > 0 && enters == exits,
        "{enters} enters, {exits} exits"
    );
}

#[test]
fn synth_parse_error_exits_one() {
    let out = sia(&["synth", "a <", "--cols", "a"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn synth_bad_usage_exits_one() {
    let out = sia(&["synth", "a < 5"]); // missing --cols
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

/// Flags that belong to other subcommands used to be accepted and
/// ignored (this printed `sat` and exited 0).
#[test]
fn flag_of_another_subcommand_exits_one() {
    let out = sia(&[
        "solve",
        "a < 1",
        "--workers",
        "9",
        "--concurrency",
        "3",
        "--addr",
        "x",
        "--cache-file",
        "y",
        "--keep",
        "q",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers does not apply to solve"),
        "{stderr}"
    );
}

/// There is one admission law, and a zero queue-delay budget is not one
/// of its settings: refused before anything binds.
#[test]
fn serve_with_a_zero_delay_budget_exits_one() {
    let out = sia(&["serve", "--delay-budget-ms", "0", "--addr", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--delay-budget-ms must be at least 1"),
        "{stderr}"
    );
}

/// A flag that would change nothing is refused the same way, not
/// silently dropped.
#[test]
fn serve_flags_that_would_do_nothing_exit_one() {
    for (flags, message) in [
        (
            &["--snapshot-ms", "100"][..],
            "--snapshot-ms needs --cache-file",
        ),
        (
            &["--snapshot-ms", "0", "--cache-file", "c.jsonl"][..],
            "--snapshot-ms must be at least 1",
        ),
        (&["--slow-ms", "10"][..], "--slow-ms needs --slow-log"),
    ] {
        let out = sia(&[&["serve", "--addr", "127.0.0.1:0"][..], flags].concat());
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
    }
}

/// A reader that leaves early (`sia gen | head -1`) ends the output; it
/// is not a panic, and the exit code stays the command's own.
#[test]
fn closed_stdout_is_the_end_of_output_not_a_panic() {
    let mut child = Command::new(SIA)
        .args(["gen", "--count", "3000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sia binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("sia exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn synth_timeout_exits_two() {
    let out = sia(&["synth", HARD, "--cols", "a1", "--timeout-ms", "5"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timeout"), "{stderr}");
}

#[test]
fn synth_timeout_exits_two_even_with_injected_solver_stalls() {
    // Stall every simplex pivot checkpoint by 20 ms via a failpoint: the
    // 10 ms deadline must still be honored (the budget is polled right
    // after the stall), mapping to exit code 2 without hanging.
    let t0 = std::time::Instant::now();
    let out = Command::new(SIA)
        .args(["synth", HARD, "--cols", "a1", "--timeout-ms", "10"])
        .env("SIA_FAILPOINTS", "smt.simplex.pivot=delay(20)")
        .output()
        .expect("sia binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timeout"), "{stderr}");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "stalled synth took {:?}",
        t0.elapsed()
    );
}

/// A running `sia serve`: the child, its address, what it printed before
/// the `listening` banner, and the stdout reader (which must stay open
/// until the child exits, or the server's final summary hits a broken
/// pipe).
struct Server {
    child: Child,
    addr: String,
    startup: String,
    stdout: BufReader<std::process::ChildStdout>,
}

/// Start `sia serve` on an ephemeral port.
fn start_server(extra: &[&str]) -> Server {
    let mut child = Command::new(SIA)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut startup = String::new();
    let addr = loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("startup line");
        assert!(n > 0, "no banner after: {startup:?}");
        if let Some(addr) = line.trim().strip_prefix("sia-serve listening on ") {
            break addr.to_string();
        }
        startup.push_str(&line);
    };
    Server {
        child,
        addr,
        startup,
        stdout,
    }
}

/// Shut the server down over the wire; return what it printed after the
/// banner.
fn stop_server(server: Server) -> String {
    let Server {
        mut child,
        addr,
        mut stdout,
        ..
    } = server;
    let addr = addr.as_str();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect for shutdown");
    writeln!(stream, "{{\"op\":\"shutdown\"}}").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("bye"), "{line}");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server exit: {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("cache:"), "final summary missing: {rest}");
    rest
}

#[test]
fn serve_and_batch_round_trip() {
    let dir = std::env::temp_dir().join(format!("sia-exitcodes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = start_server(&[]);
    let addr = server.addr.clone();

    // A good batch exits 0 and reports per-request responses.
    let good = dir.join("good.jsonl");
    std::fs::write(
        &good,
        "{\"id\":\"g0\",\"predicate\":\"a + 10 > b + 20 AND b + 10 > 20\",\"cols\":\"a\"}\n\
         {\"id\":\"g1\",\"predicate\":\"x < 5 AND y > 2\",\"cols\":\"x\"}\n",
    )
    .unwrap();
    let out = sia(&["batch", good.to_str().unwrap(), "--addr", &addr]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 ok / 0 timeout / 0 failed"), "{stdout}");

    // A batch with one timed-out request exits 2.
    let timed = dir.join("timed.jsonl");
    std::fs::write(
        &timed,
        format!(
            "{{\"id\":\"t0\",\"predicate\":\"x < 5 AND y > 2\",\"cols\":\"x\"}}\n\
             {{\"id\":\"t1\",\"predicate\":\"{HARD}\",\"cols\":\"a1\",\"timeout_ms\":5}}\n"
        ),
    )
    .unwrap();
    let out = sia(&["batch", timed.to_str().unwrap(), "--addr", &addr]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // A batch with an unparseable predicate exits 1.
    let bad = dir.join("bad.jsonl");
    std::fs::write(
        &bad,
        "{\"id\":\"b0\",\"predicate\":\"x <\",\"cols\":\"x\"}\n",
    )
    .unwrap();
    let out = sia(&["batch", bad.to_str().unwrap(), "--addr", &addr]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    stop_server(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics` ends with the server's own final stats, and `--cache-file`
/// reports at startup what the load recovered: nothing on a cold start,
/// the saved entries on the restart after it.
#[test]
fn serve_metrics_and_cache_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("sia-servemetrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache.snap");
    let cache = cache.to_str().unwrap();
    let good = dir.join("good.jsonl");
    std::fs::write(
        &good,
        "{\"id\":\"g0\",\"predicate\":\"a + 10 > b + 20 AND b + 10 > 20\",\"cols\":\"a\"}\n\
         {\"id\":\"g1\",\"predicate\":\"x < 5 AND y > 2\",\"cols\":\"x\"}\n",
    )
    .unwrap();

    let cold = start_server(&["--metrics", "--cache-file", cache]);
    assert!(
        cold.startup.contains(&format!(
            "cache file {cache}: recovered 0 records, dropped 0"
        )),
        "{}",
        cold.startup
    );
    let out = sia(&["batch", good.to_str().unwrap(), "--addr", &cold.addr]);
    assert!(out.status.success(), "{out:?}");
    let rest = stop_server(cold);
    assert!(rest.contains("== server =="), "{rest}");
    assert!(rest.contains("requests 2 accepted / 2 completed"), "{rest}");
    assert!(rest.contains("latency  p50"), "{rest}");
    assert!(rest.contains("== metrics =="), "{rest}");

    let warm = start_server(&["--cache-file", cache]);
    assert!(
        warm.startup.contains(&format!(
            "cache file {cache}: recovered 2 records, dropped 0"
        )),
        "{}",
        warm.startup
    );
    let rest = stop_server(warm);
    assert!(!rest.contains("== server =="), "{rest}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_against_no_server_exits_one() {
    let dir = std::env::temp_dir().join(format!("sia-noserver-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("one.jsonl");
    std::fs::write(
        &f,
        "{\"id\":\"q\",\"predicate\":\"x < 5\",\"cols\":\"x\"}\n",
    )
    .unwrap();
    // Port 9 (discard) is essentially never listening.
    let out = sia(&["batch", f.to_str().unwrap(), "--addr", "127.0.0.1:9"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}
