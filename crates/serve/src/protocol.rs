//! The line-delimited JSON protocol spoken over TCP.
//!
//! One request per line, one response per line; requests on a connection
//! may be answered out of order (responses carry the request `id`).
//! Objects are flat with string and number values only, matching
//! `sia_obs::parse_object`:
//!
//! ```text
//! → {"id":"q1","predicate":"x < 10 AND y > 2","cols":"x","timeout_ms":500}
//! ← {"id":"q1","status":"ok","predicate":"x < 10","optimal":1,"cached":0,"micros":814}
//! → {"op":"shutdown"}
//! ← {"id":"","status":"bye","optimal":0,"cached":0,"micros":0}
//! ```
//!
//! `cols` is a comma-separated list. A response with status `ok` and no
//! `predicate` field means only the trivial predicate TRUE is valid (the
//! paper's NULL result).
//!
//! **Graceful degradation**: when a recoverable failure interrupts
//! synthesis (a worker panic, a deadline, load shedding), the response
//! carries `degraded:1`, a `reason` (`panic` / `timeout` / `internal` /
//! `shed`), and echoes the *original* predicate — the always-valid,
//! never-optimal fallback. Clients treat it exactly like "no useful
//! reduction found": keep the original query plan.
//!
//! **Lint warnings**: responses may carry a `warnings` field — static
//! analysis findings about the request predicate (contradictions,
//! tautologies, type-suspect comparisons), joined with `"; "`. Advisory
//! only; omitted when there is nothing to flag.
//!
//! **Tracing**: a request may carry a numeric `trace` ID (the client
//! assigns one when the caller didn't). The server adopts it for every
//! span recorded on the request's behalf — across the reader → queue →
//! worker handoff — echoes it on the response, and attaches a `phases`
//! field: a `;`-joined list of `span_path=micros` pairs breaking the
//! request's wall time down into queue wait, parse, lint, cache probe,
//! and synthesis (with nested synthesis phases as `synth/...` entries).
//! Trace IDs stay below 2^53 so the f64-based JSON parser round-trips
//! them exactly.
//!
//! **Live stats**: `{"op":"stats"}` is answered queue-free by the
//! connection's reader thread with the worker count, queue depth,
//! cumulative counters, log-bucket latency percentiles, cache hit rates,
//! and per-phase totals (`stats_*` fields plus `phases`).

use sia_obs::{json_string, parse_object, JsonValue};
use std::sync::atomic::{AtomicU64, Ordering};

/// A synthesis request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen identifier echoed in the response.
    pub id: String,
    /// Predicate source in the paper's grammar.
    pub predicate: String,
    /// Target columns to synthesize over.
    pub cols: Vec<String>,
    /// Per-request deadline; `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// Request trace ID; `None` lets the client assign a fresh one.
    pub trace: Option<u64>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestLine {
    /// A synthesis request.
    Synth(Request),
    /// Ask the server for live telemetry — workers, queue depth,
    /// counters, latency percentiles, cache hit rates, per-phase totals.
    /// Answered immediately by the reader thread, bypassing the queue,
    /// so it works even when the pool is saturated.
    Stats,
    /// Ask the server to drain and stop.
    Shutdown,
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Synthesis completed (possibly with the trivial result, possibly
    /// degraded — see [`Response::degraded`]).
    Ok,
    /// The request's deadline expired before synthesis finished.
    Timeout,
    /// The request was malformed or synthesis failed outright.
    Error,
    /// The request queue was full; retry later (the response may carry a
    /// `retry_after_ms` hint).
    Overloaded,
    /// The request's deadline expired while it waited in the queue; no
    /// worker ran it. Counted separately from `timeout`, which means
    /// synthesis started but ran out of budget.
    Expired,
    /// Acknowledgement of a shutdown request.
    Bye,
}

impl Status {
    /// Wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Timeout => "timeout",
            Status::Error => "error",
            Status::Overloaded => "overloaded",
            Status::Expired => "expired",
            Status::Bye => "bye",
        }
    }

    /// Parse a wire name.
    pub fn from_str_opt(s: &str) -> Option<Status> {
        match s {
            "ok" => Some(Status::Ok),
            "timeout" => Some(Status::Timeout),
            "error" => Some(Status::Error),
            "overloaded" => Some(Status::Overloaded),
            "expired" => Some(Status::Expired),
            "bye" => Some(Status::Bye),
            _ => None,
        }
    }
}

/// Live server telemetry, attached to the answer of a `stats` request.
/// All counters are cumulative since startup; percentiles come from the
/// server's log-bucket latency histogram (≤9% relative error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsInfo {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Synthesis requests accepted into the work queue.
    pub requests: u64,
    /// Requests answered by a worker (any status).
    pub completed: u64,
    /// Requests that hit their deadline.
    pub timeouts: u64,
    /// Requests that failed with a parse/synthesis error.
    pub errors: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests answered with a degraded fallback.
    pub degraded: u64,
    /// Cache lookups answered from the predicate cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Slow-request exemplars captured in the slow log.
    pub slow: u64,
    /// Total wall time across completed requests, µs (queue wait
    /// included) — the denominator for phase coverage.
    pub total_us: u64,
    /// Mean request latency, µs.
    pub mean_us: u64,
    /// Median request latency, µs.
    pub p50_us: u64,
    /// 90th-percentile request latency, µs.
    pub p90_us: u64,
    /// 99th-percentile request latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile request latency, µs.
    pub p999_us: u64,
    /// Requests whose deadline expired while queued (no worker ran them).
    pub expired: u64,
    /// Expensive-lane requests shed under pressure.
    pub shed: u64,
    /// Current admission limit (the queue depth while no control window
    /// has been over the delay budget).
    pub admission_limit: u64,
    /// Current brownout ladder level (0 = normal, 1 = no CEGIS
    /// refinement, 2 = static bounds only, 3 = shed expensive lane).
    pub brownout: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Requests currently queued.
    pub queue: u64,
}

impl StatsInfo {
    /// Every field under its wire name (sent as `stats_<name>`), in
    /// wire order.
    fn fields(&mut self) -> [(&'static str, &mut u64); 22] {
        [
            ("uptime_ms", &mut self.uptime_ms),
            ("requests", &mut self.requests),
            ("completed", &mut self.completed),
            ("timeouts", &mut self.timeouts),
            ("errors", &mut self.errors),
            ("rejected", &mut self.rejected),
            ("degraded", &mut self.degraded),
            ("cache_hits", &mut self.cache_hits),
            ("cache_misses", &mut self.cache_misses),
            ("slow", &mut self.slow),
            ("total_us", &mut self.total_us),
            ("mean_us", &mut self.mean_us),
            ("p50_us", &mut self.p50_us),
            ("p90_us", &mut self.p90_us),
            ("p99_us", &mut self.p99_us),
            ("p999_us", &mut self.p999_us),
            ("expired", &mut self.expired),
            ("shed", &mut self.shed),
            ("admission_limit", &mut self.admission_limit),
            ("brownout", &mut self.brownout),
            ("workers", &mut self.workers),
            ("queue", &mut self.queue),
        ]
    }

    /// Cache hit rate in `[0,1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let rate = self.cache_hits as f64 / total as f64;
            rate
        }
    }
}

/// A response line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this answers (empty for `bye`/`stats`).
    pub id: String,
    /// Outcome.
    pub status: Status,
    /// The synthesized predicate; `None` with status `ok` means the
    /// trivial predicate TRUE. On a degraded response this echoes the
    /// original predicate (the fallback).
    pub predicate: Option<String>,
    /// Whether the predicate was certified optimal.
    pub optimal: bool,
    /// Whether the result came from the predicate cache.
    pub cached: bool,
    /// Wall time spent on the request, in microseconds.
    pub micros: u64,
    /// Error detail when status is `error`.
    pub error: Option<String>,
    /// True when this is a fallback result: synthesis did not complete
    /// and the original predicate is echoed back instead.
    pub degraded: bool,
    /// Why the response is degraded (`panic` / `timeout` / `internal` /
    /// `shed`).
    pub reason: Option<String>,
    /// Static-analysis lint warnings about the *request* predicate
    /// (contradictory, tautological, or type-suspect conjuncts). Purely
    /// advisory: the synthesized result is unaffected. Serialized as one
    /// `"; "`-joined string field, omitted when empty; individual
    /// messages never contain `"; "`.
    pub warnings: Vec<String>,
    /// The request's trace ID, echoed back when the request carried one.
    pub trace: Option<u64>,
    /// Per-phase wall-time breakdown of this request: `(span path,
    /// micros)` pairs, paths relative to the request root (e.g. `queue`,
    /// `synth/learn`). Serialized as one `;`-joined `path=us` string
    /// field; omitted when empty. Top-level entries (no `/`) sum to
    /// ≥95% of `micros` for a successfully traced request.
    pub phases: Vec<(String, u64)>,
    /// Live telemetry, present on answers to the `stats` op.
    pub stats: Option<StatsInfo>,
    /// Back-off hint attached to `overloaded` responses: how long the
    /// client should wait before retrying. Budgeted retry clients honor
    /// it; omitted on every other status.
    pub retry_after_ms: Option<u64>,
}

impl Response {
    /// An error/infrastructure response carrying just id + status.
    pub fn plain(id: &str, status: Status) -> Response {
        Response {
            id: id.to_string(),
            status,
            predicate: None,
            optimal: false,
            cached: false,
            micros: 0,
            error: None,
            degraded: false,
            reason: None,
            warnings: Vec::new(),
            trace: None,
            phases: Vec::new(),
            stats: None,
            retry_after_ms: None,
        }
    }

    /// Render as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"status\":{}",
            json_string(&self.id),
            json_string(self.status.as_str())
        );
        if let Some(p) = &self.predicate {
            out.push_str(&format!(",\"predicate\":{}", json_string(p)));
        }
        out.push_str(&format!(
            ",\"optimal\":{},\"cached\":{},\"micros\":{}",
            u8::from(self.optimal),
            u8::from(self.cached),
            self.micros
        ));
        if let Some(t) = self.trace {
            out.push_str(&format!(",\"trace\":{t}"));
        }
        if !self.phases.is_empty() {
            let joined = self
                .phases
                .iter()
                .map(|(p, us)| format!("{p}={us}"))
                .collect::<Vec<_>>()
                .join(";");
            out.push_str(&format!(",\"phases\":{}", json_string(&joined)));
        }
        if self.degraded {
            out.push_str(",\"degraded\":1");
        }
        if let Some(r) = &self.reason {
            out.push_str(&format!(",\"reason\":{}", json_string(r)));
        }
        if let Some(ms) = self.retry_after_ms {
            out.push_str(&format!(",\"retry_after_ms\":{ms}"));
        }
        if !self.warnings.is_empty() {
            out.push_str(&format!(
                ",\"warnings\":{}",
                json_string(&self.warnings.join("; "))
            ));
        }
        if let Some(mut s) = self.stats {
            for (name, v) in s.fields() {
                out.push_str(&format!(",\"stats_{name}\":{v}"));
            }
        }
        if let Some(e) = &self.error {
            out.push_str(&format!(",\"error\":{}", json_string(e)));
        }
        out.push('}');
        out
    }

    /// Parse a response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let fields = parse_object(line)?;
        let mut resp = Response::plain("", Status::Error);
        let mut saw_status = false;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let as_u64 = |n: f64| n.max(0.0) as u64;
        for (name, value) in fields {
            if let (Some(field), JsonValue::Num(n)) = (name.strip_prefix("stats_"), &value) {
                let mut stats = resp.stats.unwrap_or_default();
                let slot = stats.fields().into_iter().find(|(f, _)| *f == field);
                if let Some((_, slot)) = slot {
                    *slot = as_u64(*n);
                    resp.stats = Some(stats);
                }
                continue;
            }
            match (name.as_str(), value) {
                ("id", JsonValue::Str(s)) => resp.id = s,
                ("status", JsonValue::Str(s)) => {
                    resp.status =
                        Status::from_str_opt(&s).ok_or_else(|| format!("bad status {s:?}"))?;
                    saw_status = true;
                }
                ("predicate", JsonValue::Str(s)) => resp.predicate = Some(s),
                ("error", JsonValue::Str(s)) => resp.error = Some(s),
                ("reason", JsonValue::Str(s)) => resp.reason = Some(s),
                ("warnings", JsonValue::Str(s)) => {
                    resp.warnings = s.split("; ").map(str::to_string).collect();
                }
                ("optimal", JsonValue::Num(n)) => resp.optimal = n != 0.0,
                ("cached", JsonValue::Num(n)) => resp.cached = n != 0.0,
                ("degraded", JsonValue::Num(n)) => resp.degraded = n != 0.0,
                ("micros", JsonValue::Num(n)) => resp.micros = as_u64(n),
                ("retry_after_ms", JsonValue::Num(n)) => resp.retry_after_ms = Some(as_u64(n)),
                ("trace", JsonValue::Num(n)) => resp.trace = Some(as_u64(n)),
                ("phases", JsonValue::Str(s)) => {
                    resp.phases = s
                        .split(';')
                        .filter_map(|pair| {
                            let (path, us) = pair.split_once('=')?;
                            Some((path.to_string(), us.parse().ok()?))
                        })
                        .collect();
                }
                _ => {}
            }
        }
        if !saw_status {
            return Err("response missing status".into());
        }
        Ok(resp)
    }
}

/// Trace IDs stay below 2^53 so the f64-based JSON parser round-trips
/// them exactly.
const TRACE_ID_MASK: u64 = (1 << 53) - 1;

static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh process-unique trace ID: nonzero, below 2^53, and well
/// scattered (splitmix64 finalizer over a process counter) so IDs from
/// concurrent clients are unlikely to collide in a shared trace file.
pub fn fresh_trace_id() -> u64 {
    let n = TRACE_SEQ
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_add(u64::from(std::process::id()) << 20);
    (crate::splitmix64(n) & TRACE_ID_MASK).max(1)
}

/// Render a synthesis request as one JSONL line (no trailing newline).
pub fn render_request(r: &Request) -> String {
    let mut out = format!(
        "{{\"id\":{},\"predicate\":{},\"cols\":{}",
        json_string(&r.id),
        json_string(&r.predicate),
        json_string(&r.cols.join(","))
    );
    if let Some(ms) = r.timeout_ms {
        out.push_str(&format!(",\"timeout_ms\":{ms}"));
    }
    if let Some(t) = r.trace {
        out.push_str(&format!(",\"trace\":{t}"));
    }
    out.push('}');
    out
}

/// Render the shutdown request line.
pub fn render_shutdown() -> String {
    "{\"op\":\"shutdown\"}".to_string()
}

/// Render the stats request line.
pub fn render_stats() -> String {
    "{\"op\":\"stats\"}".to_string()
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<RequestLine, String> {
    let fields = parse_object(line)?;
    let mut id = None;
    let mut predicate = None;
    let mut cols = None;
    let mut timeout_ms = None;
    let mut trace = None;
    for (name, value) in fields {
        match (name.as_str(), value) {
            ("op", JsonValue::Str(s)) if s == "shutdown" => return Ok(RequestLine::Shutdown),
            ("op", JsonValue::Str(s)) if s == "stats" => return Ok(RequestLine::Stats),
            ("op", JsonValue::Str(s)) => return Err(format!("unknown op {s:?}")),
            ("id", JsonValue::Str(s)) => id = Some(s),
            ("predicate", JsonValue::Str(s)) => predicate = Some(s),
            ("cols", JsonValue::Str(s)) => {
                cols = Some(
                    s.split(',')
                        .map(|c| c.trim().to_string())
                        .filter(|c| !c.is_empty())
                        .collect::<Vec<_>>(),
                );
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            ("timeout_ms", JsonValue::Num(n)) => timeout_ms = Some(n.max(0.0) as u64),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            ("trace", JsonValue::Num(n)) => trace = Some(n.max(0.0) as u64 & TRACE_ID_MASK),
            _ => {}
        }
    }
    Ok(RequestLine::Synth(Request {
        id: id.ok_or("request missing id")?,
        predicate: predicate.ok_or("request missing predicate")?,
        cols: cols.ok_or("request missing cols")?,
        timeout_ms,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let r = Request {
            id: "q1".into(),
            predicate: "x < 10 AND y > 2".into(),
            cols: vec!["x".into(), "y".into()],
            timeout_ms: Some(250),
            trace: Some(123_456_789),
        };
        let line = render_request(&r);
        assert!(line.contains("\"trace\":123456789"), "{line}");
        assert_eq!(parse_request(&line).unwrap(), RequestLine::Synth(r));
        // Untraced requests keep the pre-tracing line shape.
        let r = Request {
            id: "q2".into(),
            predicate: "x < 10".into(),
            cols: vec!["x".into()],
            timeout_ms: None,
            trace: None,
        };
        let line = render_request(&r);
        assert!(!line.contains("trace"), "{line}");
        assert_eq!(parse_request(&line).unwrap(), RequestLine::Synth(r));
    }

    #[test]
    fn control_ops_round_trip() {
        assert_eq!(
            parse_request(&render_shutdown()).unwrap(),
            RequestLine::Shutdown
        );
        assert_eq!(parse_request(&render_stats()).unwrap(), RequestLine::Stats);
    }

    #[test]
    fn trace_and_phases_round_trip() {
        let r = Response {
            trace: Some(9_007_199_254_740_991), // 2^53 − 1: the largest legal ID
            phases: vec![
                ("queue".into(), 120),
                ("synth".into(), 4_500),
                ("synth/learn".into(), 2_000),
            ],
            ..Response::plain("q5", Status::Ok)
        };
        let line = r.to_line();
        assert!(
            line.contains("\"phases\":\"queue=120;synth=4500;synth/learn=2000\""),
            "{line}"
        );
        assert_eq!(Response::parse(&line).unwrap(), r);
        // Both fields are opt-in on the wire.
        let plain = Response::plain("q", Status::Ok).to_line();
        assert!(
            !plain.contains("trace") && !plain.contains("phases"),
            "{plain}"
        );
    }

    #[test]
    fn stats_response_round_trips() {
        let r = Response {
            stats: Some(StatsInfo {
                uptime_ms: 12_345,
                requests: 100,
                completed: 97,
                timeouts: 2,
                errors: 1,
                rejected: 3,
                degraded: 4,
                cache_hits: 60,
                cache_misses: 37,
                slow: 2,
                total_us: 9_000_000,
                mean_us: 92_783,
                p50_us: 1_100,
                p90_us: 150_000,
                p99_us: 480_000,
                p999_us: 900_000,
                expired: 5,
                shed: 6,
                admission_limit: 48,
                brownout: 1,
                workers: 4,
                queue: 1,
            }),
            phases: vec![("queue".into(), 500_000), ("synth".into(), 8_000_000)],
            ..Response::plain("", Status::Ok)
        };
        let back = Response::parse(&r.to_line()).unwrap();
        assert_eq!(back, r);
        let s = back.stats.unwrap();
        assert_eq!(s.p999_us, 900_000);
        assert_eq!(s.expired, 5);
        assert_eq!(s.shed, 6);
        assert_eq!(s.admission_limit, 48);
        assert_eq!(s.brownout, 1);
        assert_eq!((s.workers, s.queue), (4, 1));
        assert!((s.hit_rate() - 60.0 / 97.0).abs() < 1e-9);
        // The stats payload does not clobber the response-level flags.
        assert!(!back.degraded);
        assert_eq!(back.micros, 0);
    }

    #[test]
    fn fresh_trace_ids_are_nonzero_distinct_and_f64_safe() {
        let ids: Vec<u64> = (0..64).map(|_| fresh_trace_id()).collect();
        for &id in &ids {
            assert!(id != 0 && id < (1 << 53), "{id}");
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let through_f64 = id as f64 as u64;
            assert_eq!(through_f64, id, "survives the f64 JSON parser");
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "no collisions in a small batch");
    }

    #[test]
    fn response_round_trips() {
        let r = Response {
            id: "q1".into(),
            status: Status::Ok,
            predicate: Some("x < 10".into()),
            optimal: true,
            cached: false,
            micros: 814,
            ..Response::plain("q1", Status::Ok)
        };
        assert_eq!(Response::parse(&r.to_line()).unwrap(), r);
        let e = Response {
            error: Some("parse error: boom".into()),
            ..Response::plain("q2", Status::Error)
        };
        assert_eq!(Response::parse(&e.to_line()).unwrap(), e);
    }

    #[test]
    fn degraded_response_round_trips() {
        let r = Response {
            predicate: Some("x < 10 AND y > 2".into()),
            degraded: true,
            reason: Some("panic".into()),
            ..Response::plain("q3", Status::Ok)
        };
        let line = r.to_line();
        assert!(line.contains("\"degraded\":1"), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), r);
        // Degradation is opt-in on the wire: plain responses omit it.
        assert!(!Response::plain("q", Status::Ok)
            .to_line()
            .contains("degraded"));
    }

    #[test]
    fn expired_and_retry_hint_round_trip() {
        let r = Response {
            predicate: Some("x < 10".into()),
            degraded: true,
            reason: Some("expired".into()),
            ..Response::plain("q6", Status::Expired)
        };
        let line = r.to_line();
        assert!(line.contains("\"status\":\"expired\""), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), r);
        let o = Response {
            retry_after_ms: Some(120),
            ..Response::plain("q7", Status::Overloaded)
        };
        let line = o.to_line();
        assert!(line.contains("\"retry_after_ms\":120"), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), o);
        // The hint is opt-in on the wire.
        assert!(!Response::plain("q", Status::Ok)
            .to_line()
            .contains("retry_after_ms"));
    }

    #[test]
    fn warnings_round_trip() {
        let r = Response {
            predicate: Some("x < 10".into()),
            warnings: vec![
                "[contradiction] filters out every row".into(),
                "[tautology] conjunct is always true".into(),
            ],
            ..Response::plain("q4", Status::Ok)
        };
        let line = r.to_line();
        assert!(line.contains("\"warnings\""), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), r);
        // Warnings are opt-in on the wire: clean responses omit the field.
        assert!(!Response::plain("q", Status::Ok)
            .to_line()
            .contains("warnings"));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_request("{\"id\":\"a\"}").is_err());
        assert!(parse_request("{\"op\":\"dance\"}").is_err());
        assert!(parse_request("{\"op\":\"health\"}").is_err());
        assert!(parse_request("nonsense").is_err());
        assert!(Response::parse("{\"id\":\"a\"}").is_err());
    }
}
