//! A small blocking client: one-shot requests, concurrent batches, and
//! remote shutdown. Used by `sia batch` and the integration tests.
//!
//! [`run_batch`] is the one-shot primitive: send everything once, report
//! any lane failure as an error. [`run_batch_retry`] layers fault
//! tolerance on top: failed lanes and `overloaded` rejections are
//! retried with jittered exponential backoff, and whatever still has no
//! answer after the last attempt is shed client-side — answered with a
//! degraded fallback carrying the original predicate — so the caller
//! always gets exactly one response per request.

use std::collections::HashMap;
use std::io;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use sia_obs::Counter;

use crate::protocol::{
    fresh_trace_id, render_request, render_shutdown, render_stats, Request, Response, Status,
};

/// Send `requests` over `concurrency` connections and collect every
/// response. Responses are returned in arrival order, not request order;
/// match them up by `id`.
///
/// # Errors
///
/// Fails on connect/write errors, when the server closes a connection
/// before answering everything it was sent, or when a lane thread
/// panics (reported as an error, without discarding the batch
/// machinery: other lanes still run to completion).
pub fn run_batch(
    addr: &str,
    requests: &[Request],
    concurrency: usize,
) -> std::io::Result<Vec<Response>> {
    let all: Vec<usize> = (0..requests.len()).collect();
    let mut responses = Vec::with_capacity(requests.len());
    for (_, lane) in fan_out(addr, requests, &all, concurrency) {
        responses.extend(lane?);
    }
    Ok(responses)
}

/// Deal the requests at `which` round-robin over up to `concurrency`
/// connections, one scoped thread each, and return every lane's indices
/// with what its connection answered. A lane thread that panics is
/// reported as that lane's error; the other lanes still run to
/// completion.
fn fan_out(
    addr: &str,
    requests: &[Request],
    which: &[usize],
    concurrency: usize,
) -> Vec<(Vec<usize>, io::Result<Vec<Response>>)> {
    if which.is_empty() {
        return Vec::new();
    }
    let lanes = concurrency.clamp(1, which.len());
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); lanes];
    for (k, &i) in which.iter().enumerate() {
        chunks[k % lanes].push(i);
    }
    let results: Vec<io::Result<Vec<Response>>> = std::thread::scope(|s| {
        let lane = |chunk: &[usize]| {
            let lines: Vec<String> = chunk.iter().map(|&i| wire_line(&requests[i])).collect();
            exchange(addr, &lines)
        };
        let handles: Vec<_> = chunks.iter().map(|c| s.spawn(move || lane(c))).collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|r| r.unwrap_or_else(|_| Err(io::Error::other("batch lane panicked"))))
            .collect()
    });
    chunks.into_iter().zip(results).collect()
}

/// The trace ID is assigned at the client: a request sent without one
/// gets a fresh ID on the wire, so every request in the system is
/// traceable end to end.
fn wire_line(request: &Request) -> String {
    match request.trace {
        Some(_) => render_request(request),
        None => render_request(&Request {
            trace: Some(fresh_trace_id()),
            ..request.clone()
        }),
    }
}

/// Backoff before the second attempt; doubles per attempt.
const BASE_DELAY: Duration = Duration::from_millis(10);

/// Upper bound on the backoff delay.
const MAX_DELAY: Duration = Duration::from_millis(500);

/// Initial retry-budget allowance, letting small batches retry a few
/// times before the earn rate dominates.
const BUDGET_BURST: f64 = 3.0;

/// Client-side retry policy for [`run_batch_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). At least 1.
    pub attempts: u32,
    /// Retry-budget earn rate: tokens earned per fresh request sent.
    /// The default 0.1 caps sustained retry volume at 10% of fresh
    /// traffic, so a retrying client cannot amplify an overload.
    pub budget_ratio: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            budget_ratio: 0.1,
        }
    }
}

/// The jittered delay before retry `attempt` (1-based): exponential in
/// the attempt number, scaled by a jitter in `[0.5, 1.0)` drawn from
/// `salt`. Each batch draws a fresh salt, so retrying clients
/// desynchronize instead of stampeding together.
fn backoff(attempt: u32, salt: u64) -> Duration {
    let exp = BASE_DELAY
        .saturating_mul(1 << attempt.saturating_sub(1).min(16))
        .min(MAX_DELAY);
    let jitter = crate::splitmix64(salt ^ u64::from(attempt));
    #[allow(clippy::cast_precision_loss)]
    let scale = 0.5 + (jitter >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    exp.mul_f64(scale)
}

/// A token-bucket retry budget: each fresh request earns `ratio`
/// tokens, each retry spends one, and the bucket starts with a small
/// burst allowance. With the default ratio of 0.1 a client's retry
/// volume stays within ~10% of its fresh traffic (plus the burst), so
/// retries against an overloaded server cannot amplify the overload —
/// budget-starved requests are shed client-side instead of re-sent.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    tokens: f64,
    ratio: f64,
}

impl RetryBudget {
    /// A budget earning `ratio` tokens per fresh request, starting with
    /// a burst of three tokens in hand.
    pub fn new(ratio: f64) -> RetryBudget {
        RetryBudget {
            tokens: BUDGET_BURST,
            ratio: ratio.max(0.0),
        }
    }

    /// Credit the budget for `fresh` first-attempt requests.
    pub fn earn(&mut self, fresh: usize) {
        #[allow(clippy::cast_precision_loss)]
        let fresh = fresh as f64;
        self.tokens += self.ratio * fresh;
    }

    /// Try to pay for one retry. Returns false (and leaves the bucket
    /// untouched) when the budget is exhausted.
    pub fn spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            sia_obs::add(Counter::ClientRetryBudgetSpent, 1);
            true
        } else {
            sia_obs::add(Counter::ClientRetryBudgetExhausted, 1);
            false
        }
    }
}

/// Outcome of a [`run_batch_retry`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// One response per request, in request order.
    pub responses: Vec<Response>,
    /// Requests that were re-sent at least once.
    pub retried: usize,
    /// Requests shed client-side after every attempt failed (their
    /// responses carry `degraded` with reason `shed`).
    pub shed: usize,
}

/// Send `requests`, retrying `overloaded` rejections and failed lanes
/// with jittered exponential backoff. Retries draw on a token-bucket
/// [`RetryBudget`] (earned by fresh sends at `policy.budget_ratio`),
/// and the backoff honors the server's `retry_after_ms` hint when an
/// `overloaded` rejection carries one. Requests still unanswered after
/// the last attempt — or whose retries the budget refused to pay for —
/// are shed client-side: they get a degraded fallback response (the
/// original predicate, reason `shed`), so every request has exactly one
/// response and nothing is silently dropped.
///
/// Request ids should be unique within the batch; responses are matched
/// back to requests by id.
pub fn run_batch_retry(
    addr: &str,
    requests: &[Request],
    concurrency: usize,
    policy: &RetryPolicy,
) -> BatchOutcome {
    let mut out: Vec<Option<Response>> = vec![None; requests.len()];
    let mut pending: Vec<usize> = (0..requests.len()).collect();
    let mut ever_retried: Vec<bool> = vec![false; requests.len()];
    let mut budget = RetryBudget::new(policy.budget_ratio);
    budget.earn(requests.len());
    let salt = fresh_trace_id();
    let mut hint = Duration::ZERO;
    for attempt in 0..policy.attempts.max(1) {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            // The budget pays per re-sent request; starved requests
            // drop out of the pending pool and are shed below.
            pending.retain(|_| budget.spend());
            if pending.is_empty() {
                break;
            }
            for &i in &pending {
                ever_retried[i] = true;
            }
            std::thread::sleep(backoff(attempt, salt).max(hint));
        }
        let (still, retry_after) = send_pending(addr, requests, &pending, concurrency, &mut out);
        pending = still;
        hint = retry_after;
    }

    let mut shed = 0;
    for (i, slot) in out.iter_mut().enumerate() {
        let exhausted = match slot {
            None => true,
            Some(r) => r.status == Status::Overloaded,
        };
        if exhausted {
            shed += 1;
            *slot = Some(Response {
                predicate: Some(requests[i].predicate.clone()),
                degraded: true,
                reason: Some("shed".into()),
                ..Response::plain(&requests[i].id, Status::Ok)
            });
        }
    }
    BatchOutcome {
        responses: out.into_iter().map(|r| r.expect("slot filled")).collect(),
        retried: ever_retried.iter().filter(|&&b| b).count(),
        shed,
    }
}

/// One attempt over the pending subset. Fills `out` for answered
/// requests and returns the indices that still need another attempt —
/// lane failures (no response at all) and `overloaded` rejections —
/// plus the largest `retry_after_ms` hint seen on a rejection (zero
/// when none carried one).
fn send_pending(
    addr: &str,
    requests: &[Request],
    pending: &[usize],
    concurrency: usize,
    out: &mut [Option<Response>],
) -> (Vec<usize>, Duration) {
    let mut still_pending = Vec::new();
    let mut retry_after = Duration::ZERO;
    for (chunk, result) in fan_out(addr, requests, pending, concurrency) {
        match result {
            Ok(responses) => {
                // Responses arrive out of order; claim chunk slots by id.
                let mut by_id: HashMap<&str, Vec<usize>> = HashMap::new();
                for &i in chunk.iter().rev() {
                    by_id.entry(&requests[i].id).or_default().push(i);
                }
                for resp in responses {
                    let Some(i) = by_id.get_mut(resp.id.as_str()).and_then(Vec::pop) else {
                        continue; // response to nothing we sent; drop it
                    };
                    if resp.status == Status::Overloaded {
                        if let Some(ms) = resp.retry_after_ms {
                            retry_after = retry_after.max(Duration::from_millis(ms));
                        }
                        still_pending.push(i);
                    } else {
                        out[i] = Some(resp);
                    }
                }
                // Chunk entries with no matching response (server closed
                // early) go back in the pool.
                still_pending.extend(by_id.into_values().flatten());
            }
            Err(_) => still_pending.extend(chunk),
        }
    }
    still_pending.sort_unstable();
    (still_pending, retry_after)
}

/// Send one request and wait for its response. The round trip runs
/// under a `client.request` span, so a trace file from an instrumented
/// client shows the client-side wall time bracketing the server's
/// `serve.request` root for the same trace ID.
///
/// # Errors
///
/// Fails on connect/write errors or a malformed response.
pub fn request_one(addr: &str, request: &Request) -> std::io::Result<Response> {
    let trace = request.trace.unwrap_or_else(fresh_trace_id);
    let line = render_request(&Request {
        trace: Some(trace),
        ..request.clone()
    });
    let ctx = sia_obs::SpanContext::begin("client.request", trace);
    let result = {
        let _adopted = ctx.adopt();
        control(addr, line)
    };
    let _ = ctx.finish();
    result
}

/// Ask the server to drain and stop; returns its `bye` response.
///
/// # Errors
///
/// Fails on connect/write errors or a malformed response.
pub fn shutdown(addr: &str) -> std::io::Result<Response> {
    control(addr, render_shutdown())
}

/// Ask the server for its live telemetry: workers, queue depth,
/// cumulative counters, latency percentiles, cache hit rates, and
/// per-phase wall-time totals.
/// Answered by the connection's reader thread without queueing, so it
/// works even when the pool is saturated.
///
/// # Errors
///
/// Fails on connect/write errors or a malformed response.
pub fn stats(addr: &str) -> std::io::Result<Response> {
    control(addr, render_stats())
}

/// One line out, one response back.
fn control(addr: &str, line: String) -> std::io::Result<Response> {
    Ok(exchange(addr, &[line])?.remove(0))
}

/// The one connection exchange: connect, write every line, then read
/// one response per line sent.
fn exchange(addr: &str, lines: &[String]) -> std::io::Result<Vec<Response>> {
    let mut stream = TcpStream::connect(addr)?;
    for line in lines {
        writeln!(stream, "{line}")?;
    }
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(lines.len());
    let mut line = String::new();
    for _ in 0..lines.len() {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "server closed after {} of {} responses",
                    out.len(),
                    lines.len()
                ),
            ));
        }
        out.push(Response::parse(line.trim()).map_err(std::io::Error::other)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_batches_back_off_by_different_jittered_delays() {
        let (one, two) = (fresh_trace_id(), fresh_trace_id());
        let delays = |salt| (1..=4).map(|k| backoff(k, salt)).collect::<Vec<_>>();
        assert_ne!(delays(one), delays(two));
        for salt in [one, two] {
            for (k, d) in (1..=4).zip(delays(salt)) {
                let exp = BASE_DELAY * (1 << (k - 1));
                assert!(exp / 2 <= d && d < exp, "attempt {k}: {d:?} of {exp:?}");
            }
        }
        let capped = backoff(30, one);
        assert!(MAX_DELAY / 2 <= capped && capped < MAX_DELAY, "{capped:?}");
    }
}
