//! Answering one admitted request.
//!
//! [`process`] runs a request to completion with the admission-anchored
//! [`Budget`](sia_smt::Budget): the budget is polled inside the SMT solver's CDCL and
//! simplex loops, so a 10 ms deadline on a hard instance returns
//! `timeout` without wedging the worker. Whatever goes wrong — a panic,
//! a timeout, an internal error, a brownout — the request degrades to
//! its *original* predicate (always valid, never optimal) or to
//! solver-free static bounds, never to a different predicate and never
//! to silence: the worker runs each job in one
//! [`std::panic::catch_unwind`] domain and writes its one reply outside
//! it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

use sia_analyze::{Analyzer, Derivation};
use sia_cache::PredicateCache;
use sia_core::{SiaConfig, SynthesisError, Synthesizer};
use sia_expr::Pred;
use sia_obs::Counter;

use crate::admission::Job;
use crate::lock;
use crate::protocol::{Response, Status};

/// Run one request to completion (cache hit, synthesis, timeout, or
/// degraded fallback). The predicate was already parsed and
/// canonicalized at admission; the budget was anchored there too, so
/// queue wait has been charged against the deadline. `brownout_level`
/// degrades the work: ≥1 disables CEGIS refinement rounds, ≥2 serves
/// static bounds when the analyzer can derive them.
pub(crate) fn process(
    job: &Job,
    cache: &PredicateCache,
    linter: &Analyzer,
    brownout_level: usize,
) -> Response {
    let req = &job.request;

    let (p, canon) = match &job.parsed {
        Ok(pair) => pair,
        Err(e) => {
            return Response {
                error: Some(e.clone()),
                ..Response::plain(&req.id, Status::Error)
            };
        }
    };
    let warnings = {
        let _lint_span = sia_obs::span("lint");
        lint_warnings(linter, p)
    };
    // The `cache` phase is the probe and, on a hit, the answer rendered
    // from it.
    let cache_span = sia_obs::span("cache");
    if let Some(hit) = cache.lookup(canon, &req.cols) {
        let response = Response {
            predicate: (!hit.predicate.is_true()).then(|| hit.predicate.to_string()),
            optimal: hit.optimal,
            cached: true,
            warnings,
            ..Response::plain(&req.id, Status::Ok)
        };
        drop(cache_span);
        return response;
    }
    drop(cache_span);

    // Brownout level 2+: if static zone projection yields sound bounds,
    // serve them as a flagged degraded result instead of synthesizing.
    // (An *exact* derivation falls through — the synthesizer discharges
    // it statically anyway, no CEGIS needed.)
    if brownout_level >= 2 {
        if let Some(Derivation::Bounds(bounds)) = linter.derive(p, &req.cols) {
            sia_obs::add(Counter::ServeBrownoutServed, 1);
            return Response {
                predicate: Some(bounds.to_string()),
                reason: Some("brownout".into()),
                warnings,
                ..degraded_body(&req.id, Status::Ok)
            };
        }
    }

    let mut config = SiaConfig {
        budget: job.budget,
        ..SiaConfig::default()
    };
    if brownout_level >= 1 {
        // Brownout level 1+: no CEGIS refinement rounds — take whatever
        // the first round (static derivation + one learner pass) yields.
        config.max_iterations = 1;
    }
    let mut syn = Synthesizer::new(config);
    match syn.synthesize(p, &req.cols) {
        Ok(result) => {
            let predicate = result.predicate.unwrap_or_else(Pred::true_);
            cache.insert(canon, &req.cols, &predicate, result.optimal);
            Response {
                predicate: (!predicate.is_true()).then(|| predicate.to_string()),
                optimal: result.optimal,
                warnings,
                ..Response::plain(&req.id, Status::Ok)
            }
        }
        Err(SynthesisError::Timeout) => {
            // Deadline expiry keeps its distinct status (clients and the
            // CLI exit code depend on it) but now also carries the
            // fallback predicate, so callers can proceed un-optimized.
            Response {
                predicate: Some(req.predicate.clone()),
                reason: Some("timeout".into()),
                warnings,
                ..degraded_body(&req.id, Status::Timeout)
            }
        }
        Err(SynthesisError::Internal(msg)) => Response {
            error: Some(msg),
            warnings,
            ..degraded(&req.id, &req.predicate, "internal")
        },
        Err(e) => Response {
            error: Some(e.to_string()),
            warnings,
            ..Response::plain(&req.id, Status::Error)
        },
    }
}

/// Static-analysis lint of the request predicate. Advisory only: the
/// result rides along on the response's `warnings` field and never
/// changes the synthesis outcome. The analyzer is built once at startup
/// from [`ServeConfig::lint_schemas`](crate::ServeConfig) and shared by
/// every worker.
fn lint_warnings(linter: &Analyzer, p: &Pred) -> Vec<String> {
    let warnings: Vec<String> = linter.lint(p).iter().map(ToString::to_string).collect();
    sia_obs::add(
        Counter::AnalyzeLintWarnings,
        u64::try_from(warnings.len()).unwrap_or(u64::MAX),
    );
    warnings
}

/// Build a degraded fallback response: status `ok`, the *original*
/// predicate echoed back (always valid, never optimal), and the reason
/// the result is not a real synthesis.
pub(crate) fn degraded(id: &str, original_predicate: &str, reason: &str) -> Response {
    Response {
        predicate: Some(original_predicate.to_string()),
        reason: Some(reason.to_string()),
        ..degraded_body(id, Status::Ok)
    }
}

/// A degraded response skeleton with an explicit status (used for
/// timeouts and expiries, which keep their own status).
pub(crate) fn degraded_body(id: &str, status: Status) -> Response {
    Response {
        degraded: true,
        ..Response::plain(id, status)
    }
}

/// Write one response line, serialized per connection: responses are
/// written through a per-connection `Mutex<TcpStream>`, so workers and
/// the reader (which writes `overloaded` rejections) never interleave
/// partial lines. Write failures are ignored: the client has gone away,
/// and the worker must not die with it.
pub(crate) fn respond(out: &Mutex<TcpStream>, response: &Response) {
    let mut stream = lock(out);
    let _ = writeln!(stream, "{}", response.to_line());
    let _ = stream.flush();
}
