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
use sia_cache::{ColumnFacts, PredicateCache};
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
    // The `cache` phase is the probe and, on a hit, the answer rendered
    // from it. Lint runs unless the hit's entry linted clean under this
    // request's column facts, which is what makes a verdict repeatable:
    // lint reads a column's type, never its name.
    let cache_span = sia_obs::span("cache");
    let signature = canon.lint_signature(|c| ColumnFacts {
        real: linter.is_real(c),
        date: linter.is_date(c),
        nullable: linter.is_nullable(c),
    });
    let hit = cache.lookup(canon, &req.cols);
    let clean = hit
        .as_ref()
        .is_some_and(|h| h.clean_lint.as_ref() == Some(&signature));
    let warnings = if clean {
        Vec::new()
    } else {
        drop(cache_span);
        let _lint_span = sia_obs::span("lint");
        lint_warnings(linter, p)
    };
    if let Some(hit) = hit {
        // Lint closed the probe's span; the render is cache work again.
        let _cache_span = (!clean).then(|| sia_obs::span("cache"));
        if !clean && warnings.is_empty() {
            cache.record_clean_lint(canon, &req.cols, signature);
        }
        return Response {
            predicate: (!hit.predicate.is_true()).then(|| hit.predicate.to_string()),
            optimal: hit.optimal,
            cached: true,
            warnings,
            ..Response::plain(&req.id, Status::Ok)
        };
    }

    if let Some(bounds) = brownout_bounds(linter, p, &req.cols, brownout_level) {
        sia_obs::add(Counter::ServeBrownoutServed, 1);
        return Response {
            predicate: Some(bounds.to_string()),
            reason: Some("brownout".into()),
            warnings,
            ..degraded_body(&req.id, Status::Ok)
        };
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
            if warnings.is_empty() {
                cache.record_clean_lint(canon, &req.cols, signature);
            }
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

/// True when `cols` keeps every column of `p`: `p` is then its own exact
/// projection, which the synthesizer answers without search.
pub(crate) fn keeps_every_column(p: &Pred, cols: &[String]) -> bool {
    p.columns().iter().all(|c| cols.contains(c))
}

/// The static bounds brownout level 2+ serves, flagged degraded, in
/// place of synthesis. A request keeping every column, or one the
/// analyzer derives exactly, is not browned out: the synthesizer answers
/// both without CEGIS, and exactly.
fn brownout_bounds(linter: &Analyzer, p: &Pred, cols: &[String], level: usize) -> Option<Pred> {
    if level < 2 || keeps_every_column(p, cols) {
        return None;
    }
    match linter.derive(p, cols)? {
        Derivation::Bounds(bounds) => Some(bounds),
        Derivation::Exact(_) => None,
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

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    /// At brownout level 2+, a request keeping every column is its own
    /// exact answer and is never browned out, even where the zone tier
    /// has bounds for it; a request dropping a column still gets them.
    #[test]
    fn brownout_serves_bounds_only_to_a_projection() {
        let linter = Analyzer::new();
        let p = parse_predicate("l_extendedprice + 0.1 >= 0.3 AND a + a <> 6").unwrap();
        let cols =
            |names: &[&str]| -> Vec<String> { names.iter().map(ToString::to_string).collect() };
        let (all, one) = (cols(&["l_extendedprice", "a"]), cols(&["l_extendedprice"]));
        // The zone tier's bounds, which read the DOUBLE constants as
        // integers: not the request's exact answer.
        let zone = Some(Derivation::Bounds(
            parse_predicate("l_extendedprice >= 1").unwrap(),
        ));
        assert_eq!(linter.derive(&p, &all), zone);
        for level in [2, 3] {
            assert_eq!(brownout_bounds(&linter, &p, &all, level), None, "L{level}");
        }
        let q = parse_predicate("x < 5 AND x > y AND y + z <> 4 AND z >= 2 * y").unwrap();
        let Some(Derivation::Bounds(bounds)) = linter.derive(&q, &cols(&["x"])) else {
            panic!(
                "a projection the zone tier bounds: {:?}",
                linter.derive(&q, &cols(&["x"]))
            );
        };
        for level in [2, 3] {
            let got = brownout_bounds(&linter, &q, &cols(&["x"]), level);
            assert_eq!(got, Some(bounds.clone()), "L{level}");
        }
        assert_eq!(brownout_bounds(&linter, &q, &cols(&["x"]), 1), None);
        assert!(keeps_every_column(&p, &all) && !keeps_every_column(&p, &one));
    }
}
