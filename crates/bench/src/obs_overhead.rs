//! The `obs-overhead` gate: a microbench guarding the sia-obs overhead
//! budget ([`MAX_OVERHEAD_PCT`]), with two workloads gated independently:
//!
//! - **synth**: one synthesis run with the collector disabled vs enabled
//!   behind a no-op sink. Its request is answered by the exact-projection
//!   exit in ≈ 0.14 ms (four solver checks, ten spans, no learning loop),
//!   so it guards the cost of *enabling* observability on a short path
//!   where each span and counter flush is a visible share.
//! - **serve-hot**: the server worker's cache-hit fast path, mirrored
//!   without TCP — span-context begin/adopt/finish, the request-local
//!   phase recorder, and the parse/lint/cache spans around a
//!   canonicalizing cache hit. Here the comparison is bare code vs the
//!   instrumented path in its *production* configuration: collector
//!   disabled, request-local recorder on (responses always carry phase
//!   breakdowns). Guards the tracing machinery's cost when nobody is
//!   collecting — the overhead every request pays. The enabled+noop
//!   cost is reported for information but not gated: on a microsecond
//!   path it is dominated by sink lock traffic that only exists when an
//!   operator has turned tracing on.
//!
//! Both gates use the same burst-robust estimator: the two
//! configurations are timed as back-to-back pairs (each side itself the
//! min of a few short sub-rounds), the pair order alternates, and the
//! gate compares the *median* of the per-pair ratios. Pairing cancels
//! slow drift, min-of-sub-rounds rejects scheduler bursts inside a
//! sample, and the median discards the outlier pairs that poison
//! best-of comparisons on shared machines.

use std::time::{Duration, Instant};

use sia_cache::{canonicalize, PredicateCache};
use sia_core::{SiaConfig, Synthesizer};
use sia_sql::parse_predicate;

use crate::Gates;

/// Allowed overhead, percent.
pub const MAX_OVERHEAD_PCT: f64 = 3.0;
/// Measurement pairs for the synth gate; the serve-hot gate takes 6x as
/// many since its rounds are much shorter.
const ROUNDS: usize = 9;

fn synth_workload() -> Duration {
    let p = parse_predicate(
        "l_shipdate - o_orderdate < 20 \
         AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10 \
         AND o_orderdate < DATE '1993-06-01'",
    )
    .expect("fixed predicate parses");
    let cols = vec!["l_shipdate".to_string(), "l_commitdate".to_string()];
    let start = Instant::now();
    let mut syn = Synthesizer::new(SiaConfig {
        max_iterations: 15,
        ..SiaConfig::default()
    });
    let r = syn
        .synthesize(&p, &cols)
        .expect("fixed workload synthesizes");
    std::hint::black_box(r);
    start.elapsed()
}

/// Iterations per serve-hot sub-round. Kept short so each timed slice
/// is unlikely to absorb a whole scheduler or frequency burst; the
/// harness takes the min of several sub-rounds per sample.
const HOT_ITERS: u64 = 25;

/// The min of `k` timed runs of `f`: a burst-robust location estimate
/// for one side of a measurement pair.
fn min_of(k: usize, f: &mut dyn FnMut() -> Duration) -> Duration {
    (0..k).map(|_| f()).min().expect("k > 0")
}

const HOT_REQ: &str = "a + 10 > b + 20 AND b + 10 > 20";

/// The work a cache-hit request actually does, bare: no obs calls at
/// all. The baseline the instrumented path is compared against.
fn serve_hot_bare(cache: &PredicateCache, cols: &[String]) -> Duration {
    let start = Instant::now();
    for _ in 0..HOT_ITERS {
        let p = parse_predicate(HOT_REQ).expect("fixed request parses");
        std::hint::black_box(sia_analyze::Analyzer::new().lint(&p));
        let hit = cache.lookup(&canonicalize(&p), cols);
        assert!(hit.is_some(), "hot loop must stay on the cache-hit path");
        std::hint::black_box(hit);
    }
    start.elapsed()
}

/// The same work under the worker's per-request instrumentation:
/// span-context adoption, request-local recorder, phase spans.
fn serve_hot_instrumented(cache: &PredicateCache, cols: &[String]) -> Duration {
    let start = Instant::now();
    for i in 0..HOT_ITERS {
        let ctx = sia_obs::SpanContext::begin("serve.request", i + 1);
        let adopted = ctx.adopt();
        sia_obs::local_begin();
        sia_obs::record_complete("queue", Duration::from_micros(3));
        let p = {
            let _parse = sia_obs::span("parse");
            parse_predicate(HOT_REQ).expect("fixed request parses")
        };
        {
            let _lint = sia_obs::span("lint");
            std::hint::black_box(sia_analyze::Analyzer::new().lint(&p));
        }
        let hit = {
            let _cache = sia_obs::span("cache");
            cache.lookup(&canonicalize(&p), cols)
        };
        assert!(hit.is_some(), "hot loop must stay on the cache-hit path");
        std::hint::black_box(hit);
        std::hint::black_box(sia_obs::local_take());
        drop(adopted);
        let _ = ctx.finish();
    }
    start.elapsed()
}

/// Time two configurations as adjacent pairs and report the *median*
/// of the per-pair ratios. Each pair runs back to back, so slow drift
/// (CPU frequency, noisy neighbours) cancels within the pair; the
/// median across many pairs discards the bursts that poison min- or
/// mean-based estimates on shared machines. Pair order alternates each
/// round to cancel ordering bias. Returns the percentage by which
/// configuration `b` exceeds configuration `a`.
fn measure(
    label: &str,
    names: (&str, &str),
    rounds: usize,
    a: &mut dyn FnMut() -> Duration,
    b: &mut dyn FnMut() -> Duration,
) -> f64 {
    // Warm up both configurations (page cache, allocator, branch
    // predictors) before anything is timed.
    a();
    b();
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (ta, tb) = if round % 2 == 0 {
            let ta = a();
            let tb = b();
            (ta, tb)
        } else {
            let tb = b();
            let ta = a();
            (ta, tb)
        };
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        ratios.push(tb.as_secs_f64() / ta.as_secs_f64());
    }
    ratios.sort_by(f64::total_cmp);
    let median = if rounds.is_multiple_of(2) {
        (ratios[rounds / 2 - 1] + ratios[rounds / 2]) / 2.0
    } else {
        ratios[rounds / 2]
    };
    let overhead_pct = (median - 1.0) * 100.0;
    println!(
        "obs overhead [{label}]: {} best {:.3} ms, {} best {:.3} ms, median overhead {overhead_pct:+.2}%",
        names.0,
        best_a.as_secs_f64() * 1e3,
        names.1,
        best_b.as_secs_f64() * 1e3
    );
    overhead_pct
}

/// What one event costs with the collector on behind a [`sia_obs::NoopSink`],
/// in ns, best of five runs: a span entered and exited, and a counter
/// added, each inside an open span as in synthesis. Informational.
fn micro_costs() -> (f64, f64) {
    const N: u32 = 100_000;
    let per_event = |f: &dyn Fn()| {
        let best = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..N {
                    f();
                }
                start.elapsed()
            })
            .min()
            .expect("five runs");
        best.as_secs_f64() * 1e9 / f64::from(N)
    };
    sia_obs::reset();
    sia_obs::enable();
    sia_obs::set_sink(Box::new(sia_obs::NoopSink));
    let outer = sia_obs::span("obs.micro");
    let span_ns = per_event(&|| drop(sia_obs::span("obs.micro_span")));
    let counter_ns = per_event(&|| sia_obs::add(sia_obs::Counter::SmtChecks, 1));
    drop(outer);
    drop(sia_obs::take_sink());
    sia_obs::disable();
    sia_obs::reset();
    (span_ns, counter_ns)
}

/// Measure both workloads and report the ones over budget.
pub fn run() -> Gates {
    // Gate 1: synthesis, collector disabled vs enabled behind NoopSink.
    sia_obs::reset();
    let synth_pct = measure(
        "synth",
        ("disabled", "enabled+noop"),
        ROUNDS,
        &mut || {
            sia_obs::disable();
            min_of(3, &mut synth_workload)
        },
        &mut || {
            sia_obs::reset();
            sia_obs::enable();
            sia_obs::set_sink(Box::new(sia_obs::NoopSink));
            let t = min_of(3, &mut synth_workload);
            drop(sia_obs::take_sink());
            sia_obs::disable();
            t
        },
    );

    // Gate 2: the serve hot path, bare vs instrumented-but-disabled
    // (the production configuration). Populate the cache once so every
    // iteration is a hit.
    let cache = PredicateCache::new(64);
    let cols = vec!["a".to_string()];
    let p = parse_predicate(HOT_REQ).expect("parses");
    let reduced = parse_predicate("a >= 22").expect("parses");
    cache.insert(&canonicalize(&p), &cols, &reduced, true);
    sia_obs::disable();
    // Rounds here are ~10 ms, so alternate many of them: fine-grained
    // interleaving lets slow drift (CPU frequency, noisy neighbours)
    // hit both configurations instead of biasing one.
    let serve_pct = measure(
        "serve-hot",
        ("bare", "instrumented"),
        ROUNDS * 6,
        &mut || min_of(4, &mut || serve_hot_bare(&cache, &cols)),
        &mut || min_of(4, &mut || serve_hot_instrumented(&cache, &cols)),
    );

    // Informational only: the same hot path with the collector on.
    sia_obs::reset();
    sia_obs::enable();
    sia_obs::set_sink(Box::new(sia_obs::NoopSink));
    let enabled = serve_hot_instrumented(&cache, &cols);
    drop(sia_obs::take_sink());
    sia_obs::disable();
    eprintln!(
        "serve-hot enabled+noop (informational): {:.2} ms",
        enabled.as_secs_f64() * 1e3
    );

    let (span_ns, counter_ns) = micro_costs();
    println!(
        "obs micro-costs (enabled+noop, informational): span enter+exit {span_ns:.0} ns, \
         counter {counter_ns:.0} ns"
    );

    let mut gates = Gates::default();
    for (label, pct) in [("synth", synth_pct), ("serve-hot", serve_pct)] {
        gates.require(
            pct <= MAX_OVERHEAD_PCT,
            format!("{label} observability overhead {pct:.2}% exceeds {MAX_OVERHEAD_PCT}% budget"),
        );
    }
    gates
}
