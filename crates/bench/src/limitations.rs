//! §6.7: the non-linearly-separable limitation, and what Sia does with the
//! paper's example of it.

use sia_core::{SiaConfig, SynthesisResult, Synthesizer};
use sia_sql::parse_predicate;

/// Synthesize over `{a}` for the paper's example
/// `a > b && a < b + 50 && b > 0 && b < 150` and describe the outcome.
/// Over the integers the satisfiable region is the interval 2..=198, so
/// FALSE samples lie on *both sides* of the TRUE ones and no single
/// linear model over sampled points is optimal. The verdict is worded
/// from the result: which tier answered, whether it is optimal, and after
/// how many iterations.
pub fn report() -> String {
    let p = parse_predicate("a > b AND a < b + 50 AND b > 0 AND b < 150").expect("parses");
    let mut syn = Synthesizer::new(SiaConfig::default());
    let r = syn
        .synthesize(&p, &["a".to_string()])
        .expect("synthesis succeeds");
    format!(
        "predicate: {:?}\n\
         optimal:   {}\n\
         iterations: {}\n\
         samples: {} TRUE / {} FALSE\n\
         \n\
         The satisfiable region for a is [2, 198]; an optimal predicate\n\
         needs both a lower and an upper bound. {}",
        r.predicate.as_ref().map(ToString::to_string),
        r.optimal,
        r.stats.iterations,
        r.stats.true_samples,
        r.stats.false_samples,
        verdict(&r)
    )
}

/// What this run shows about §6.7's limitation.
fn verdict(r: &SynthesisResult) -> String {
    let iterations = r.stats.iterations;
    if r.derived_static && iterations == 0 {
        "The static zone tier answered\n\
         before any sampling: the region is a zone, so its projection is\n\
         exact and the non-separable samples of §6.7 never arise here."
            .to_string()
    } else if r.optimal {
        format!(
            "Sia found an optimal predicate\n\
             in {iterations} iteration(s): the learner's candidates covered both sides."
        )
    } else {
        format!(
            "The result is valid but not\n\
             optimal after {iterations} iteration(s): single-plane candidates\n\
             cannot fence FALSE samples on both sides — the §6.7 failure."
        )
    }
}
