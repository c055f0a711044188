//! §6.7: the non-linearly-separable limitation, demonstrated.

use sia_core::{SiaConfig, Synthesizer};
use sia_sql::parse_predicate;

/// Synthesize over `{a}` for the paper's example
/// `a > b && a < b + 50 && b > 0 && b < 150` and describe the outcome.
/// The satisfiable region is the interval 2..=199 — FALSE samples lie on
/// *both sides* of the TRUE samples, so a single linear model cannot be
/// optimal and Sia must either emit a conjunction or give up optimality.
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
         The satisfiable region for a is [2, 199]; an optimal predicate\n\
         needs both a lower and an upper bound. Invalid single-plane\n\
         candidates are discarded by the verification step, exactly as\n\
         §6.7 describes.",
        r.predicate.as_ref().map(ToString::to_string),
        r.optimal,
        r.stats.iterations,
        r.stats.true_samples,
        r.stats.false_samples
    )
}
