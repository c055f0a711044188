//! §6.7: the non-linearly-separable limitation, on the paper's example of
//! it and on one that no exact exit answers.

use sia_core::{Exit, SiaConfig, SynthesisResult, Synthesizer};
use sia_sql::parse_predicate;

/// Synthesize over one column for two predicates and describe each
/// outcome. The paper's example `a > b && a < b + 50 && b > 0 && b < 150`
/// onto `{a}`: over the integers the satisfiable region is the interval
/// 2..=198, so FALSE samples lie on *both sides* of the TRUE ones and no
/// single linear model over sampled points is optimal. Then `3y ≥ 2x ∧ 3y
/// ≤ 2x + 1 ∧ 0 ≤ x ≤ 30` onto `{x}`, whose region has holes (every `x ≡
/// 2 (mod 3)`), so FALSE samples lie between TRUE ones. Each verdict is
/// worded from the result: which exit answered, whether it is optimal,
/// and after how many iterations.
pub fn report() -> String {
    let paper = outcome(
        "a > b AND a < b + 50 AND b > 0 AND b < 150",
        "a",
        "The satisfiable region for a is [2, 198]; an optimal predicate\n\
         needs both a lower and an upper bound.",
    );
    let holes = outcome(
        "3 * y >= 2 * x AND 3 * y <= 2 * x + 1 AND x >= 0 AND x <= 30",
        "x",
        "x has a witness y exactly when 0 <= x <= 30 and x mod 3 is not 2:\n\
         the real and dark shadows differ, so no exact exit applies.",
    );
    format!("{paper}\n\n{holes}")
}

/// One synthesis of `predicate` onto `col`, with `region` describing its
/// satisfiable region ahead of the verdict.
fn outcome(predicate: &str, col: &str, region: &str) -> String {
    let p = parse_predicate(predicate).expect("parses");
    let r = Synthesizer::new(SiaConfig::default())
        .synthesize(&p, &[col.to_string()])
        .expect("synthesis succeeds");
    format!(
        "input: {predicate} onto {col}\n\
         predicate: {:?}\n\
         exit:      {}\n\
         optimal:   {}\n\
         iterations: {}\n\
         samples: {} TRUE / {} FALSE\n\
         \n\
         {region}\n{}",
        r.predicate.as_ref().map(ToString::to_string),
        r.exit,
        r.optimal,
        r.stats.iterations,
        r.stats.true_samples,
        r.stats.false_samples,
        verdict(&r)
    )
}

/// What one run shows about §6.7's limitation.
fn verdict(r: &SynthesisResult) -> String {
    let iterations = r.stats.iterations;
    match r.exit {
        Exit::Zone => "The static zone tier answered before any sampling: the region is\n\
             a zone, so its projection is exact and the non-separable samples\n\
             of §6.7 never arise here."
            .to_string(),
        Exit::Cegis if r.optimal => format!(
            "Sia found an optimal predicate in {iterations} iteration(s): the\n\
             learner's candidates covered both sides."
        ),
        Exit::Cegis => format!(
            "The result is valid but not optimal after {iterations} iteration(s):\n\
             single-plane candidates cannot fence FALSE samples on both sides,\n\
             the §6.7 failure."
        ),
        exact => format!(
            "The exact {exact} exit answered before the learning loop, so the\n\
             non-separable samples of §6.7 never arise here."
        ),
    }
}
