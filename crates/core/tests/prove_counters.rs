//! The prover's bookkeeping: every question asked lands in exactly one of
//! `analyze.implied`, `analyze.unsat` or `analyze.fallbacks`. The `sia-obs`
//! collector is process-wide, so this lives alone in its own test binary —
//! one `#[test]`, nothing to race with.

use sia_core::{Connective, PredEncoder, Prover, Tier};
use sia_obs::Counter;
use sia_sql::parse_predicate;

#[test]
fn every_question_is_counted_once() {
    sia_obs::reset();
    sia_obs::enable();
    let mut enc = PredEncoder::new();
    let mut prover = Prover(&mut enc);
    let pred = |s: &str| parse_predicate(s).unwrap();
    let motivating = pred("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0");

    // Three implications: one static, two for the solver.
    let tiers = [
        (pred("a > 20 AND b < 5"), pred("a > 10")),
        (motivating.clone(), pred("a1 - a2 <= 28")),
        (motivating.clone(), pred("a1 - a2 <= 20")),
    ]
    .map(|(p, q)| prover.implies(&p, &q).unwrap().1);
    assert_eq!(tiers, [Tier::Static, Tier::Smt, Tier::Smt]);
    // Two feasibility questions: an integer gap, and a satisfiable one.
    assert_eq!(
        prover.unsat(&pred("a > 0 AND a < 1")).unwrap().1,
        Tier::Static
    );
    assert_eq!(prover.unsat(&motivating).unwrap().1, Tier::Smt);
    // Redundancy over three conjuncts: `a < 10` goes (static), then `a < 5`
    // and `b > 0` are each asked about and kept (solver) — three questions.
    let kept = prover.drop_implied(
        vec![pred("a < 10"), pred("a < 5"), pred("b > 0")],
        Connective::And,
    );
    assert_eq!(kept, [pred("a < 5"), pred("b > 0")]);
    sia_obs::disable();

    let snap = sia_obs::snapshot();
    let counter = |key| snap.counter(key);
    assert_eq!(counter(Counter::AnalyzeImplied), 2);
    assert_eq!(counter(Counter::AnalyzeUnsat), 1);
    assert_eq!(counter(Counter::AnalyzeFallbacks), 5);
    // Under `checked` each of the three static verdicts was re-asked of the
    // solver, and none was refuted.
    let audited = if cfg!(feature = "checked") { 3 } else { 0 };
    assert_eq!(counter(Counter::AnalyzeChecks), audited);
    assert_eq!(counter(Counter::AnalyzeDisagreements), 0);
}
