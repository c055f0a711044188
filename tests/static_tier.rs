//! How much of CEGIS the prover's static tier removes on the §6.3 preset:
//! validity and feasibility questions answered before the solver is
//! reached, and whole synthesis requests discharged by static
//! zone-projection derivation, read from the tier counters of one pass
//! over the tasks. Under `--features checked` every verdict the static
//! tier gives is also re-asked of the solver. The `sia-obs` collector is
//! process-wide, so this lives alone in its own test binary.

use sia::core::{SiaConfig, Synthesizer};
use sia::obs::Counter;

#[test]
#[allow(clippy::cast_precision_loss)]
fn static_tier_prunes_and_derives_on_the_6_3_preset() {
    let work = sia_gen::paper_6_3_tasks(16, 2, 4, sia_gen::SEED_6_3_SERVE);
    sia::obs::reset();
    sia::obs::enable();
    for task in &work {
        Synthesizer::new(SiaConfig::default())
            .synthesize(&task.predicate, &task.cols)
            .expect("synthesis succeeds");
    }
    sia::obs::disable();
    let snap = sia::obs::snapshot();
    let counter = |key| snap.counter(key);

    // Prune rate over the questions the static tier may answer: validity
    // and feasibility, not sample-generation model queries.
    let (implied, unsat) = (
        counter(Counter::AnalyzeImplied),
        counter(Counter::AnalyzeUnsat),
    );
    let pruned = implied + unsat;
    let eligible = pruned + counter(Counter::AnalyzeFallbacks);
    let prune_rate = pruned as f64 / eligible.max(1) as f64;
    // Derive rate over all requests: the share the zone projection
    // discharged before sampling or learning began.
    let derived = counter(Counter::AnalyzeDeriveStatic);
    let derive_rate = derived as f64 / work.len().max(1) as f64;
    let (checks, disagreements) = (
        counter(Counter::AnalyzeChecks),
        counter(Counter::AnalyzeDisagreements),
    );
    println!(
        "{pruned} of {eligible} validity/feasibility questions static ({implied} implied, \
         {unsat} unsat) | prune rate {:.1}%",
        100.0 * prune_rate
    );
    println!(
        "{derived} of {} requests static ({:.1}%), {} partial, {} miss",
        work.len(),
        100.0 * derive_rate,
        counter(Counter::AnalyzeDerivePartial),
        counter(Counter::AnalyzeDeriveMiss)
    );
    println!("{checks} verdicts cross-checked, {disagreements} disagreements");

    assert!(
        prune_rate >= 0.20,
        "static tier answered only {:.1}% of validity/feasibility questions (need >= 20%)",
        100.0 * prune_rate
    );
    assert!(
        derive_rate >= 0.30,
        "static derivation discharged only {:.1}% of requests (need >= 30%)",
        100.0 * derive_rate
    );
    if cfg!(feature = "checked") {
        assert!(checks >= 1, "the checked build audited no static verdict");
        assert_eq!(disagreements, 0, "analyzer/solver disagreements");
    }
}
