//! Static-analyzer benchmark: how much of CEGIS synthesis the static tier
//! of the prover removes on the TPC-H predicate workload — validity and
//! feasibility questions answered before the solver is reached, whole
//! synthesis requests discharged by static zone-projection derivation — read
//! from the tier counters of a single run. Results land in
//! `BENCH_analyze.json`.
//!
//! The reference for "the analyzer only moves cost, never results" is the
//! per-verdict audit: build with `--features checked` and every verdict the
//! static tier gives is re-asked of the solver while measuring, with a
//! disagreement aborting the run.
//!
//! Environment knobs: `SIA_BENCH_QUERIES` (workload size, default 24)
//! and `SIA_BENCH_ASSERT=1` to fail the run unless the static tier answers
//! at least 20% of validity/feasibility questions and static derivation
//! discharges at least 30% of synthesis requests — both with zero recorded
//! soundness disagreements.

use std::time::Instant;

use sia_bench::soak::counter;
use sia_bench::util;
use sia_core::{SiaConfig, Synthesizer};
use sia_obs::Counter;

#[allow(clippy::cast_precision_loss)]
fn main() {
    let count = util::env_usize("SIA_BENCH_QUERIES", 24);
    // The §6.3 preset (same seed and term range as `exp_serve`).
    let work = sia_gen::paper_6_3_tasks(count, 2, 4, sia_gen::SEED_6_3_SERVE);
    println!(
        "== analyze benchmark: {} synthesis tasks from {count} workload queries ==",
        work.len()
    );

    sia_obs::reset();
    sia_obs::enable();
    let start = Instant::now();
    for task in &work {
        Synthesizer::new(SiaConfig::default())
            .synthesize(&task.predicate, &task.cols)
            .expect("synthesis succeeds");
    }
    let wall_s = start.elapsed().as_secs_f64();
    sia_obs::disable();

    let implied = counter(Counter::AnalyzeImplied);
    let unsat = counter(Counter::AnalyzeUnsat);
    let pruned = implied + unsat;
    // Prune rate over the *eligible* population: validity/feasibility
    // questions, which are the ones the static tier is allowed to answer.
    // Sample-generation model queries are out of scope by design.
    let eligible = pruned + counter(Counter::AnalyzeFallbacks);
    let prune_rate = if eligible == 0 {
        0.0
    } else {
        pruned as f64 / eligible as f64
    };
    // Derivation rate over all synthesis requests: the fraction the zone
    // projection discharged outright, before sampling or learning began.
    let tasks = work.len();
    let derive_static = counter(Counter::AnalyzeDeriveStatic);
    let derive_rate = if tasks == 0 {
        0.0
    } else {
        derive_static as f64 / tasks as f64
    };
    let smt_checks = counter(Counter::SmtChecks);
    let dead = counter(Counter::AnalyzeDisjunctsPruned);
    let partial = counter(Counter::AnalyzeDerivePartial);
    let miss = counter(Counter::AnalyzeDeriveMiss);
    let trainings = counter(Counter::SvmTrainings);
    let checks = counter(Counter::AnalyzeChecks);
    let disagreements = counter(Counter::AnalyzeDisagreements);
    println!(
        "run:     {wall_s:.2}s | {smt_checks} solver calls | {pruned} of {eligible} \
         validity/feasibility questions answered statically ({implied} implied, {unsat} unsat; \
         {dead} dead disjuncts) | prune rate {:.1}%",
        100.0 * prune_rate
    );
    println!(
        "derived: {derive_static} of {tasks} requests static ({:.1}%), {partial} partial \
         (warm start), {miss} miss | {trainings} SVM trainings",
        100.0 * derive_rate
    );
    if checks > 0 {
        println!("checked: {checks} verdicts cross-checked, {disagreements} disagreements");
    }

    let json = format!(
        "{{\"experiment\":\"analyze\",\"tasks\":{tasks},\"wall_s\":{},\
         \"smt_checks\":{smt_checks},\"eligible\":{eligible},\"pruned\":{pruned},\
         \"implied\":{implied},\"unsat\":{unsat},\"disjuncts_pruned\":{dead},\
         \"prune_rate\":{},\"derive_static\":{derive_static},\
         \"derive_partial\":{partial},\"derive_miss\":{miss},\"derive_rate\":{},\
         \"svm_trainings\":{trainings},\"checks\":{checks},\
         \"disagreements\":{disagreements},\"metrics\":{}}}\n",
        sia_obs::json_number(wall_s),
        sia_obs::json_number(prune_rate),
        sia_obs::json_number(derive_rate),
        sia_obs::snapshot().to_json()
    );
    match std::fs::write("BENCH_analyze.json", &json) {
        Ok(()) => eprintln!("results written to BENCH_analyze.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_analyze.json: {e}"),
    }

    assert_eq!(disagreements, 0, "analyzer/solver disagreements recorded");
    if util::env_usize("SIA_BENCH_ASSERT", 0) != 0 {
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
    }
}
