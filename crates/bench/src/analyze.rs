//! The `analyze` gate: how much of CEGIS synthesis the static tier of the
//! prover removes on the §6.3 preset — validity and feasibility questions
//! answered before the solver is reached, whole synthesis requests
//! discharged by static zone-projection derivation — read from the tier
//! counters of a single run. Results land in `BENCH_analyze.json`.
//!
//! The reference for "the analyzer only moves cost, never results" is the
//! per-verdict audit: build with `--features checked` and every verdict the
//! static tier gives is re-asked of the solver while measuring.

use std::time::Instant;

use sia_core::{SiaConfig, Synthesizer};
use sia_obs::Counter;

use crate::util::{self, counter};
use crate::Gates;

/// Workload queries drawn from the preset (same seed and term range as
/// the `serve` gate).
const QUERIES: usize = 16;
/// Share of validity/feasibility questions the static tier must answer.
pub const MIN_PRUNE_RATE: f64 = 0.20;
/// Share of requests static derivation must discharge outright.
pub const MIN_DERIVE_RATE: f64 = 0.30;

/// Synthesize every task once, print and write the tier counters, and
/// report the missed bars.
#[allow(clippy::cast_precision_loss)]
pub fn run() -> Gates {
    let work = sia_gen::paper_6_3_tasks(QUERIES, 2, 4, sia_gen::SEED_6_3_SERVE);
    println!(
        "== analyze benchmark: {} synthesis tasks from {QUERIES} workload queries ==",
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

    util::write_results(
        "BENCH_analyze.json",
        &format!(
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
        ),
    );

    let mut gates = Gates::default();
    gates.require(
        disagreements == 0,
        format!("{disagreements} analyzer/solver disagreements recorded"),
    );
    gates.require(
        prune_rate >= MIN_PRUNE_RATE,
        format!(
            "static tier answered only {:.1}% of validity/feasibility questions (need >= 20%)",
            100.0 * prune_rate
        ),
    );
    gates.require(
        derive_rate >= MIN_DERIVE_RATE,
        format!(
            "static derivation discharged only {:.1}% of requests (need >= 30%)",
            100.0 * derive_rate
        ),
    );
    gates
}
