//! The metric key taxonomy: every counter and histogram the stack emits.
//!
//! Keys are closed enums rather than strings so call sites cannot typo a
//! name, the collector can back each key with a fixed slot (no hashing on
//! the hot path), and the full inventory is visible in one place. Names
//! follow a `layer.metric` convention matching the crate that emits them.
//!
//! A key here is library-layer work that no instance owns: solver steps,
//! CEGIS rounds, analyzer verdicts, injected faults. What a server, a
//! cache or a soak run counts about itself stays on that instance
//! (`StatsInfo`, `CacheStats`, `SoakReport`) and is not mirrored here.
//!
//! Each key is declared once, as `Variant => "layer.metric"` under its
//! doc comment; `keys!` generates the enum, `ALL` and `name()` from
//! that one list.

/// Declares a key enum from one `Variant => "name"` entry per key.
macro_rules! keys {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $( $(#[$doc:meta])* $var:ident => $name:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum $ty {
            $( $(#[$doc])* #[doc = concat!("\n\n`", $name, "`")] $var, )*
        }

        impl $ty {
            /// Every key, in display order.
            pub const ALL: [$ty; [$($ty::$var),*].len()] = [$($ty::$var),*];

            /// The key's canonical `layer.metric` name.
            pub fn name(self) -> &'static str {
                match self {
                    $( $ty::$var => $name, )*
                }
            }

            pub(crate) fn index(self) -> usize {
                self as usize
            }
        }
    };
}

keys! {
    /// A monotonically increasing event count.
    pub enum Counter {
        /// CDCL decisions.
        SatDecisions => "sat.decisions",
        /// CDCL conflicts analyzed.
        SatConflicts => "sat.conflicts",
        /// CDCL unit propagations.
        SatPropagations => "sat.propagations",
        /// CDCL restarts.
        SatRestarts => "sat.restarts",
        /// Top-level SMT `check` calls.
        SmtChecks => "smt.checks",
        /// `check` calls the bounds presolve refuted before any search
        /// (also counted in `smt.checks`).
        SmtPresolved => "smt.presolved",
        /// Lazy DPLL(T) rounds.
        SmtRounds => "smt.rounds",
        /// Theory lemmas learned.
        SmtTheoryLemmas => "smt.theory_lemmas",
        /// Integer branch-and-bound nodes.
        SmtBbNodes => "smt.bb_nodes",
        /// Simplex pivots.
        SimplexPivots => "simplex.pivots",
        /// Simplex bound tightenings — asserts that narrowed a bound.
        SimplexTightenings => "simplex.tightenings",
        /// Cooper variable eliminations performed.
        QeEliminations => "qe.eliminations",
        /// SVM training runs (the benchmark's kernel probe; synthesis does
        /// not train).
        SvmTrainings => "svm.trainings",
        /// Candidate directions the learner examined, summed over the
        /// rounds of one `learn` call.
        LearnDirections => "learn.directions",
        /// CEGIS loop iterations.
        CegisRounds => "cegis.rounds",
        /// TRUE samples drawn across the run.
        CegisTrueSamples => "cegis.true_samples",
        /// FALSE samples drawn across the run.
        CegisFalseSamples => "cegis.false_samples",
        /// Runs whose FALSE samples came from CEGQI: Cooper elimination
        /// over budget, or sampling its region answered `Unknown`. At most
        /// one per run.
        CegisCegqiFallbacks => "cegis.cegqi_fallbacks",
        /// Synthesis answers from an unsatisfiable input (FALSE). Each
        /// answer counts under exactly one `synth.exit.*` key, its exit.
        SynthExitUnsat => "synth.exit.unsat",
        /// Synthesis answers that keep every column of the input: the
        /// input itself.
        SynthExitKeepAll => "synth.exit.keep_all",
        /// Synthesis answers the zone tier derived exactly.
        SynthExitZone => "synth.exit.zone",
        /// Synthesis answers that are Cooper's projection, decoded.
        SynthExitProjection => "synth.exit.projection",
        /// Synthesis answers that are the projection's exact Omega shadow.
        SynthExitShadow => "synth.exit.shadow",
        /// Synthesis answers from a finite TRUE region.
        SynthExitFiniteTrue => "synth.exit.finite_true",
        /// Synthesis answers from a finite FALSE region.
        SynthExitFiniteFalse => "synth.exit.finite_false",
        /// Synthesis answers the learning loop ended with.
        SynthExitCegis => "synth.exit.cegis",
        /// Unsat certificates verified by the checker.
        CheckCertificates => "check.certificates",
        /// RUP steps replayed during certificate checking.
        CheckRupSteps => "check.rup_steps",
        /// Farkas multiplier sets validated.
        CheckFarkasLemmas => "check.farkas_lemmas",
        /// Branch lemmas accepted during checking.
        CheckBranchLemmas => "check.branch_lemmas",
        /// Worker panics caught while processing a request.
        ServePanics => "serve.panics",
        /// Faults injected by `sia-fault`, all sites and actions.
        FaultInjected => "fault.injected",
        /// Injected faults whose action was `error`.
        FaultErrors => "fault.errors",
        /// Injected faults whose action was `panic`.
        FaultPanics => "fault.panics",
        /// Injected faults whose action was `delay`.
        FaultDelays => "fault.delays",
        /// SMT validity calls skipped because the static analyzer proved
        /// the implication.
        AnalyzeImplied => "analyze.implied",
        /// Synthesis targets the static analyzer proved unsatisfiable
        /// before any solver call.
        AnalyzeUnsat => "analyze.unsat",
        /// Statically-dead disjuncts pruned before quantifier elimination.
        AnalyzeDisjunctsPruned => "analyze.disjuncts_pruned",
        /// Lint warnings attached to serve responses.
        AnalyzeLintWarnings => "analyze.lint_warnings",
        /// Analyzer verdicts cross-checked against the solver under the
        /// `checked` feature.
        AnalyzeChecks => "analyze.checks",
        /// Cross-checks where analyzer and solver disagreed — always a bug.
        AnalyzeDisagreements => "analyze.disagreements",
        /// Validity/feasibility checks the analyzer could not settle,
        /// answered by the solver — the denominator (together with the
        /// pruned counts) of the pre-screen hit rate.
        AnalyzeFallbacks => "analyze.fallbacks",
        /// Synthesis requests discharged entirely by static zone
        /// projection — no sampling or learning ran.
        AnalyzeDeriveStatic => "analyze.derive.static",
        /// Synthesis requests where zone projection produced sound but
        /// possibly non-optimal bounds that seeded the sampler and
        /// warm-started the learner.
        AnalyzeDerivePartial => "analyze.derive.partial",
        /// Synthesis requests where static derivation produced nothing
        /// usable and the full CEGIS pipeline ran unaided.
        AnalyzeDeriveMiss => "analyze.derive.miss",
        /// Traced request root spans opened via `SpanContext::begin`.
        TraceRoots => "trace.roots",
        /// Cross-thread span-context adoptions — a pool thread attaching
        /// its work under a request's root span.
        TraceAdopted => "trace.adopted",
        /// `{"op":"stats"}` requests answered queue-free by reader threads.
        ServeStatsOps => "serve.stats_ops",
        /// Workload-generator requests produced.
        GenRequests => "gen.requests",
        /// Fresh-template redraws while chasing a selectivity target.
        GenRetries => "gen.retries",
        /// Quantile-band repairs applied to pull a draw toward its
        /// selectivity target.
        GenRepairs => "gen.repairs",
        /// Requests that replayed an earlier template — the cache-hit knob.
        GenRepeats => "gen.repeats",
        /// Requests the reader classified into the cheap lane — cache hit
        /// or statically derivable.
        ServeAdmitCheap => "serve.admission.cheap",
        /// Requests the reader classified into the expensive lane — full
        /// CEGIS expected.
        ServeAdmitExpensive => "serve.admission.expensive",
        /// AIMD additive raises of the admission limit.
        ServeAdmissionIncrease => "serve.admission.increase",
        /// AIMD multiplicative cuts of the admission limit — queue delay
        /// over budget.
        ServeAdmissionDecrease => "serve.admission.decrease",
        /// Brownout ladder escalations — sustained pressure raised the
        /// level.
        ServeBrownoutEnter => "serve.brownout.enter",
        /// Brownout ladder de-escalations after hysteresis calm.
        ServeBrownoutExit => "serve.brownout.exit",
        /// Requests answered with static `Derivation::Bounds` under
        /// brownout instead of running synthesis.
        ServeBrownoutServed => "serve.brownout.served",
        /// Retry tokens spent by the client's retry budget.
        ClientRetryBudgetSpent => "client.retry_budget.spent",
        /// Retries suppressed because the client's retry budget was empty.
        ClientRetryBudgetExhausted => "client.retry_budget.exhausted",
    }
}

keys! {
    /// A distribution of observed values (count / min / mean / max).
    pub enum Hist {
        /// Length of each learned CDCL clause.
        SatLearnedLen => "sat.learned_len",
        /// Formula size ratio after/before each Cooper elimination.
        QeBlowup => "qe.blowup",
        /// Coordinate-descent epochs per SVM training.
        SvmIterations => "svm.iterations",
        /// Geometric margin at convergence, in the scaled feature space.
        SvmMargin => "svm.margin",
        /// TRUE-sample pool size entering each CEGIS round.
        CegisRoundTrue => "cegis.round_true",
        /// FALSE-sample pool size entering each CEGIS round.
        CegisRoundFalse => "cegis.round_false",
        /// Request-queue depth observed at each enqueue.
        ServeQueueDepth => "serve.queue_depth",
        /// Adaptive admission limit sampled at each AIMD control tick.
        ServeAdmissionLimit => "serve.admission.limit",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().all(|n| n.contains('.')));
    }

    #[test]
    fn indices_match_positions() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }
}
