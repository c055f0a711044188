//! The metric key taxonomy: every counter and histogram the stack emits.
//!
//! Keys are closed enums rather than strings so call sites cannot typo a
//! name, the collector can back each key with a fixed slot (no hashing on
//! the hot path), and the full inventory is visible in one place. Names
//! follow a `layer.metric` convention matching the crate that emits them.

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// CDCL decisions (`sat.decisions`).
    SatDecisions,
    /// CDCL conflicts analyzed (`sat.conflicts`).
    SatConflicts,
    /// CDCL unit propagations (`sat.propagations`).
    SatPropagations,
    /// CDCL restarts (`sat.restarts`).
    SatRestarts,
    /// Top-level SMT `check` calls (`smt.checks`).
    SmtChecks,
    /// Lazy DPLL(T) rounds (`smt.rounds`).
    SmtRounds,
    /// Theory lemmas learned (`smt.theory_lemmas`).
    SmtTheoryLemmas,
    /// Integer branch-and-bound nodes (`smt.bb_nodes`).
    SmtBbNodes,
    /// Simplex pivots (`simplex.pivots`).
    SimplexPivots,
    /// Simplex bound tightenings — asserts that narrowed a bound
    /// (`simplex.tightenings`).
    SimplexTightenings,
    /// Cooper variable eliminations performed (`qe.eliminations`).
    QeEliminations,
    /// SVM training runs (`svm.trainings`).
    SvmTrainings,
    /// CEGIS loop iterations (`cegis.rounds`).
    CegisRounds,
    /// TRUE samples drawn across the run (`cegis.true_samples`).
    CegisTrueSamples,
    /// FALSE samples drawn across the run (`cegis.false_samples`).
    CegisFalseSamples,
    /// Unsat certificates verified by the checker (`check.certificates`).
    CheckCertificates,
    /// RUP steps replayed during certificate checking (`check.rup_steps`).
    CheckRupSteps,
    /// Farkas multiplier sets validated (`check.farkas_lemmas`).
    CheckFarkasLemmas,
    /// Branch lemmas accepted during checking (`check.branch_lemmas`).
    CheckBranchLemmas,
    /// Requests accepted by the synthesis server (`serve.requests`).
    ServeRequests,
    /// Requests that hit their deadline and returned `Timeout`
    /// (`serve.timeouts`).
    ServeTimeouts,
    /// Requests that failed with a parse/synthesis error
    /// (`serve.errors`).
    ServeErrors,
    /// Requests rejected by admission control — queue full
    /// (`serve.rejected`).
    ServeRejected,
    /// Requests answered with a degraded fallback result — the original
    /// predicate instead of a synthesized one (`serve.degraded`).
    ServeDegraded,
    /// Worker panics caught while processing a request (`serve.panics`).
    ServePanics,
    /// Dead workers respawned by the supervisor (`serve.restarts`).
    ServeRestarts,
    /// Predicate-cache lookups answered from the cache (`cache.hits`).
    CacheHits,
    /// Predicate-cache lookups that missed (`cache.misses`).
    CacheMisses,
    /// Entries inserted into the predicate cache (`cache.inserts`).
    CacheInserts,
    /// Entries evicted from the predicate cache by the LRU policy
    /// (`cache.evictions`).
    CacheEvictions,
    /// Entries recovered from a persisted cache snapshot at load time
    /// (`cache.recovered`).
    CacheRecovered,
    /// Persisted records dropped at load time — CRC mismatch, truncated
    /// tail, or unparseable content (`cache.dropped_records`).
    CacheDroppedRecords,
    /// Faults injected by `sia-fault`, all sites and actions
    /// (`fault.injected`).
    FaultInjected,
    /// Injected faults whose action was `error` (`fault.errors`).
    FaultErrors,
    /// Injected faults whose action was `panic` (`fault.panics`).
    FaultPanics,
    /// Injected faults whose action was `delay` (`fault.delays`).
    FaultDelays,
    /// SMT validity calls skipped because the static analyzer proved the
    /// implication (`analyze.implied`).
    AnalyzeImplied,
    /// Synthesis targets the static analyzer proved unsatisfiable before
    /// any solver call (`analyze.unsat`).
    AnalyzeUnsat,
    /// Statically-dead disjuncts pruned before quantifier elimination
    /// (`analyze.disjuncts_pruned`).
    AnalyzeDisjunctsPruned,
    /// Lint warnings attached to serve responses (`analyze.lint_warnings`).
    AnalyzeLintWarnings,
    /// Analyzer verdicts cross-checked against the solver under the
    /// `checked` feature (`analyze.checks`).
    AnalyzeChecks,
    /// Cross-checks where analyzer and solver disagreed — always a bug
    /// (`analyze.disagreements`).
    AnalyzeDisagreements,
    /// Validity/feasibility checks the analyzer could not settle,
    /// answered by the solver — the denominator (together with the
    /// pruned counts) of the pre-screen hit rate (`analyze.fallbacks`).
    AnalyzeFallbacks,
    /// Synthesis requests discharged entirely by static zone projection —
    /// no sampling, learning, or SVM training ran
    /// (`analyze.derive.static`).
    AnalyzeDeriveStatic,
    /// Synthesis requests where zone projection produced sound but
    /// possibly non-optimal bounds that seeded the sampler and
    /// warm-started the learner (`analyze.derive.partial`).
    AnalyzeDerivePartial,
    /// Synthesis requests where static derivation produced nothing usable
    /// and the full CEGIS pipeline ran unaided (`analyze.derive.miss`).
    AnalyzeDeriveMiss,
    /// Traced request root spans opened via `SpanContext::begin`
    /// (`trace.roots`).
    TraceRoots,
    /// Cross-thread span-context adoptions — a pool thread attaching its
    /// work under a request's root span (`trace.adopted`).
    TraceAdopted,
    /// Torn trailing lines skipped by the trace parser — writer killed
    /// mid-line, mirroring the cache's torn-tail recovery
    /// (`trace.torn_lines`).
    TraceTornLines,
    /// Slow-request exemplars written to the slow log
    /// (`slowlog.captured`).
    SlowlogCaptured,
    /// `{"op":"stats"}` requests answered queue-free by reader threads
    /// (`serve.stats_ops`).
    ServeStatsOps,
    /// Total µs requests spent waiting in the work queue
    /// (`serve.phase.queue_us`).
    ServePhaseQueueUs,
    /// Total µs spent parsing request predicates (`serve.phase.parse_us`).
    ServePhaseParseUs,
    /// Total µs spent linting request predicates for advisory warnings
    /// (`serve.phase.lint_us`).
    ServePhaseLintUs,
    /// Total µs spent canonicalizing and probing the predicate cache
    /// (`serve.phase.cache_us`).
    ServePhaseCacheUs,
    /// Total µs spent in synthesis proper — derivation, sampling, SVM
    /// training, verification (`serve.phase.synth_us`).
    ServePhaseSynthUs,
    /// Total µs spent serializing and writing responses
    /// (`serve.phase.respond_us`).
    ServePhaseRespondUs,
    /// Total request µs not attributed to any named phase — the
    /// complement of the ≥95% phase-coverage target
    /// (`serve.phase.other_us`).
    ServePhaseOtherUs,
    /// Workload-generator requests produced (`gen.requests`).
    GenRequests,
    /// Fresh-template redraws while chasing a selectivity target
    /// (`gen.retries`).
    GenRetries,
    /// Quantile-band repairs applied to pull a draw toward its selectivity
    /// target (`gen.repairs`).
    GenRepairs,
    /// Requests that replayed an earlier template — the cache-hit knob
    /// (`gen.repeats`).
    GenRepeats,
    /// Completed soak measurement windows (`soak.windows`).
    SoakWindows,
    /// Soak responses re-checked against the solver oracle
    /// (`soak.oracle_checks`).
    SoakOracleChecks,
    /// Soundness violations found by the soak oracle — must stay zero
    /// (`soak.violations`).
    SoakViolations,
    /// Requests the soak driver gave up on after client-side retries —
    /// must stay zero (`soak.lost`).
    SoakLost,
    /// Requests whose deadline expired while queued, rejected at dequeue
    /// without running synthesis (`serve.expired`).
    ServeExpired,
    /// Requests the reader classified into the cheap lane — cache hit or
    /// statically derivable (`serve.admission.cheap`).
    ServeAdmitCheap,
    /// Requests the reader classified into the expensive lane — full
    /// CEGIS expected (`serve.admission.expensive`).
    ServeAdmitExpensive,
    /// AIMD additive raises of the admission limit
    /// (`serve.admission.increase`).
    ServeAdmissionIncrease,
    /// AIMD multiplicative cuts of the admission limit — queue delay over
    /// budget (`serve.admission.decrease`).
    ServeAdmissionDecrease,
    /// Expensive-lane requests shed under pressure while cheap requests
    /// kept flowing (`serve.admission.shed_expensive`).
    ServeAdmissionShedExpensive,
    /// Brownout ladder escalations — sustained pressure raised the level
    /// (`serve.brownout.enter`).
    ServeBrownoutEnter,
    /// Brownout ladder de-escalations after hysteresis calm
    /// (`serve.brownout.exit`).
    ServeBrownoutExit,
    /// Requests answered with static `Derivation::Bounds` under brownout
    /// instead of running synthesis (`serve.brownout.served`).
    ServeBrownoutServed,
    /// Total µs spent classifying requests at admission
    /// (`serve.phase.admit_us`).
    ServePhaseAdmitUs,
    /// Retry tokens spent by the client's retry budget
    /// (`client.retry_budget.spent`).
    ClientRetryBudgetSpent,
    /// Retries suppressed because the client's retry budget was empty
    /// (`client.retry_budget.exhausted`).
    ClientRetryBudgetExhausted,
    /// Predicates statically derived by the move-around pass
    /// (`engine.moveraround.derived`).
    EngineMoveDerived,
    /// Scans that received at least one moved predicate
    /// (`engine.moveraround.pushed`).
    EngineMovePushed,
    /// Predicates learned by synthesis at blocked join boundaries
    /// (`engine.moveraround.synthesized`).
    EngineMoveSynthesized,
    /// Join input rows avoided thanks to moved predicates
    /// (`engine.moveraround.rows_saved`).
    EngineMoveRowsSaved,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 82] = [
        Counter::SatDecisions,
        Counter::SatConflicts,
        Counter::SatPropagations,
        Counter::SatRestarts,
        Counter::SmtChecks,
        Counter::SmtRounds,
        Counter::SmtTheoryLemmas,
        Counter::SmtBbNodes,
        Counter::SimplexPivots,
        Counter::SimplexTightenings,
        Counter::QeEliminations,
        Counter::SvmTrainings,
        Counter::CegisRounds,
        Counter::CegisTrueSamples,
        Counter::CegisFalseSamples,
        Counter::CheckCertificates,
        Counter::CheckRupSteps,
        Counter::CheckFarkasLemmas,
        Counter::CheckBranchLemmas,
        Counter::ServeRequests,
        Counter::ServeTimeouts,
        Counter::ServeErrors,
        Counter::ServeRejected,
        Counter::ServeDegraded,
        Counter::ServePanics,
        Counter::ServeRestarts,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheInserts,
        Counter::CacheEvictions,
        Counter::CacheRecovered,
        Counter::CacheDroppedRecords,
        Counter::FaultInjected,
        Counter::FaultErrors,
        Counter::FaultPanics,
        Counter::FaultDelays,
        Counter::AnalyzeImplied,
        Counter::AnalyzeUnsat,
        Counter::AnalyzeDisjunctsPruned,
        Counter::AnalyzeLintWarnings,
        Counter::AnalyzeChecks,
        Counter::AnalyzeDisagreements,
        Counter::AnalyzeFallbacks,
        Counter::AnalyzeDeriveStatic,
        Counter::AnalyzeDerivePartial,
        Counter::AnalyzeDeriveMiss,
        Counter::TraceRoots,
        Counter::TraceAdopted,
        Counter::TraceTornLines,
        Counter::SlowlogCaptured,
        Counter::ServeStatsOps,
        Counter::ServePhaseQueueUs,
        Counter::ServePhaseParseUs,
        Counter::ServePhaseLintUs,
        Counter::ServePhaseCacheUs,
        Counter::ServePhaseSynthUs,
        Counter::ServePhaseRespondUs,
        Counter::ServePhaseOtherUs,
        Counter::GenRequests,
        Counter::GenRetries,
        Counter::GenRepairs,
        Counter::GenRepeats,
        Counter::SoakWindows,
        Counter::SoakOracleChecks,
        Counter::SoakViolations,
        Counter::SoakLost,
        Counter::ServeExpired,
        Counter::ServeAdmitCheap,
        Counter::ServeAdmitExpensive,
        Counter::ServeAdmissionIncrease,
        Counter::ServeAdmissionDecrease,
        Counter::ServeAdmissionShedExpensive,
        Counter::ServeBrownoutEnter,
        Counter::ServeBrownoutExit,
        Counter::ServeBrownoutServed,
        Counter::ServePhaseAdmitUs,
        Counter::ClientRetryBudgetSpent,
        Counter::ClientRetryBudgetExhausted,
        Counter::EngineMoveDerived,
        Counter::EngineMovePushed,
        Counter::EngineMoveSynthesized,
        Counter::EngineMoveRowsSaved,
    ];

    /// The key's canonical `layer.metric` name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SatDecisions => "sat.decisions",
            Counter::SatConflicts => "sat.conflicts",
            Counter::SatPropagations => "sat.propagations",
            Counter::SatRestarts => "sat.restarts",
            Counter::SmtChecks => "smt.checks",
            Counter::SmtRounds => "smt.rounds",
            Counter::SmtTheoryLemmas => "smt.theory_lemmas",
            Counter::SmtBbNodes => "smt.bb_nodes",
            Counter::SimplexPivots => "simplex.pivots",
            Counter::SimplexTightenings => "simplex.tightenings",
            Counter::QeEliminations => "qe.eliminations",
            Counter::SvmTrainings => "svm.trainings",
            Counter::CegisRounds => "cegis.rounds",
            Counter::CegisTrueSamples => "cegis.true_samples",
            Counter::CegisFalseSamples => "cegis.false_samples",
            Counter::CheckCertificates => "check.certificates",
            Counter::CheckRupSteps => "check.rup_steps",
            Counter::CheckFarkasLemmas => "check.farkas_lemmas",
            Counter::CheckBranchLemmas => "check.branch_lemmas",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeTimeouts => "serve.timeouts",
            Counter::ServeErrors => "serve.errors",
            Counter::ServeRejected => "serve.rejected",
            Counter::ServeDegraded => "serve.degraded",
            Counter::ServePanics => "serve.panics",
            Counter::ServeRestarts => "serve.restarts",
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::CacheInserts => "cache.inserts",
            Counter::CacheEvictions => "cache.evictions",
            Counter::CacheRecovered => "cache.recovered",
            Counter::CacheDroppedRecords => "cache.dropped_records",
            Counter::FaultInjected => "fault.injected",
            Counter::FaultErrors => "fault.errors",
            Counter::FaultPanics => "fault.panics",
            Counter::FaultDelays => "fault.delays",
            Counter::AnalyzeImplied => "analyze.implied",
            Counter::AnalyzeUnsat => "analyze.unsat",
            Counter::AnalyzeDisjunctsPruned => "analyze.disjuncts_pruned",
            Counter::AnalyzeLintWarnings => "analyze.lint_warnings",
            Counter::AnalyzeChecks => "analyze.checks",
            Counter::AnalyzeDisagreements => "analyze.disagreements",
            Counter::AnalyzeFallbacks => "analyze.fallbacks",
            Counter::AnalyzeDeriveStatic => "analyze.derive.static",
            Counter::AnalyzeDerivePartial => "analyze.derive.partial",
            Counter::AnalyzeDeriveMiss => "analyze.derive.miss",
            Counter::TraceRoots => "trace.roots",
            Counter::TraceAdopted => "trace.adopted",
            Counter::TraceTornLines => "trace.torn_lines",
            Counter::SlowlogCaptured => "slowlog.captured",
            Counter::ServeStatsOps => "serve.stats_ops",
            Counter::ServePhaseQueueUs => "serve.phase.queue_us",
            Counter::ServePhaseParseUs => "serve.phase.parse_us",
            Counter::ServePhaseLintUs => "serve.phase.lint_us",
            Counter::ServePhaseCacheUs => "serve.phase.cache_us",
            Counter::ServePhaseSynthUs => "serve.phase.synth_us",
            Counter::ServePhaseRespondUs => "serve.phase.respond_us",
            Counter::ServePhaseOtherUs => "serve.phase.other_us",
            Counter::GenRequests => "gen.requests",
            Counter::GenRetries => "gen.retries",
            Counter::GenRepairs => "gen.repairs",
            Counter::GenRepeats => "gen.repeats",
            Counter::SoakWindows => "soak.windows",
            Counter::SoakOracleChecks => "soak.oracle_checks",
            Counter::SoakViolations => "soak.violations",
            Counter::SoakLost => "soak.lost",
            Counter::ServeExpired => "serve.expired",
            Counter::ServeAdmitCheap => "serve.admission.cheap",
            Counter::ServeAdmitExpensive => "serve.admission.expensive",
            Counter::ServeAdmissionIncrease => "serve.admission.increase",
            Counter::ServeAdmissionDecrease => "serve.admission.decrease",
            Counter::ServeAdmissionShedExpensive => "serve.admission.shed_expensive",
            Counter::ServeBrownoutEnter => "serve.brownout.enter",
            Counter::ServeBrownoutExit => "serve.brownout.exit",
            Counter::ServeBrownoutServed => "serve.brownout.served",
            Counter::ServePhaseAdmitUs => "serve.phase.admit_us",
            Counter::ClientRetryBudgetSpent => "client.retry_budget.spent",
            Counter::ClientRetryBudgetExhausted => "client.retry_budget.exhausted",
            Counter::EngineMoveDerived => "engine.moveraround.derived",
            Counter::EngineMovePushed => "engine.moveraround.pushed",
            Counter::EngineMoveSynthesized => "engine.moveraround.synthesized",
            Counter::EngineMoveRowsSaved => "engine.moveraround.rows_saved",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A distribution of observed values (count / min / mean / max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Length of each learned CDCL clause (`sat.learned_len`).
    SatLearnedLen,
    /// Formula size ratio after/before each Cooper elimination
    /// (`qe.blowup`).
    QeBlowup,
    /// Coordinate-descent epochs per SVM training (`svm.iterations`).
    SvmIterations,
    /// Geometric margin at convergence, in the scaled feature space
    /// (`svm.margin`).
    SvmMargin,
    /// TRUE-sample pool size entering each CEGIS round
    /// (`cegis.round_true`).
    CegisRoundTrue,
    /// FALSE-sample pool size entering each CEGIS round
    /// (`cegis.round_false`).
    CegisRoundFalse,
    /// Request-queue depth observed at each enqueue
    /// (`serve.queue_depth`).
    ServeQueueDepth,
    /// End-to-end request latency in microseconds, measured at the worker
    /// (`serve.latency_us`).
    ServeLatencyUs,
    /// Per-request queue wait in microseconds, measured at dequeue
    /// (`serve.latency.queue_us`).
    ServeQueueWaitUs,
    /// Adaptive admission limit sampled at each AIMD control tick
    /// (`serve.admission.limit`).
    ServeAdmissionLimit,
    /// Per query, microseconds the move-around pass spent closing the
    /// gathered conjunction and building its abstract state
    /// (`engine.moveraround.close_us`).
    EngineMoveCloseUs,
    /// Per query, microseconds spent computing and filtering the entailed
    /// predicate of every scan (`engine.moveraround.entail_us`).
    EngineMoveEntailUs,
    /// Per query in synthesis mode, microseconds spent in the boundary
    /// section: contexts, cache lookups and syntheses
    /// (`engine.moveraround.synth_us`).
    EngineMoveSynthUs,
}

impl Hist {
    /// Every histogram, in display order.
    pub const ALL: [Hist; 13] = [
        Hist::SatLearnedLen,
        Hist::QeBlowup,
        Hist::SvmIterations,
        Hist::SvmMargin,
        Hist::CegisRoundTrue,
        Hist::CegisRoundFalse,
        Hist::ServeQueueDepth,
        Hist::ServeLatencyUs,
        Hist::ServeQueueWaitUs,
        Hist::ServeAdmissionLimit,
        Hist::EngineMoveCloseUs,
        Hist::EngineMoveEntailUs,
        Hist::EngineMoveSynthUs,
    ];

    /// The key's canonical `layer.metric` name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SatLearnedLen => "sat.learned_len",
            Hist::QeBlowup => "qe.blowup",
            Hist::SvmIterations => "svm.iterations",
            Hist::SvmMargin => "svm.margin",
            Hist::CegisRoundTrue => "cegis.round_true",
            Hist::CegisRoundFalse => "cegis.round_false",
            Hist::ServeQueueDepth => "serve.queue_depth",
            Hist::ServeLatencyUs => "serve.latency_us",
            Hist::ServeQueueWaitUs => "serve.latency.queue_us",
            Hist::ServeAdmissionLimit => "serve.admission.limit",
            Hist::EngineMoveCloseUs => "engine.moveraround.close_us",
            Hist::EngineMoveEntailUs => "engine.moveraround.entail_us",
            Hist::EngineMoveSynthUs => "engine.moveraround.synth_us",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
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
