//! The `Synthesize` procedure (Alg 1): counter-example guided learning of
//! a valid, optimal dimensionality reduction.

use crate::cegqi::FalseSource;
use crate::encode::{EncodeError, PredEncoder};
use crate::learn::{atom_directions, learn};
use crate::ledger::{Ledger, Phase};
use crate::prove::{self, Prover};
use crate::samples::{draw, SampleOutcome, Sampler};
use crate::verify::{decode_formula, unsat_region, verify_implies, Validity};
use sia_analyze::{Analyzer, Derivation};
use sia_expr::{col, CmpOp, Expr, Pred};
use sia_num::{BigInt, BigRat};
use sia_obs::Counter;
use sia_smt::{eliminate_exists, exact_shadow, Budget, Formula, QeConfig, VarId};
use std::ops::ControlFlow;
use std::time::Duration;

/// RNG seed for sample diversification: one fixed value, so the same
/// request always takes the same path to the same answer.
const SEED: u64 = 0xC0FFEE;

/// Synthesis configuration. [`SiaConfig::default`] matches the paper's
/// SIA row in Table 1 (max 41 iterations, 10+10 initial samples, 5 new
/// samples per iteration); [`SiaConfig::v1`] and [`SiaConfig::v2`] are the
/// non-iterative baselines.
#[derive(Debug, Clone)]
pub struct SiaConfig {
    /// Maximum learning-loop iterations (Alg 1's `max`).
    pub max_iterations: u32,
    /// Initial TRUE sample count.
    pub initial_true: usize,
    /// Initial FALSE sample count.
    pub initial_false: usize,
    /// Counter-examples generated per iteration.
    pub per_iteration: usize,
    /// Quantifier-elimination budgets. Over budget, FALSE samples come
    /// from [`crate::cegqi`] instead of the eliminated region.
    pub qe: QeConfig,
    /// Deadline for the whole run. Copied into the SMT solver (whose
    /// CDCL/simplex loops poll it) and checked between CEGIS phases;
    /// exhaustion surfaces as [`SynthesisError::Timeout`]. Unlimited by
    /// default.
    pub budget: Budget,
}

impl Default for SiaConfig {
    fn default() -> Self {
        SiaConfig {
            max_iterations: 41,
            initial_true: 10,
            initial_false: 10,
            per_iteration: 5,
            qe: QeConfig::default(),
            budget: Budget::unlimited(),
        }
    }
}

impl SiaConfig {
    /// The SIA_v1 baseline: one iteration, 110 + 110 initial samples.
    pub fn v1() -> Self {
        SiaConfig {
            max_iterations: 1,
            initial_true: 110,
            initial_false: 110,
            per_iteration: 0,
            ..SiaConfig::default()
        }
    }

    /// The SIA_v2 baseline: one iteration, 220 + 220 initial samples.
    pub fn v2() -> Self {
        SiaConfig {
            max_iterations: 1,
            initial_true: 220,
            initial_false: 220,
            per_iteration: 0,
            ..SiaConfig::default()
        }
    }
}

/// Timing and volume statistics for one synthesis run (Table 3, Figs 7–8).
/// The three times partition the run's phases: time charged to a phase
/// nested in another is not charged to the outer one too, so they never
/// sum past the run's wall time.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Learning-loop iterations executed.
    pub iterations: u32,
    /// TRUE samples drawn in the run.
    pub true_samples: usize,
    /// FALSE samples drawn in the run.
    pub false_samples: usize,
    /// Time in sample/counter-example generation (solver models + QE),
    /// `CounterF`'s optimality probe included.
    pub generation_time: Duration,
    /// Time in the learner (Alg 2).
    pub learning_time: Duration,
    /// Time in validity checks (a derived bound's included) and in
    /// stripping redundant planes.
    pub validation_time: Duration,
    /// Atoms of the input and of its projection — Cooper's, or the exact
    /// shadow's where one was computed — when a projection was; the
    /// projection exit declines one with more atoms than the input.
    pub projection_atoms: Option<(usize, usize)>,
}

impl std::ops::AddAssign for SynthStats {
    fn add_assign(&mut self, other: SynthStats) {
        self.iterations += other.iterations;
        self.true_samples += other.true_samples;
        self.false_samples += other.false_samples;
        self.generation_time += other.generation_time;
        self.learning_time += other.learning_time;
        self.validation_time += other.validation_time;
        self.projection_atoms = match (self.projection_atoms, other.projection_atoms) {
            (Some((i, p)), Some((j, q))) => Some((i + j, p + q)),
            (mine, theirs) => mine.or(theirs),
        };
    }
}

/// Result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The synthesized valid predicate over the requested columns, or
    /// `None` when only the trivial predicate TRUE was found (the paper's
    /// NULL result).
    pub predicate: Option<Pred>,
    /// Whether the predicate was certified optimal (Lemma 4: no
    /// unsatisfaction tuple is accepted). Every exit but [`Exit::Cegis`]
    /// answers exactly, so only a `Cegis` answer can be `false`.
    pub optimal: bool,
    /// The exit that produced the answer.
    pub exit: Exit,
    /// Run statistics.
    pub stats: SynthStats,
}

/// Why synthesis could not run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The predicate could not be encoded (non-linear, unsupported type).
    Encode(EncodeError),
    /// A requested column does not occur in the predicate, so no
    /// non-trivial reduction over it exists (Def 2 requires
    /// `Cols′ ⊆ Cols`).
    ColumnNotInPredicate(String),
    /// No target columns were given.
    NoColumns,
    /// The run's [`Budget`] deadline passed before synthesis completed.
    Timeout,
    /// An internal failure: an injected `synth.run` fault, or an exact
    /// answer holding a constant no 64-bit INTEGER literal can write.
    /// Callers may treat it as recoverable and fall back to the original
    /// predicate.
    Internal(String),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Encode(e) => write!(f, "{e}"),
            SynthesisError::ColumnNotInPredicate(c) => {
                write!(f, "column {c:?} does not occur in the predicate")
            }
            SynthesisError::NoColumns => write!(f, "no target columns given"),
            SynthesisError::Timeout => write!(f, "synthesis budget exhausted (timeout)"),
            SynthesisError::Internal(msg) => write!(f, "internal synthesis failure: {msg}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<EncodeError> for SynthesisError {
    fn from(e: EncodeError) -> Self {
        SynthesisError::Encode(e)
    }
}

/// The exit of [`Synthesizer::synthesize`] that produced an answer. The
/// variants are listed, and [`Exit::ALL`] holds them, in the order a run
/// tries them; each is counted as `synth.exit.<name>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exit {
    /// `p` is unsatisfiable: FALSE.
    Unsat,
    /// The target columns keep every column of `p`: `p` itself.
    KeepAll,
    /// The zone tier derived the projection exactly.
    Zone,
    /// Cooper's projection, decoded to a predicate.
    Projection,
    /// The exact Omega shadow of Cooper's projection.
    Shadow,
    /// The TRUE region is finite: the disjunction of its tuples.
    FiniteTrue,
    /// The FALSE region (within any warm bounds) is finite: the
    /// complement of its tuples.
    FiniteFalse,
    /// The learning loop ended; the only exit that may not be optimal.
    Cegis,
}

impl Exit {
    /// Every exit, in run order.
    pub const ALL: [Exit; 8] = [
        Exit::Unsat,
        Exit::KeepAll,
        Exit::Zone,
        Exit::Projection,
        Exit::Shadow,
        Exit::FiniteTrue,
        Exit::FiniteFalse,
        Exit::Cegis,
    ];

    /// The exit's name, as `sia synth` prints it: its counter's
    /// `synth.exit.<name>`.
    pub fn name(self) -> &'static str {
        let counter = self.counter().name();
        counter.strip_prefix("synth.exit.").unwrap_or(counter)
    }

    fn counter(self) -> Counter {
        match self {
            Exit::Unsat => Counter::SynthExitUnsat,
            Exit::KeepAll => Counter::SynthExitKeepAll,
            Exit::Zone => Counter::SynthExitZone,
            Exit::Projection => Counter::SynthExitProjection,
            Exit::Shadow => Counter::SynthExitShadow,
            Exit::FiniteTrue => Counter::SynthExitFiniteTrue,
            Exit::FiniteFalse => Counter::SynthExitFiniteFalse,
            Exit::Cegis => Counter::SynthExitCegis,
        }
    }
}

impl std::fmt::Display for Exit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one exit of the driver answers.
struct Answer {
    predicate: Option<Pred>,
    optimal: bool,
    exit: Exit,
}

/// An exact exit's answer, optimal by construction (TRUE is `None`), as
/// the `Break` that ends the run before the learning loop.
fn exact_exit<T>(exit: Exit, predicate: Pred) -> ControlFlow<Answer, T> {
    ControlFlow::Break(Answer {
        predicate: (!predicate.is_true()).then_some(predicate),
        optimal: true,
        exit,
    })
}

/// What the samplers start from once no exact exit answered.
struct Inexact {
    p_f: Formula,
    /// Solver variables of the target columns, in `cols` order.
    keep: Vec<VarId>,
    /// Sound bounds a partial zone derivation proved.
    warm_bounds: Option<Pred>,
    /// Cooper's projection, when elimination stayed within budget.
    projection: Option<Formula>,
}

/// Where the learning loop starts once neither region turned out finite.
struct Opening {
    ts_sampler: Sampler,
    falses: FalseSource,
    /// Solver variables of the target columns, in `cols` order.
    keep: Vec<VarId>,
    warm_bounds: Option<Pred>,
}

/// The Sia synthesizer (Fig 5's ① component).
#[derive(Debug, Default)]
pub struct Synthesizer {
    /// Configuration.
    pub config: SiaConfig,
    /// The caller's column facts. Only the exact-shadow exit reads them:
    /// it tightens `2x ≤ 15` to `x ≤ 7`, which is exact only over
    /// integers, so it answers only when every column of the input is
    /// declared integral. Nothing is declared by default.
    columns: Analyzer,
}

impl Synthesizer {
    /// Synthesizer with the given configuration.
    pub fn new(config: SiaConfig) -> Self {
        Synthesizer {
            config,
            columns: Analyzer::new(),
        }
    }

    /// Take the column facts the exact-shadow exit reads from `columns`
    /// (see [`Analyzer::is_declared_integral`]). Encoding is unchanged:
    /// every column is still an integer to the solver.
    #[must_use]
    pub fn with_columns(mut self, columns: Analyzer) -> Self {
        self.columns = columns;
        self
    }

    /// Synthesize a valid (ideally optimal) predicate over `cols`, implied
    /// by `p`. All columns are treated as INTEGER/DATE (integral) and
    /// `NOT NULL`.
    pub fn synthesize(
        &mut self,
        p: &Pred,
        cols: &[String],
    ) -> Result<SynthesisResult, SynthesisError> {
        if cols.is_empty() {
            return Err(SynthesisError::NoColumns);
        }
        // The answer depends on the column set, not on how it is listed.
        let mut cols = cols.to_vec();
        cols.sort();
        cols.dedup();
        let p_cols = p.columns();
        if let Some(c) = cols.iter().find(|c| !p_cols.contains(*c)) {
            return Err(SynthesisError::ColumnNotInPredicate(c.clone()));
        }
        let mut ledger = Ledger::default();
        let answer = self.run(p, &cols, &mut ledger);
        // Every run that started is counted, timed out or not, from its
        // one record.
        let stats = ledger.into_stats();
        sia_obs::add(sia_obs::Counter::CegisRounds, u64::from(stats.iterations));
        sia_obs::add(
            sia_obs::Counter::CegisTrueSamples,
            stats.true_samples as u64,
        );
        sia_obs::add(
            sia_obs::Counter::CegisFalseSamples,
            stats.false_samples as u64,
        );
        let Answer {
            predicate,
            optimal,
            exit,
        } = answer?;
        sia_obs::add(exit.counter(), 1);
        Ok(SynthesisResult {
            predicate,
            optimal,
            exit,
            stats,
        })
    }

    /// Whether every column of `p` is declared integral.
    fn integral(&self, p: &Pred) -> bool {
        p.columns()
            .iter()
            .all(|c| self.columns.is_declared_integral(c))
    }

    /// `Err(Timeout)` once the run's budget is spent.
    fn in_budget(&self) -> Result<(), SynthesisError> {
        if self.config.budget.is_exhausted() {
            return Err(SynthesisError::Timeout);
        }
        Ok(())
    }

    /// [`draw`], with an `Unknown` on a spent budget read as a timeout.
    fn draw(
        &self,
        n: usize,
        next: impl FnMut() -> SampleOutcome,
    ) -> Result<(Vec<Vec<BigInt>>, Option<SampleOutcome>), SynthesisError> {
        let (samples, stop) = draw(n, next);
        if stop == Some(SampleOutcome::Unknown) {
            self.in_budget()?;
        }
        Ok((samples, stop))
    }

    /// Alg 1 over the sorted, checked `cols`. Its exits, in the order it
    /// tries them, are [`Exit::ALL`]: the exact ones in
    /// [`Synthesizer::exact`], the finite regions in
    /// [`Synthesizer::open`], then the end of the learning loop. Every
    /// phase, sample and round is written to `ledger`.
    fn run(
        &self,
        p: &Pred,
        cols: &[String],
        ledger: &mut Ledger,
    ) -> Result<Answer, SynthesisError> {
        let enc = &mut PredEncoder::new();
        // Thread the deadline into the solver so its CDCL and simplex
        // loops poll it; the driver re-checks it between phases and
        // converts exhaustion into an explicit Timeout.
        enc.solver().budget = self.config.budget;
        self.in_budget()?;
        // Phase spans: `synth` is the root; `generate` / `learn` /
        // `verify` / `optimality` are its children (opened by
        // `Ledger::phase`), with `smt.check` and `qe.eliminate` nesting
        // below (the `--metrics` breakdown). Guards close on every early
        // return.
        let _synth_span = sia_obs::span("synth");
        // Chaos hook: an injected error/panic/stall at the very top of a
        // run, after request validation (so injected faults model
        // synthesis failures, not malformed requests). Inside the `synth`
        // span so an injected stall is attributed to synthesis time in
        // phase breakdowns, like the real stalls it stands in for.
        if let Some(msg) = sia_fault::fire("synth.run") {
            return Err(SynthesisError::Internal(msg));
        }
        let opening = ledger.phase(Phase::Generate, |ledger| {
            match self.exact(enc, p, cols, ledger)? {
                ControlFlow::Break(answer) => Ok(ControlFlow::Break(answer)),
                ControlFlow::Continue(inexact) => self.open(enc, cols, inexact, ledger),
            }
        });
        let Opening {
            mut ts_sampler,
            mut falses,
            keep,
            warm_bounds,
        } = match opening? {
            ControlFlow::Break(answer) => return Ok(answer),
            ControlFlow::Continue(opening) => opening,
        };
        // The counter-example guided learning loop (Alg 1), warm-started
        // from any partially derived bounds. p₁ (None = trivial TRUE).
        let mut valid_pred: Option<Pred> = warm_bounds;
        let mut optimal = false;
        let atoms = atom_directions(p, cols);
        let per_round = self.config.per_iteration.max(1);
        while ledger.rounds() < self.config.max_iterations {
            self.in_budget()?;
            ledger.round();
            if sia_obs::enabled() {
                let (ts, fs) = (ledger.true_samples(), ledger.false_samples());
                #[allow(clippy::cast_precision_loss)]
                sia_obs::record(sia_obs::Hist::CegisRoundTrue, ts.len() as f64);
                #[allow(clippy::cast_precision_loss)]
                sia_obs::record(sia_obs::Hist::CegisRoundFalse, fs.len() as f64);
            }
            // Learn (Alg 2), against only the FALSE samples p₁ still
            // accepts: p₃ = p₁ ∧ learned rejects the rest whatever is
            // learned, and separating them too would cost planes.
            let learned = ledger.phase(Phase::Learn, |ledger| {
                let (ts, fs) = (ledger.true_samples(), ledger.false_samples());
                Ok(match &valid_pred {
                    Some(p1) => {
                        let p1_f = enc.encode(p1)?;
                        let live: Vec<Vec<BigInt>> = fs
                            .iter()
                            .filter(|f| accepts(&p1_f, &keep, f))
                            .cloned()
                            .collect();
                        learn(cols, &atoms, ts, &live)
                    }
                    None => learn(cols, &atoms, ts, fs),
                })
            })?;
            let Some(learned) = learned else { break };
            // Every learned plane rejects the live FALSE samples and p₁
            // accepts them, so an exactly rendered plane is never one of
            // p₁'s conjuncts. One that is had its threshold saturated at
            // the `i64` range, and the next round would learn it again.
            if let Some(p1) = &valid_pred {
                if p1.conjuncts().contains(&&learned.pred) {
                    break;
                }
            }
            // Verify (§5.5). Alg 2 routinely emits planes subsumed by
            // later ones; strip them first so p₃ and the final output
            // stay readable.
            let (learned_pred, validity) = ledger.phase(Phase::Verify, |_| {
                let lp = crate::verify::remove_redundant_disjuncts(enc, &learned.pred);
                let v = verify_implies(enc, p, &lp)?;
                Ok((lp, v))
            })?;
            match validity {
                Validity::Valid => {
                    // CounterF (optimality probe): unsatisfaction tuples
                    // accepted by p3. `Break(optimal)` ends the loop.
                    let p3 = match valid_pred {
                        None => learned_pred,
                        Some(p1) => p1.and(learned_pred),
                    };
                    let step = ledger.phase(Phase::Optimality, |ledger| {
                        let p3_f = enc.encode(&p3)?;
                        let (new_false, stop) =
                            self.draw(per_round, || falses.sample_with(enc.solver(), &p3_f))?;
                        Ok(match stop {
                            // `NotOld` hides unsatisfaction tuples we
                            // have already drawn; if p3 still accepts one
                            // of them it is not optimal (the learner could
                            // not separate it, §6.7) — and no *new* sample
                            // can drive further progress, so stop either
                            // way.
                            Some(SampleOutcome::Exhausted) if new_false.is_empty() => {
                                let seen = ledger.false_samples();
                                ControlFlow::Break(!seen.iter().any(|t| accepts(&p3_f, &keep, t)))
                            }
                            Some(SampleOutcome::Unknown) => ControlFlow::Break(false),
                            _ => {
                                ledger.add_false(new_false);
                                ControlFlow::Continue(())
                            }
                        })
                    })?;
                    valid_pred = Some(p3);
                    if let ControlFlow::Break(certified) = step {
                        optimal = certified;
                        break;
                    }
                }
                Validity::Invalid => {
                    // CounterT: tuples satisfying p but rejected by the
                    // learned predicate.
                    let drew = ledger.phase(Phase::Generate, |ledger| {
                        let not_learned = enc.encode(&learned_pred)?.not();
                        let (new_true, _) = draw(per_round, || {
                            ts_sampler.sample_with(enc.solver(), &not_learned)
                        });
                        let drew = !new_true.is_empty();
                        ledger.add_true(new_true);
                        Ok(drew)
                    })?;
                    if !drew {
                        self.in_budget()?;
                        break;
                    }
                }
                Validity::Unknown => {
                    self.in_budget()?;
                    break;
                }
            }
        }
        // The loop conjoins one learned predicate per iteration; strip the
        // superseded ones for readable SQL output.
        let predicate = valid_pred.map(|p| {
            ledger.phase(Phase::Verify, |_| {
                Ok(crate::verify::remove_redundant_conjuncts(enc, &p))
            })
        });
        Ok(Answer {
            predicate: predicate.transpose()?,
            optimal,
            exit: Exit::Cegis,
        })
    }

    /// The exact exits, in the order a run tries them: `p` unsatisfiable,
    /// `cols` keeping every column of `p`, an exact zone derivation,
    /// Cooper's projection and its exact shadow. `Break` is an exit's
    /// answer; `Continue` is what the samplers start from.
    fn exact(
        &self,
        enc: &mut PredEncoder,
        p: &Pred,
        cols: &[String],
        ledger: &mut Ledger,
    ) -> Result<ControlFlow<Answer, Inexact>, SynthesisError> {
        let p_f = enc.encode(p)?;
        // Degenerate: p unsatisfiable ⇒ FALSE is a valid, optimal
        // reduction (it is implied by p and rejects everything).
        if Prover(enc).unsat(p)?.0 == Validity::Valid {
            return Ok(exact_exit(Exit::Unsat, Pred::false_()));
        }
        self.in_budget()?;
        // The strongest predicate over `cols` that p implies is
        // ∃ others . p. Keeping every column, that is p itself, exact under
        // any column type: answer it as given, before any tier reads its
        // constants as integers.
        if cols.len() == p.columns().len() {
            return Ok(exact_exit(Exit::KeepAll, p.clone()));
        }
        let keep: Vec<VarId> = cols.iter().map(|c| enc.value_var(c)).collect();
        let others: Vec<VarId> = enc
            .columns()
            .map(|(_, v)| v)
            .filter(|v| !keep.contains(v))
            .collect();
        // Static derivation. When the difference-bound fragment of `p` is
        // rich enough, projecting its closed zone onto the target columns
        // *is* the quantifier elimination ∃ others . p — no sampling, no
        // learning. An exact derivation is verified through the exact
        // pipeline (`verify_implies`) and returned directly; a partial one
        // (sound bounds, possibly not optimal) seeds the sampler and
        // warm-starts the CEGIS loop. Under `checked`, exact discharges are
        // additionally cross-checked against a solver-computed
        // unsatisfaction region. Exact(FALSE) cannot be sound here — p was
        // just proven satisfiable — so like no derivation at all it is a
        // miss, and the full pipeline will surface the disagreement.
        let derived = {
            let _derive_span = sia_obs::span("derive");
            match enc.analyzer().derive(p, cols) {
                Some(Derivation::Exact(q)) if !q.is_false() => Some((q, true)),
                Some(Derivation::Bounds(q)) => Some((q, false)),
                _ => None,
            }
        };
        let mut warm_bounds: Option<Pred> = None;
        if let Some((q, exact)) = derived {
            let valid = ledger.phase(Phase::Verify, |_| {
                Ok((exact && q.is_true()) || verify_implies(enc, p, &q)? == Validity::Valid)
            })?;
            if valid && exact {
                let claim = || format!("statically derived `{q}` is optimal for `{p}`");
                let beyond = |enc: &mut PredEncoder| {
                    let region = unsat_region(&p_f, &others, &self.config.qe).ok()?;
                    Some(enc.encode(&q).ok()?.and(region))
                };
                sia_obs::add(Counter::AnalyzeDeriveStatic, 1);
                prove::audit(enc, claim, beyond);
                return Ok(exact_exit(Exit::Zone, q));
            }
            warm_bounds = valid.then_some(q);
        }
        let derive_outcome = if warm_bounds.is_some() {
            Counter::AnalyzeDerivePartial
        } else {
            Counter::AnalyzeDeriveMiss
        };
        sia_obs::add(derive_outcome, 1);
        // Cooper QE computes the projection once, exactly; its negation is
        // the unsatisfaction region, and on a budget error FALSE samples
        // come from CEGQI. Statically-dead disjuncts of p are pruned
        // first: they admit no TRUE tuple, so the projection is unchanged
        // while Cooper elimination skips their atoms entirely.
        let qe_f = match Prover(enc).prune_dead_disjuncts(p) {
            Some(live) => enc.encode(&live)?,
            None => p_f.clone(),
        };
        let projection = eliminate_exists(&qe_f, &others, &self.config.qe).ok();
        if let Some(proj) = &projection {
            // A divisibility literal keeps Cooper's projection from being
            // a predicate. The Omega test's shadow may be the same set
            // without one; it tightens bounds as integers do, so it needs
            // every column declared integral.
            let shadow = (proj.has_divisibility() && self.integral(p))
                .then(|| exact_shadow(&qe_f, &others))
                .flatten();
            let (answer, exit) = match &shadow {
                Some(shadow) => (shadow, Exit::Shadow),
                None => (proj, Exit::Projection),
            };
            ledger.projected(atoms(&p_f), atoms(answer));
            if let Some(q) = exact_projection(enc, p, &p_f, cols, answer, proj, ledger)? {
                return Ok(exact_exit(exit, q));
            }
        }
        Ok(ControlFlow::Continue(Inexact {
            p_f,
            keep,
            warm_bounds,
            projection,
        }))
    }

    /// The sampler set-up once no exact exit answered: build both samplers
    /// and draw the initial samples into `ledger`, taking the finite exits
    /// — a finite TRUE region, then a finite FALSE region. `Break` is an
    /// exit's answer; `Continue` is where the loop starts.
    fn open(
        &self,
        enc: &mut PredEncoder,
        cols: &[String],
        inexact: Inexact,
        ledger: &mut Ledger,
    ) -> Result<ControlFlow<Answer, Opening>, SynthesisError> {
        let Inexact {
            p_f,
            keep,
            warm_bounds,
            projection,
        } = inexact;
        let false_region = projection.map(Formula::not);
        let mut ts_sampler = Sampler::new(p_f.clone(), keep.clone(), SEED);
        let mut falses = FalseSource::new(false_region, p_f, keep.clone(), SEED);
        // Initial TRUE samples. A finite satisfaction region short-circuits
        // to the exact disjunction-of-equalities predicate (§5.3).
        let (ts, stop) = self.draw(self.config.initial_true, || ts_sampler.sample(enc.solver()))?;
        ledger.add_true(ts);
        if stop == Some(SampleOutcome::Exhausted) {
            let predicate = exact_disjunction(cols, ledger.true_samples())?;
            return Ok(exact_exit(Exit::FiniteTrue, predicate));
        }
        // Initial FALSE samples. An empty unsatisfaction region means the
        // trivial predicate TRUE is already optimal — nothing useful to
        // synthesize (the paper's NULL result, and the negative case of
        // the case study's "symbolically relevant" test).
        // A partial derivation `q` restricts sampling to its interior: any
        // unsatisfaction tuple outside q is already rejected by q, so only
        // the ones q still accepts can drive further progress.
        let false_extra = match &warm_bounds {
            Some(q) => enc.encode(q)?,
            None => Formula::True,
        };
        let (fs, stop) = self.draw(self.config.initial_false, || {
            falses.sample_with(enc.solver(), &false_extra)
        })?;
        ledger.add_false(fs);
        if stop == Some(SampleOutcome::Exhausted) {
            // Finite unsatisfaction set: its complement — within the warm
            // bounds when present — is the optimal reduction (§5.3). With
            // no unsatisfaction tuple inside them, the bounds themselves
            // (or trivial TRUE without them) are already optimal.
            let bounds = warm_bounds.unwrap_or_else(Pred::true_);
            let predicate = match ledger.false_samples() {
                [] => bounds,
                fs => bounds.and(exact_disjunction(cols, fs)?.not()),
            };
            return Ok(exact_exit(Exit::FiniteFalse, predicate));
        }
        Ok(ControlFlow::Continue(Opening {
            ts_sampler,
            falses,
            keep,
            warm_bounds,
        }))
    }
}

/// `answer`, a formula equivalent to Cooper's projection `proj` of `p`
/// onto `cols` (`proj` itself or its exact shadow), as the answer when it
/// is exact: every eliminated variable is a column of `p` (not an opaque
/// quotient or product, over which the projection is that of a
/// relaxation), the decoder writes it (no divisibility literal, no
/// constant beyond `i64`), it has no more atoms than `p`, and `p`
/// provably implies the decoded predicate. `None` otherwise. Under
/// `checked` the answer is audited against `proj`.
fn exact_projection(
    enc: &mut PredEncoder,
    p: &Pred,
    p_f: &Formula,
    cols: &[String],
    answer: &Formula,
    proj: &Formula,
    ledger: &mut Ledger,
) -> Result<Option<Pred>, SynthesisError> {
    let p_cols = p.columns();
    let named: Vec<(String, VarId)> = enc.columns().map(|(c, v)| (c.to_string(), v)).collect();
    if named.iter().any(|(c, _)| !p_cols.contains(c)) || atoms(answer) > atoms(p_f) {
        return Ok(None);
    }
    let kept: Vec<(&str, VarId)> = named
        .iter()
        .filter(|(c, _)| cols.contains(c))
        .map(|(c, v)| (c.as_str(), *v))
        .collect();
    let Ok(q) = decode_formula(answer, &kept) else {
        return Ok(None);
    };
    let verified = ledger.phase(Phase::Verify, |_| {
        Ok((verify_implies(enc, p, &q)? == Validity::Valid)
            .then(|| crate::verify::remove_redundant_conjuncts(enc, &q)))
    })?;
    let Some(q) = verified else {
        return Ok(None);
    };
    let claim = || format!("`{q}` is the projection of `{p}` onto {cols:?}");
    let differs = |enc: &mut PredEncoder| {
        let q_f = enc.encode(&q).ok()?;
        let beyond = q_f.clone().and(proj.clone().not());
        let differs = beyond.or(proj.clone().and(q_f.not()));
        // Over unbounded columns, branch and bound can take seconds to
        // refute a divisibility literal's negation (a shadow's audit);
        // Cooper decides the closed sentence `∃ cols . differs` outright.
        if !proj.has_divisibility() {
            return Some(differs);
        }
        let closed = eliminate_exists(&differs, &differs.vars(), &QeConfig::default());
        Some(closed.unwrap_or(differs))
    };
    prove::audit(enc, claim, differs);
    Ok(Some(q))
}

/// The arithmetic and divisibility literals of `f`.
fn atoms(f: &Formula) -> usize {
    match f {
        Formula::True | Formula::False => 0,
        Formula::And(fs) | Formula::Or(fs) => fs.iter().map(atoms).sum(),
        Formula::Not(g) => atoms(g),
        _ => 1,
    }
}

/// Whether the encoded predicate `f` accepts `tuple` (the values of
/// `keep`, in order), in exact arithmetic: a sample need not fit an `i64`.
fn accepts(f: &Formula, keep: &[VarId], tuple: &[BigInt]) -> bool {
    let value = |v: VarId| {
        keep.iter()
            .position(|&k| k == v)
            .map_or_else(BigRat::zero, |i| BigRat::from_int(tuple[i].clone()))
    };
    f.eval(&value, &|_| false)
}

/// `⋁ᵢ (⋀ⱼ colⱼ = tᵢⱼ)` — the exact predicate for a finite tuple set, or
/// [`SynthesisError::Internal`] when a value has no INTEGER literal.
fn exact_disjunction(cols: &[String], tuples: &[Vec<BigInt>]) -> Result<Pred, SynthesisError> {
    let eq = |(c, v): (&String, &BigInt)| match v.to_i64() {
        Some(v) => Ok(col(c.clone()).cmp(CmpOp::Eq, Expr::int(v))),
        None => Err(SynthesisError::Internal(format!(
            "the exact answer needs {c} = {v}, which no 64-bit INTEGER literal writes"
        ))),
    };
    let conjunctions = tuples.iter().map(|t| {
        let literals = cols.iter().zip(t).map(eq);
        literals.collect::<Result<Vec<_>, _>>().map(Pred::and_all)
    });
    Ok(Pred::or_all(conjunctions.collect::<Result<Vec<_>, _>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{eval_pred, Value};
    use sia_sql::parse_predicate;
    use std::collections::HashMap;

    fn strs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Check `p ⇒ learned` by sampling the integer grid.
    fn assert_valid_on_grid(p: &Pred, learned: &Pred, cols3: &[&str], range: i64) {
        for a in -range..=range {
            for b in -range..=range {
                for c in -range..=range {
                    let m: HashMap<String, Value> = cols3
                        .iter()
                        .zip([a, b, c])
                        .map(|(n, v)| (n.to_string(), Value::Int(v)))
                        .collect();
                    if eval_pred(p, &m) == Some(true) {
                        assert_eq!(
                            eval_pred(learned, &m),
                            Some(true),
                            "tuple ({a},{b},{c}) satisfies p but not {learned}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn synthesizes_on_introduction_example() {
        // Q1 from §1: A.val + 10 > B.val + 20 AND B.val + 10 > 20, keep
        // A.val. Satisfiable B.val requires B.val > 10, so A.val > B.val +
        // 10 > 20: optimal reduction is A.val ≥ 22 (integers: A.val+10 >
        // B.val+20 with B.val ≥ 11 → A.val > 21).
        let p = parse_predicate("a + 10 > b + 20 AND b + 10 > 20").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        let learned = r.predicate.expect("non-trivial predicate");
        // Validity on a grid.
        for a in -50i64..=50 {
            for b in -50i64..=50 {
                let m: HashMap<String, Value> = [
                    ("a".to_string(), Value::Int(a)),
                    ("b".to_string(), Value::Int(b)),
                ]
                .into_iter()
                .collect();
                if eval_pred(&p, &m) == Some(true) {
                    assert_eq!(eval_pred(&learned, &m), Some(true), "violated at ({a},{b})");
                }
            }
        }
        // Optimality: a = 21 is an unsatisfaction tuple and must be
        // rejected when certified optimal.
        if r.optimal {
            let at21: HashMap<String, Value> =
                [("a".to_string(), Value::Int(21))].into_iter().collect();
            assert_eq!(eval_pred(&learned, &at21), Some(false));
            let at22: HashMap<String, Value> =
                [("a".to_string(), Value::Int(22))].into_iter().collect();
            assert_eq!(eval_pred(&learned, &at22), Some(true));
        }
    }

    #[test]
    fn zone_fragment_is_discharged_statically() {
        // Pure difference-bound predicate: the zone projection is the
        // exact quantifier elimination, so no CEGIS iteration runs and
        // the result is certified optimal up front.
        let p = parse_predicate("a + 10 > b + 20 AND b + 10 > 20").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        assert_eq!(r.exit, Exit::Zone);
        assert!(r.optimal);
        assert_eq!(r.stats.iterations, 0);
        let learned = r.predicate.expect("non-trivial predicate");
        for (v, expect) in [(21i64, false), (22, true), (1000, true)] {
            let m: HashMap<String, Value> =
                [("a".to_string(), Value::Int(v))].into_iter().collect();
            assert_eq!(eval_pred(&learned, &m), Some(expect), "at a={v}");
        }
    }

    #[test]
    fn partial_derivation_warm_starts_the_loop() {
        // One conjunct is outside the zone fragment, so derivation can
        // only bound the answer (a2 ≤ 18); the bound must survive into
        // the final predicate no matter what the learner adds.
        let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a1", "a2"])).unwrap();
        let learned = r.predicate.expect("non-trivial predicate");
        let m: HashMap<String, Value> = [
            ("a1".to_string(), Value::Int(0)),
            ("a2".to_string(), Value::Int(19)),
        ]
        .into_iter()
        .collect();
        assert_eq!(eval_pred(&learned, &m), Some(false), "a2 = 19 is unsat");
        assert_valid_on_grid(&p, &learned, &["a1", "a2", "b1"], 12);
    }

    #[test]
    fn total_zone_region_is_discharged_as_trivial() {
        // ∃b . a < b is TRUE for every a: the projection is exactly TRUE,
        // so the NULL result is certified without any sampling.
        let p = parse_predicate("a < b").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        assert!(r.predicate.is_none());
        assert!(r.optimal);
        assert_eq!(r.exit, Exit::Zone);
        assert_eq!(r.stats.iterations, 0);
    }

    /// `p` onto `cols` is answered by `exit`, an exact projection (Cooper's
    /// or `p` itself), rendered as `expect`: no sampling, no learning.
    fn assert_projected(p: &str, cols: &[&str], exit: Exit, expect: &str) {
        let r = Synthesizer::default()
            .synthesize(&parse_predicate(p).unwrap(), &strs(cols))
            .unwrap();
        let answer = r.predicate.as_ref().map(ToString::to_string);
        assert_eq!(answer.as_deref(), Some(expect), "{p}");
        assert!(r.optimal && r.exit == exit, "{p}: {r:?}");
        assert_eq!((r.stats.iterations, r.stats.true_samples), (0, 0), "{p}");
    }

    #[test]
    fn synthesizes_motivating_example() {
        // §3.2: keep {a1, a2}; true region is a1-a2 ≤ 28 ∧ a2 ≤ 18. b1's
        // coefficients are all ±1, so that is the exact projection.
        assert_projected(
            "a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0",
            &["a1", "a2"],
            Exit::Projection,
            "a1 - a2 <= 28 AND a2 <= 18",
        );
        // Scaling b1 by 3 leaves a divisibility literal in the projection,
        // so the learning loop runs.
        let p =
            parse_predicate("a1 - a2 < 3 * b1 + 10 AND a2 <= 18 AND b1 < 0 AND b1 > -5").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a1", "a2"])).unwrap();
        let learned = r.predicate.expect("non-trivial predicate");
        assert!(learned.over_columns(&strs(&["a1", "a2"])));
        assert_valid_on_grid(&p, &learned, &["a1", "a2", "b1"], 12);
        assert!(r.stats.iterations >= 1);
    }

    #[test]
    fn an_exact_projection_is_the_answer() {
        // Primitive integer form, one-column atoms plain: Cooper's
        // `-2*a + 43 < 0` reads `a >= 22`.
        let projection = Exit::Projection;
        assert_projected(
            "a + a + 10 > 3 * b + 20 AND b + 10 > 20",
            &["a"],
            projection,
            "a >= 22",
        );
        assert_projected(
            "a + a <> 6 AND b > 0",
            &["a"],
            projection,
            "a <= 2 OR a >= 4",
        );
        // Keeping every column answers the input with its own literals,
        // which an integer reading of its DOUBLE constant would round.
        assert_projected(
            "l_extendedprice <= 55444.21 AND l_orderkey + l_linenumber > 3",
            &["l_extendedprice", "l_linenumber", "l_orderkey"],
            Exit::KeepAll,
            "l_extendedprice <= 55444.21 AND l_orderkey + l_linenumber > 3",
        );
        // Before the zone tier, which reads the constants as integers and
        // would answer `l_extendedprice >= 1` (0.5 passes the input).
        assert_projected(
            "l_extendedprice + 0.1 >= 0.3",
            &["l_extendedprice"],
            Exit::KeepAll,
            "l_extendedprice + 0.1 >= 0.3",
        );
        // Declined: a divisibility literal, an eliminated quotient (whose
        // projection is that of a relaxation: a = 21 passes the input), a
        // constant past `i64`, and more atoms than the input.
        for (p, cols, exit) in [
            (
                "2 * n_nationkey <= 5 * r_name AND r_name <= 3",
                "n_nationkey",
                Exit::Cegis,
            ),
            ("a / 2 <= 10 AND b < 5", "a", Exit::FiniteFalse),
            (
                "a - 9223372036854775807 - 9223372036854775807 > 3 * b AND b > 1 AND b < 3",
                "a",
                Exit::Cegis,
            ),
            ("a + a <> 6 AND b > 0 AND b > a", "a", Exit::FiniteFalse),
        ] {
            let r = Synthesizer::default()
                .synthesize(&parse_predicate(p).unwrap(), &strs(&[cols]))
                .unwrap();
            assert_eq!(r.exit, exit, "{p}: {r:?}");
            assert!(r.stats.true_samples > 0, "{p}: {r:?}");
        }
    }

    /// `p` onto `cols` with every column declared integral.
    fn synthesize_integral(p: &str, cols: &[&str]) -> SynthesisResult {
        let p = parse_predicate(p).unwrap();
        let columns = Analyzer::new().with_integral(p.columns());
        Synthesizer::default()
            .with_columns(columns)
            .synthesize(&p, &strs(cols))
            .unwrap()
    }

    /// `answer` is the exact projection of `p` onto the first `kept` of
    /// `grid`'s columns, judged by `eval_pred` at every point of the grid:
    /// it accepts a point of the kept columns exactly when some point of
    /// the other columns' ranges makes `p` TRUE.
    fn assert_exact_on_grid(p: &str, answer: &Pred, kept: usize, grid: &[(&str, i64, i64)]) {
        let p = parse_predicate(p).unwrap();
        fn walk(
            grid: &[(&str, i64, i64)],
            m: &mut HashMap<String, Value>,
            f: &mut dyn FnMut(&HashMap<String, Value>) -> bool,
        ) -> bool {
            let Some(((name, lo, hi), rest)) = grid.split_first() else {
                return f(m);
            };
            (*lo..=*hi).any(|v| {
                m.insert(name.to_string(), Value::Int(v));
                walk(rest, m, f)
            })
        }
        let (kept_grid, others) = grid.split_at(kept);
        walk(kept_grid, &mut HashMap::new(), &mut |point| {
            let mut m = point.clone();
            let witnessed = walk(others, &mut m, &mut |all| eval_pred(&p, all) == Some(true));
            assert_eq!(
                eval_pred(answer, point),
                Some(witnessed),
                "{answer} at {point:?}"
            );
            false
        });
    }

    /// `p` onto `cols`, every column declared integral, is answered by
    /// its exact shadow, rendered as `expect` and exact on `grid` (the
    /// kept columns first): no sampling, no learning.
    fn assert_shadowed(p: &str, cols: &[&str], expect: &str, grid: &[(&str, i64, i64)]) {
        let r = synthesize_integral(p, cols);
        assert!(r.optimal && r.exit == Exit::Shadow, "{p}: {r:?}");
        assert_eq!((r.stats.iterations, r.stats.true_samples), (0, 0), "{p}");
        let q = r.predicate.expect("a non-trivial answer");
        assert_eq!(q.to_string(), expect, "{p}");
        assert_exact_on_grid(p, &q, cols.len(), grid);
    }

    #[test]
    fn an_exact_shadow_is_the_answer() {
        // Cooper's projection of each holds a divisibility literal; every
        // pair of bounds on the eliminated column has a unit side, so the
        // shadow is the projection, with none.
        let p = "2 * n_nationkey <= 5 * r_name AND r_name <= 3";
        let grid = [("n_nationkey", -3, 12), ("r_name", -10, 10)];
        assert_shadowed(p, &["n_nationkey"], "n_nationkey <= 7", &grid);
        assert_eq!(
            synthesize_integral(p, &["n_nationkey"])
                .stats
                .projection_atoms,
            Some((2, 1))
        );
        assert_shadowed(
            "a2 - 2 * b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0",
            &["a1", "a2"],
            "2 * a1 - 3 * a2 <= 37 AND a2 <= 17",
            &[("a1", 0, 30), ("a2", 10, 20), ("b1", -40, 0)],
        );
        assert_shadowed(
            "l_shipdate + l_commitdate <= 2 * o_orderdate + 100 AND o_orderdate <= 8765",
            &["l_commitdate", "l_shipdate"],
            "l_commitdate + l_shipdate <= 17630",
            &[
                ("l_commitdate", 8810, 8820),
                ("l_shipdate", 8810, 8820),
                ("o_orderdate", 8700, 8800),
            ],
        );
    }

    #[test]
    fn the_shadow_needs_declared_integral_columns_and_coinciding_shadows() {
        // Undeclared columns (a caller that declares nothing): the loop
        // runs, as it did before the shadow exit.
        let p = parse_predicate("2 * n_nationkey <= 5 * r_name AND r_name <= 3").unwrap();
        let r = Synthesizer::default()
            .synthesize(&p, &strs(&["n_nationkey"]))
            .unwrap();
        assert!(r.exit == Exit::Cegis && r.stats.true_samples > 0, "{r:?}");
        // A DOUBLE among the columns: not declared integral either.
        let columns = Analyzer::new()
            .with_integral(["n_nationkey"])
            .with_real(["r_name"]);
        let r = Synthesizer::default()
            .with_columns(columns)
            .synthesize(&p, &strs(&["n_nationkey"]))
            .unwrap();
        assert!(r.exit == Exit::Cegis && r.stats.true_samples > 0, "{r:?}");
        // 3y ≥ 2x ∧ 3y ≤ 2x + 1: the real shadow is `0 ≤ x ≤ 30` and the
        // dark one differs (x = 2 has no witness), so the shadow declines.
        let r = synthesize_integral(
            "3 * y >= 2 * x AND 3 * y <= 2 * x + 1 AND x >= 0 AND x <= 30",
            &["x"],
        );
        assert!(r.exit == Exit::Cegis && r.stats.true_samples > 0, "{r:?}");
    }

    #[test]
    fn no_useful_predicate_when_region_total() {
        // p: a < b with b unconstrained → every a-value feasible → trivial
        // TRUE is optimal, predicate is None.
        let p = parse_predicate("a < b").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        assert!(r.predicate.is_none());
        assert!(r.optimal);
    }

    #[test]
    fn unsat_predicate_yields_false() {
        let p = parse_predicate("a < 0 AND a > 0 AND b = 1").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["b"])).unwrap();
        assert_eq!(r.predicate, Some(Pred::false_()));
        assert!(r.optimal);
    }

    #[test]
    fn finite_true_region_exact() {
        // p: 0 ≤ a ≤ 2 ∧ a = b → keep {a}: finite region {0,1,2}.
        let p = parse_predicate("a >= 0 AND a <= 2 AND a = b").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        let learned = r.predicate.expect("exact predicate");
        assert!(r.optimal);
        for (v, expect) in [(0i64, true), (1, true), (2, true), (3, false), (-1, false)] {
            let m: HashMap<String, Value> =
                [("a".to_string(), Value::Int(v))].into_iter().collect();
            assert_eq!(eval_pred(&learned, &m), Some(expect), "at a={v}");
        }
    }

    /// Past `i64`: the region of `a` lies beyond 2⁶⁴, and its exact
    /// projection needs a constant no INTEGER literal writes, so the tier
    /// declines it and the loop runs.
    const BEYOND_I64: &str =
        "a - 9223372036854775807 - 9223372036854775807 > 3 * b AND b > 1 AND b < 3";

    #[test]
    fn samples_beyond_i64_are_evaluated_exactly() {
        // Keeping its one column, the request is its own answer.
        for op in [">", "=", "<>"] {
            let p = format!("a - 9223372036854775807 - 9223372036854775807 {op} 5");
            assert_projected(&p, &["a"], Exit::KeepAll, &p);
        }
        // Every TRUE tuple lies beyond 2⁶⁴, and the FALSE samples the
        // learned bound accepts lie past `i64::MAX` too. Reading either as
        // an `i64` used to panic; the answer is a valid bound instead.
        let p = parse_predicate(BEYOND_I64).unwrap();
        let mut syn = Synthesizer::new(SiaConfig {
            max_iterations: 3,
            ..SiaConfig::default()
        });
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        assert_eq!(r.predicate.unwrap().to_string(), "a >= 9223372036854775807");
        assert!(!r.optimal);
        // A finite region there has no exact answer to print: an error
        // the caller can fall back from, not a panic.
        for op in ["=", "<>"] {
            let p = parse_predicate(&BEYOND_I64.replacen('>', op, 1)).unwrap();
            let err = Synthesizer::default().synthesize(&p, &strs(&["a"]));
            assert!(
                matches!(err, Err(SynthesisError::Internal(_))),
                "{op}: {err:?}"
            );
        }
    }

    #[test]
    fn a_saturated_plane_ends_the_loop() {
        // The learned threshold lies past `i64::MAX` and renders saturated,
        // as the bound p₁ already holds: the second round learns it again
        // and stops, where it used to run to the iteration cap.
        let p = parse_predicate(BEYOND_I64).unwrap();
        let r = Synthesizer::default()
            .synthesize(&p, &strs(&["a"]))
            .unwrap();
        assert_eq!(r.predicate.unwrap().to_string(), "a >= 9223372036854775807");
        assert!(!r.optimal);
        assert!(r.stats.iterations <= 2, "{:?}", r.stats);
    }

    #[test]
    fn column_not_in_predicate_errors() {
        let p = parse_predicate("a < 5").unwrap();
        let mut syn = Synthesizer::default();
        assert_eq!(
            syn.synthesize(&p, &strs(&["zzz"])).unwrap_err(),
            SynthesisError::ColumnNotInPredicate("zzz".to_string())
        );
        assert_eq!(
            syn.synthesize(&p, &[]).unwrap_err(),
            SynthesisError::NoColumns
        );
    }

    #[test]
    fn cegqi_strategy_agrees() {
        // Non-unit coefficients keep the static tier from answering, and a
        // zero disjunct budget fails Cooper QE on its first elimination,
        // so every FALSE sample comes from CEGQI.
        let p = parse_predicate("2*a - 3*b < 5 AND b < 0 AND 0 - b < 10").unwrap();
        let mut syn = Synthesizer::new(SiaConfig {
            qe: QeConfig {
                max_disjuncts: 0,
                ..QeConfig::default()
            },
            ..SiaConfig::default()
        });
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        assert_eq!(r.exit, Exit::Cegis);
        let learned = r.predicate.expect("non-trivial predicate");
        // valid: every a the original admits is accepted (b = -1 is the
        // best witness, 2a < 2, so the satisfiable region is a ≤ 0).
        for a in -30i64..=0 {
            let m: HashMap<String, Value> =
                [("a".to_string(), Value::Int(a))].into_iter().collect();
            assert_eq!(eval_pred(&learned, &m), Some(true), "at a={a}");
        }
    }

    #[test]
    fn v1_baseline_runs_single_iteration() {
        let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
        let mut syn = Synthesizer::new(SiaConfig::v1());
        let r = syn.synthesize(&p, &strs(&["a1", "a2"])).unwrap();
        assert!(r.stats.iterations <= 1);
        // Whatever it returns must be valid (only verified predicates are
        // kept).
        if let Some(learned) = &r.predicate {
            assert_valid_on_grid(&p, learned, &["a1", "a2", "b1"], 10);
        }
    }

    #[test]
    fn limitation_non_separable_region() {
        // §6.7: a > b && a < b + 50 && b > 0 && b < 150, keep {b}: the
        // satisfiable b-region is 1..149 (finite) — handled exactly. Keep
        // {a} instead: a ∈ 2..199 (finite too). Use wider bounds so the
        // region is effectively learned, not enumerated: scale to ±10⁶.
        let p = parse_predicate("a > b AND a < b + 500000 AND b > 0 AND b < 1500000").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        // Must terminate; predicate if any must be valid at spot checks
        // (the satisfiable a-region is exactly 2..=1_999_998).
        if let Some(learned) = &r.predicate {
            for a in [2i64, 100, 400_000, 1_999_998] {
                let m: HashMap<String, Value> =
                    [("a".to_string(), Value::Int(a))].into_iter().collect();
                assert_eq!(eval_pred(learned, &m), Some(true), "at a={a}");
            }
        }
    }

    #[test]
    fn limitation_differing_shadows() {
        // §6.7 where no exact exit answers: 3y ≥ 2x ∧ 3y ≤ 2x + 1 has a
        // witness y only when x ≢ 2 (mod 3), so Cooper's projection keeps
        // a divisibility literal and the real and dark shadows differ.
        // The loop ends at the bounds `0 <= x <= 30`, valid but accepting
        // every x ≡ 2 (mod 3) in them.
        let r = synthesize_integral(
            "3 * y >= 2 * x AND 3 * y <= 2 * x + 1 AND x >= 0 AND x <= 30",
            &["x"],
        );
        assert_eq!((r.exit, r.optimal), (Exit::Cegis, false), "{r:?}");
        let learned = r.predicate.expect("a non-trivial answer");
        for (x, expect) in [
            (-1i64, false),
            (0, true),
            (2, true),
            (30, true),
            (31, false),
        ] {
            let m: HashMap<String, Value> =
                [("x".to_string(), Value::Int(x))].into_iter().collect();
            assert_eq!(eval_pred(&learned, &m), Some(expect), "{learned} at x={x}");
        }
    }

    #[test]
    fn expired_budget_times_out() {
        let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
        let mut syn = Synthesizer::new(SiaConfig {
            budget: Budget::with_deadline(Duration::ZERO),
            ..SiaConfig::default()
        });
        assert_eq!(
            syn.synthesize(&p, &strs(&["a1", "a2"])).unwrap_err(),
            SynthesisError::Timeout
        );
        // An unlimited budget on the same predicate still succeeds.
        let mut syn = Synthesizer::default();
        assert!(syn.synthesize(&p, &strs(&["a1", "a2"])).is_ok());
    }

    #[test]
    fn stats_are_populated() {
        // Projected exactly: `a2 <= 9`, and no sample drawn.
        assert_projected(
            "a2 + a2 - b1 < 20 AND b1 < 0",
            &["a2"],
            Exit::Projection,
            "a2 <= 9",
        );
        // b1's coefficient 3 leaves a divisibility literal in the
        // projection, and the 3-term atom keeps this outside the zone
        // fragment, so the sampling pipeline actually runs.
        let p = parse_predicate("2 * a2 <= 3 * b1 AND b1 <= 10 AND b1 >= 0").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a2"])).unwrap();
        assert_eq!(r.exit, Exit::Cegis);
        assert!(r.stats.true_samples > 0);
        assert!(r.stats.generation_time > Duration::ZERO);
    }

    #[test]
    fn phases_cover_the_synthesis_run() {
        assert_projected(
            "a + a + 10 > b + 20 AND b + 10 > 20",
            &["a"],
            Exit::Projection,
            "a >= 11",
        );
        sia_obs::reset();
        sia_obs::enable();
        // The doubled `a` keeps the atom outside the zone fragment, and b's
        // coefficient 3 leaves a divisibility literal in the projection, so
        // the full CEGIS pipeline (and all its phase spans) runs.
        let p = parse_predicate("2 * a <= 3 * b AND b <= 10 AND b >= 0").unwrap();
        let mut syn = Synthesizer::new(SiaConfig {
            max_iterations: 8,
            ..SiaConfig::default()
        });
        let r = syn.synthesize(&p, &strs(&["a"])).unwrap();
        sia_obs::disable();
        assert!(r.predicate.is_some());
        let snap = sia_obs::snapshot();
        // The CEGIS phases are all present and nested under the root.
        for phase in ["synth", "synth/generate", "synth/learn", "synth/verify"] {
            assert!(snap.span(phase).is_some(), "missing span {phase}");
        }
        // Solver sub-phases hang below the driver phases.
        assert!(
            snap.spans
                .iter()
                .any(|(p, _)| p.ends_with("/smt.check") && p.starts_with("synth/")),
            "smt.check not nested under a synth phase: {:?}",
            snap.spans.iter().map(|(p, _)| p).collect::<Vec<_>>()
        );
        // Per-phase attribution covers ≳95% of the run (the loop's own
        // bookkeeping is the only unattributed time).
        let cov = snap.coverage("synth").expect("root span recorded");
        assert!(cov >= 0.90, "phase coverage too low: {cov}");
        // Counters flowed up from every layer.
        let have: Vec<&str> = snap.counters.iter().map(|(c, _)| c.name()).collect();
        for key in [
            "smt.checks",
            "sat.decisions",
            "cegis.rounds",
            "cegis.true_samples",
        ] {
            assert!(have.contains(&key), "missing counter {key}: {have:?}");
        }
    }
}
