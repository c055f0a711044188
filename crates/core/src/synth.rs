//! The `Synthesize` procedure (Alg 1): counter-example guided learning of
//! a valid, optimal dimensionality reduction.

use crate::cegqi;
use crate::encode::{EncodeError, PredEncoder};
use crate::learn::learn;
use crate::prove::{self, Prover};
use crate::samples::{SampleOutcome, Sampler};
use crate::verify::{unsat_region, verify_implies, Validity};
use sia_expr::{col, CmpOp, Expr, Pred};
use sia_num::BigInt;
use sia_rand::rngs::StdRng;
use sia_rand::SeedableRng;
use sia_smt::{Budget, Formula, QeConfig, VarId};
use std::time::{Duration, Instant};

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
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Learning-loop iterations executed.
    pub iterations: u32,
    /// TRUE samples at the final iteration.
    pub true_samples: usize,
    /// FALSE samples at the final iteration.
    pub false_samples: usize,
    /// Time in sample/counter-example generation (solver models + QE).
    pub generation_time: Duration,
    /// Time training SVMs.
    pub learning_time: Duration,
    /// Time in validity/optimality checks.
    pub validation_time: Duration,
}

/// Result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The synthesized valid predicate over the requested columns, or
    /// `None` when only the trivial predicate TRUE was found (the paper's
    /// NULL result).
    pub predicate: Option<Pred>,
    /// Whether the predicate was certified optimal (Lemma 4: no
    /// unsatisfaction tuple is accepted).
    pub optimal: bool,
    /// Whether the result was produced (in whole or as the dominant part)
    /// by static zone projection rather than CEGIS: either the derivation
    /// was exact and returned directly, or a partial derivation bounded
    /// the search so tightly that sampling finished it off exactly.
    pub derived_static: bool,
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
    /// An internal failure that says nothing about the request itself
    /// (today: an injected `synth.run` fault). Callers may treat it as
    /// recoverable and fall back to the original predicate.
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

/// The Sia synthesizer (Fig 5's ① component).
#[derive(Debug, Default)]
pub struct Synthesizer {
    /// Configuration.
    pub config: SiaConfig,
}

impl Synthesizer {
    /// Synthesizer with the given configuration.
    pub fn new(config: SiaConfig) -> Self {
        Synthesizer { config }
    }

    /// Synthesize a valid (ideally optimal) predicate over `cols`, implied
    /// by `p`. All columns are treated as INTEGER/DATE (integral) and
    /// `NOT NULL`.
    pub fn synthesize(
        &mut self,
        p: &Pred,
        cols: &[String],
    ) -> Result<SynthesisResult, SynthesisError> {
        let enc = &mut PredEncoder::new();
        if cols.is_empty() {
            return Err(SynthesisError::NoColumns);
        }
        let p_cols = p.columns();
        for c in cols {
            if !p_cols.contains(c) {
                return Err(SynthesisError::ColumnNotInPredicate(c.clone()));
            }
        }
        let mut stats = SynthStats::default();
        // Thread the deadline into the solver so its CDCL and simplex
        // loops poll it; the driver re-checks it between phases and
        // converts exhaustion into an explicit Timeout.
        let budget = self.config.budget;
        enc.solver().budget = budget;
        macro_rules! bail_if_exhausted {
            () => {
                if budget.is_exhausted() {
                    return Err(SynthesisError::Timeout);
                }
            };
        }
        bail_if_exhausted!();
        // Phase spans: `synth` is the root; `generate` / `learn` /
        // `verify` / `optimality` are its children, with `smt.check`,
        // `qe.eliminate`, and `svm.train` nesting below (the `--metrics`
        // breakdown). Guards close on every early return.
        let _synth_span = sia_obs::span("synth");
        // Chaos hook: an injected error/panic/stall at the very top of a
        // run, after request validation (so injected faults model
        // synthesis failures, not malformed requests). Inside the `synth`
        // span so an injected stall is attributed to synthesis time in
        // phase breakdowns, like the real stalls it stands in for.
        if let Some(msg) = sia_fault::fire("synth.run") {
            return Err(SynthesisError::Internal(msg));
        }
        let gen_span = sia_obs::span("generate");
        let gen_start = Instant::now();
        let p_f = enc.encode(p)?;
        // Degenerate: p unsatisfiable ⇒ FALSE is a valid, optimal
        // reduction (it is implied by p and rejects everything).
        if Prover(enc).unsat(p)?.0 == Validity::Valid {
            stats.generation_time += gen_start.elapsed();
            return Ok(SynthesisResult {
                predicate: Some(Pred::false_()),
                optimal: true,
                derived_static: false,
                stats,
            });
        }
        bail_if_exhausted!();
        let keep: Vec<VarId> = cols.iter().map(|c| enc.value_var(c)).collect();
        let arith_vars: Vec<VarId> = enc.columns().map(|(_, v)| v).collect();
        let others: Vec<VarId> = arith_vars
            .iter()
            .copied()
            .filter(|v| !keep.contains(v))
            .collect();
        // Tier 0: static derivation. When the difference-bound fragment of
        // `p` is rich enough, projecting its closed zone onto the target
        // columns *is* the quantifier elimination ∃ others . p — no
        // sampling, no learning, no SVM. An exact derivation is verified
        // through the exact pipeline (`verify_implies`) and returned
        // directly; a partial one (sound bounds, possibly not optimal)
        // seeds the sampler and warm-starts the CEGIS loop. Under
        // `checked`, exact discharges are additionally cross-checked
        // against a solver-computed unsatisfaction region.
        let mut warm_bounds: Option<Pred> = None;
        let derivation = {
            let _derive_span = sia_obs::span("derive");
            enc.analyzer().derive(p, cols)
        };
        match derivation {
            Some(sia_analyze::Derivation::Exact(q)) if !q.is_false() => {
                let val_start = Instant::now();
                let ok = q.is_true() || verify_implies(enc, p, &q)? == Validity::Valid;
                stats.validation_time += val_start.elapsed();
                if ok {
                    let claim = || format!("statically derived `{q}` is optimal for `{p}`");
                    let beyond = |enc: &mut PredEncoder| {
                        let region = unsat_region(&p_f, &others, &self.config.qe).ok()?;
                        Some(enc.encode(&q).ok()?.and(region))
                    };
                    prove::audit(enc, sia_obs::Counter::AnalyzeDeriveStatic, 1, claim, beyond);
                    stats.generation_time += gen_start.elapsed();
                    return Ok(SynthesisResult {
                        predicate: if q.is_true() { None } else { Some(q) },
                        optimal: true,
                        derived_static: true,
                        stats,
                    });
                }
                sia_obs::add(sia_obs::Counter::AnalyzeDeriveMiss, 1);
            }
            Some(sia_analyze::Derivation::Bounds(q)) => {
                let val_start = Instant::now();
                let ok = verify_implies(enc, p, &q)? == Validity::Valid;
                stats.validation_time += val_start.elapsed();
                if ok {
                    sia_obs::add(sia_obs::Counter::AnalyzeDerivePartial, 1);
                    warm_bounds = Some(q);
                } else {
                    sia_obs::add(sia_obs::Counter::AnalyzeDeriveMiss, 1);
                }
            }
            // Exact(FALSE) cannot be sound here — p was just proven
            // satisfiable — so like no derivation at all it is a miss, and
            // the full pipeline will surface the disagreement.
            Some(sia_analyze::Derivation::Exact(_)) | None => {
                sia_obs::add(sia_obs::Counter::AnalyzeDeriveMiss, 1);
            }
        }
        // Build the FALSE-sample machinery.
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x9e3779b97f4a7c15);
        // Cooper QE computes the unsatisfaction region once, exactly; on a
        // budget error this is None and FALSE samples come from CEGQI.
        // Statically-dead disjuncts of p are pruned first: they admit no
        // TRUE tuple, so the projection ∃ others . p is unchanged while
        // Cooper elimination skips their atoms entirely.
        let false_region: Option<Formula> = {
            let qe_f = match Prover(enc).prune_dead_disjuncts(p) {
                Some(live) => enc.encode(&live)?,
                None => p_f.clone(),
            };
            unsat_region(&qe_f, &others, &self.config.qe).ok()
        };
        let mut ts_sampler = Sampler::new(p_f.clone(), keep.clone(), SEED);
        let mut fs_sampler = false_region
            .clone()
            .map(|r| Sampler::new(r, keep.clone(), SEED ^ 1));
        let mut cegqi_seen: Vec<Vec<BigInt>> = Vec::new();
        // Closure-free helper for FALSE sampling under an extra constraint.
        // Cooper elimination with non-unit coefficients can produce regions
        // whose divisibility structure overwhelms the solver; a sampling
        // verdict of Unknown permanently degrades to the CEGQI path, which
        // only ever solves the (easy) original formula with grounded
        // candidates.
        macro_rules! false_sample {
            ($enc:expr, $extra:expr) => {{
                let mut out = match &mut fs_sampler {
                    Some(s) => s.sample_with($enc.solver(), $extra),
                    None => cegqi::false_sample(
                        $enc.solver(),
                        &p_f,
                        &keep,
                        $extra,
                        &mut cegqi_seen,
                        &mut rng,
                    ),
                };
                if matches!(out, SampleOutcome::Unknown) {
                    if let Some(s) = fs_sampler.take() {
                        cegqi_seen.extend(s.seen().iter().cloned());
                        out = cegqi::false_sample(
                            $enc.solver(),
                            &p_f,
                            &keep,
                            $extra,
                            &mut cegqi_seen,
                            &mut rng,
                        );
                    }
                }
                out
            }};
        }
        // Initial TRUE samples. A finite satisfaction region short-circuits
        // to the exact disjunction-of-equalities predicate (§5.3).
        let mut ts: Vec<Vec<BigInt>> = Vec::new();
        let mut exhausted_true = false;
        for _ in 0..self.config.initial_true {
            match ts_sampler.sample(enc.solver()) {
                SampleOutcome::Sample(t) => ts.push(t),
                SampleOutcome::Exhausted => {
                    exhausted_true = true;
                    break;
                }
                SampleOutcome::Unknown => {
                    bail_if_exhausted!();
                    break;
                }
            }
        }
        if exhausted_true {
            stats.generation_time += gen_start.elapsed();
            stats.true_samples = ts.len();
            let pred = exact_disjunction(cols, &ts);
            return Ok(SynthesisResult {
                predicate: Some(pred),
                optimal: true,
                derived_static: false,
                stats,
            });
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
        let mut fs: Vec<Vec<BigInt>> = Vec::new();
        let mut exhausted_false = false;
        for _ in 0..self.config.initial_false {
            match false_sample!(enc, &false_extra) {
                SampleOutcome::Sample(t) => fs.push(t),
                SampleOutcome::Exhausted => {
                    exhausted_false = true;
                    break;
                }
                SampleOutcome::Unknown => {
                    bail_if_exhausted!();
                    break;
                }
            }
        }
        // Accumulate (never overwrite) so the initial segment and every
        // later counter-example round all contribute to the total.
        stats.generation_time += gen_start.elapsed();
        drop(gen_span);
        sia_obs::add(sia_obs::Counter::CegisTrueSamples, ts.len() as u64);
        sia_obs::add(sia_obs::Counter::CegisFalseSamples, fs.len() as u64);
        if exhausted_false {
            let derived_static = warm_bounds.is_some();
            if fs.is_empty() {
                // No unsatisfaction tuple inside the warm bounds: the
                // bounds themselves (or trivial TRUE without them) are
                // already optimal.
                return Ok(SynthesisResult {
                    predicate: warm_bounds,
                    optimal: true,
                    derived_static,
                    stats,
                });
            }
            // Finite unsatisfaction set: its complement — within the warm
            // bounds when present — is the optimal reduction (§5.3).
            stats.false_samples = fs.len();
            let neg = exact_disjunction(cols, &fs).not();
            let pred = match warm_bounds {
                Some(q) => q.and(neg),
                None => neg,
            };
            return Ok(SynthesisResult {
                predicate: Some(pred),
                optimal: true,
                derived_static,
                stats,
            });
        }
        // The counter-example guided learning loop (Alg 1), warm-started
        // from any partially derived bounds. p₁ (None = trivial TRUE).
        let mut valid_pred: Option<Pred> = warm_bounds;
        let mut optimal = false;
        while stats.iterations < self.config.max_iterations {
            bail_if_exhausted!();
            stats.iterations += 1;
            sia_obs::add(sia_obs::Counter::CegisRounds, 1);
            if sia_obs::enabled() {
                #[allow(clippy::cast_precision_loss)]
                sia_obs::record(sia_obs::Hist::CegisRoundTrue, ts.len() as f64);
                #[allow(clippy::cast_precision_loss)]
                sia_obs::record(sia_obs::Hist::CegisRoundFalse, fs.len() as f64);
            }
            // Learn (Alg 2).
            let learn_start = Instant::now();
            let learned = {
                let _learn_span = sia_obs::span("learn");
                learn(cols, &ts, &fs)
            };
            stats.learning_time += learn_start.elapsed();
            let Some(learned) = learned else { break };
            // Verify (§5.5). Alg 2 routinely emits planes subsumed by
            // later ones; strip them first so p₃ and the final output
            // stay readable.
            let val_start = Instant::now();
            let (learned_pred, validity) = {
                let _verify_span = sia_obs::span("verify");
                let lp = crate::verify::remove_redundant_disjuncts(enc, &learned.pred);
                let v = verify_implies(enc, p, &lp)?;
                (lp, v)
            };
            stats.validation_time += val_start.elapsed();
            match validity {
                Validity::Valid => {
                    // CounterF (optimality probe): unsatisfaction tuples
                    // accepted by p3.
                    let _opt_span = sia_obs::span("optimality");
                    let p3 = match &valid_pred {
                        None => learned_pred.clone(),
                        Some(p1) => p1.clone().and(learned_pred.clone()),
                    };
                    let gen_start = Instant::now();
                    let p3_f = enc.encode(&p3)?;
                    let mut new_false = Vec::new();
                    let mut certified = false;
                    let mut unknown = false;
                    for _ in 0..self.config.per_iteration.max(1) {
                        match false_sample!(enc, &p3_f) {
                            SampleOutcome::Sample(t) => new_false.push(t),
                            SampleOutcome::Exhausted => {
                                certified = new_false.is_empty();
                                break;
                            }
                            SampleOutcome::Unknown => {
                                unknown = true;
                                break;
                            }
                        }
                    }
                    stats.generation_time += gen_start.elapsed();
                    if unknown {
                        bail_if_exhausted!();
                    }
                    if certified {
                        // `NotOld` hides unsatisfaction tuples we have
                        // already drawn; if p3 still accepts one of them
                        // it is not optimal (the learner could not
                        // separate it, §6.7) — and no *new* sample can
                        // drive further progress, so stop either way.
                        optimal = !fs.iter().any(|t| accepted_by(&p3, cols, t));
                        valid_pred = Some(p3);
                        break;
                    }
                    valid_pred = Some(p3);
                    if unknown || new_false.is_empty() && self.config.per_iteration == 0 {
                        break;
                    }
                    if new_false.is_empty() {
                        break;
                    }
                    sia_obs::add(sia_obs::Counter::CegisFalseSamples, new_false.len() as u64);
                    fs.extend(new_false);
                }
                Validity::Invalid => {
                    // CounterT: tuples satisfying p but rejected by the
                    // learned predicate.
                    let _gen_span = sia_obs::span("generate");
                    let gen_start = Instant::now();
                    let not_learned = enc.encode(&learned_pred)?.not();
                    let mut new_true = Vec::new();
                    for _ in 0..self.config.per_iteration.max(1) {
                        match ts_sampler.sample_with(enc.solver(), &not_learned) {
                            SampleOutcome::Sample(t) => new_true.push(t),
                            _ => break,
                        }
                    }
                    stats.generation_time += gen_start.elapsed();
                    if new_true.is_empty() {
                        bail_if_exhausted!();
                        break;
                    }
                    sia_obs::add(sia_obs::Counter::CegisTrueSamples, new_true.len() as u64);
                    ts.extend(new_true);
                }
                Validity::Unknown => {
                    bail_if_exhausted!();
                    break;
                }
            }
        }
        stats.true_samples = ts.len();
        stats.false_samples = fs.len();
        // The loop conjoins one learned predicate per iteration; strip the
        // superseded ones for readable SQL output.
        let predicate = valid_pred.map(|p| {
            let val_start = Instant::now();
            let _verify_span = sia_obs::span("verify");
            let simplified = crate::verify::remove_redundant_conjuncts(enc, &p);
            stats.validation_time += val_start.elapsed();
            simplified
        });
        Ok(SynthesisResult {
            predicate,
            optimal,
            derived_static: false,
            stats,
        })
    }
}

/// Two-valued evaluation of a predicate at a concrete integer tuple.
fn accepted_by(p: &Pred, cols: &[String], tuple: &[BigInt]) -> bool {
    use sia_expr::{eval_pred, Value};
    let m: std::collections::HashMap<String, Value> = cols
        .iter()
        .zip(tuple)
        .map(|(c, v)| {
            (
                c.clone(),
                Value::Int(v.to_i64().expect("sample value fits i64")),
            )
        })
        .collect();
    eval_pred(p, &m) == Some(true)
}

/// `⋁ᵢ (⋀ⱼ colⱼ = tᵢⱼ)` — the exact predicate for a finite tuple set.
fn exact_disjunction(cols: &[String], tuples: &[Vec<BigInt>]) -> Pred {
    Pred::or_all(tuples.iter().map(|t| {
        Pred::and_all(cols.iter().zip(t).map(|(c, v)| {
            col(c.clone()).cmp(
                CmpOp::Eq,
                Expr::int(v.to_i64().expect("sample value fits i64")),
            )
        }))
    }))
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
        assert!(r.derived_static, "expected static derivation");
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
        assert!(r.derived_static);
        assert_eq!(r.stats.iterations, 0);
    }

    #[test]
    fn synthesizes_motivating_example() {
        // §3.2: keep {a1, a2}; true region is a1-a2 ≤ 28 ∧ a2 ≤ 18.
        let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a1", "a2"])).unwrap();
        let learned = r.predicate.expect("non-trivial predicate");
        assert!(learned.over_columns(&strs(&["a1", "a2"])));
        assert_valid_on_grid(&p, &learned, &["a1", "a2", "b1"], 12);
        assert!(r.stats.iterations >= 1);
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
        assert!(!r.derived_static);
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
        // The 3-term atom keeps this outside the zone fragment so the
        // sampling pipeline actually runs.
        let p = parse_predicate("a2 + a2 - b1 < 20 AND b1 < 0").unwrap();
        let mut syn = Synthesizer::default();
        let r = syn.synthesize(&p, &strs(&["a2"])).unwrap();
        assert!(!r.derived_static);
        assert!(r.stats.true_samples > 0);
        assert!(r.stats.generation_time > Duration::ZERO);
    }

    #[test]
    fn phases_cover_the_synthesis_run() {
        sia_obs::reset();
        sia_obs::enable();
        // The doubled `a` keeps the atom outside the zone fragment so the
        // full CEGIS pipeline (and all its phase spans) runs.
        let p = parse_predicate("a + a + 10 > b + 20 AND b + 10 > 20").unwrap();
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
