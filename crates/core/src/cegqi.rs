//! Model-based FALSE-sample generation (CEGQI): the fallback behind
//! Cooper quantifier elimination.
//!
//! Instead of computing the unsatisfaction region `¬∃others.p` in closed
//! form, guess a candidate tuple over the kept columns, then ask the
//! solver whether *some* extension satisfies `p`. If yes the candidate is
//! feasible — block it and retry; if no it is an unsatisfaction tuple.
//! Sound and allocation-light, but each verdict costs a solver call and
//! exhaustion can only be certified when the candidate space itself dries
//! up. Used when QE exceeds its budget, or when sampling the eliminated
//! region comes back `Unknown`: `FalseSource` makes that switch.

use crate::samples::{differs_from, scatter_box, SampleOutcome, Sampler};
use sia_num::{BigInt, BigRat};
use sia_rand::rngs::StdRng;
use sia_rand::SeedableRng;
use sia_smt::{Formula, LinTerm, SmtResult, Solver, VarId};

/// Candidate guesses per requested sample before giving up.
const MAX_TRIES: usize = 50;

/// Where a synthesis run's FALSE samples come from: the Cooper-eliminated
/// unsatisfaction region while it answers, and [`false_sample`] from the
/// first `Unknown` on (or from the start, when elimination failed). Cooper
/// elimination with non-unit coefficients can produce regions whose
/// divisibility structure overwhelms the solver; CEGQI only ever solves
/// the (easy) original formula with grounded candidates.
#[derive(Debug)]
pub(crate) struct FalseSource {
    /// The region's sampler, until the switch to CEGQI.
    region: Option<Sampler>,
    /// The original predicate's formula.
    p: Formula,
    /// Solver variables of the target columns, in output order.
    keep: Vec<VarId>,
    /// CEGQI's `NotOld` set: every FALSE sample drawn so far.
    seen: Vec<Vec<BigInt>>,
    rng: StdRng,
}

impl FalseSource {
    /// FALSE samples of `p` over `keep`, drawn from `region` (`None` when
    /// elimination failed) while it answers.
    pub(crate) fn new(region: Option<Formula>, p: Formula, keep: Vec<VarId>, seed: u64) -> Self {
        let mut source = FalseSource {
            region: region.map(|r| Sampler::new(r, keep.clone(), seed ^ 1)),
            p,
            keep,
            seen: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        };
        if source.region.is_none() {
            source.switch_to_cegqi();
        }
        source
    }

    /// Draw one FALSE sample from `extra`, distinct from every earlier one.
    pub(crate) fn sample_with(&mut self, solver: &mut Solver, extra: &Formula) -> SampleOutcome {
        if let Some(region) = &mut self.region {
            match region.sample_with(solver, extra) {
                SampleOutcome::Unknown => self.switch_to_cegqi(),
                out => return out,
            }
        }
        false_sample(
            solver,
            &self.p,
            &self.keep,
            extra,
            &mut self.seen,
            &mut self.rng,
        )
    }

    /// Sample through CEGQI from now on, keeping the region's samples out.
    fn switch_to_cegqi(&mut self) {
        sia_obs::add(sia_obs::Counter::CegisCegqiFallbacks, 1);
        if let Some(region) = self.region.take() {
            self.seen.extend(region.seen().iter().cloned());
        }
    }
}

/// Draw one unsatisfaction tuple of `p_formula` over `keep`, subject to
/// `extra` (e.g. the current valid predicate for `CounterF`) and distinct
/// from `seen`. New samples are appended to `seen`.
pub fn false_sample(
    solver: &mut Solver,
    p_formula: &Formula,
    keep: &[VarId],
    extra: &Formula,
    seen: &mut Vec<Vec<BigInt>>,
    rng: &mut StdRng,
) -> SampleOutcome {
    let mut blocked = Formula::True;
    for attempt in 0..MAX_TRIES {
        let base = extra.clone().and(not_old(keep, seen)).and(blocked.clone());
        // Scatter on early attempts for diversity; drop it later so the
        // exhaustion check below stays authoritative.
        let candidate_formula = if attempt < MAX_TRIES / 2 {
            let scattered = base.clone().and(scatter_box(keep, rng));
            match solver.check(&scattered) {
                SmtResult::Sat(m) => Some(m),
                _ => match solver.check(&base) {
                    SmtResult::Sat(m) => Some(m),
                    SmtResult::Unsat => return SampleOutcome::Exhausted,
                    SmtResult::Unknown => None,
                },
            }
        } else {
            match solver.check(&base) {
                SmtResult::Sat(m) => Some(m),
                SmtResult::Unsat => return SampleOutcome::Exhausted,
                SmtResult::Unknown => None,
            }
        };
        let Some(model) = candidate_formula else {
            return SampleOutcome::Unknown;
        };
        let candidate: Vec<BigInt> = keep.iter().map(|&v| model.int(v)).collect();
        // Is some extension of the candidate feasible for p?
        let mut grounded = p_formula.clone();
        for (&v, val) in keep.iter().zip(&candidate) {
            grounded = grounded.subst(v, &LinTerm::constant(BigRat::from_int(val.clone())));
        }
        match solver.check(&grounded) {
            SmtResult::Unsat => {
                seen.push(candidate.clone());
                return SampleOutcome::Sample(candidate);
            }
            SmtResult::Sat(_) => {
                blocked = blocked.and(differs_from(keep, &candidate));
            }
            SmtResult::Unknown => return SampleOutcome::Unknown,
        }
    }
    SampleOutcome::Unknown
}

fn not_old(keep: &[VarId], seen: &[Vec<BigInt>]) -> Formula {
    let mut acc = Formula::True;
    for tuple in seen {
        acc = acc.and(differs_from(keep, tuple));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PredEncoder;
    use sia_rand::SeedableRng;
    use sia_sql::parse_predicate;

    #[test]
    fn finds_unsatisfaction_tuples() {
        // p: a - b < 5 ∧ b < 0  over keep {a}: ∃b ⟺ a can be anything…
        // actually a - b < 5 with b < 0 means a < b + 5 < 5; unsatisfaction
        // tuples over {a} are a ≥ 5… wait: b can be any negative, a < b+5;
        // for a given a, need b > a - 5 and b < 0: exists iff a - 5 < -1
        // i.e. a ≤ 4 (integers). So a ≥ 5 is the unsatisfaction region.
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a - b < 5 AND b < 0").unwrap();
        let pf = enc.encode(&p).unwrap();
        let a = enc.value_var("a");
        let mut seen = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            match false_sample(enc.solver(), &pf, &[a], &Formula::True, &mut seen, &mut rng) {
                SampleOutcome::Sample(t) => {
                    assert!(t[0].to_i64().unwrap() >= 5, "not an unsat tuple: {t:?}");
                }
                other => panic!("expected sample, got {other:?}"),
            }
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn exhausted_when_no_unsat_tuples() {
        // p: a < b with b unconstrained: every a extends (b := a + 1).
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a < b").unwrap();
        let pf = enc.encode(&p).unwrap();
        let a = enc.value_var("a");
        let mut seen = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        // Bound the candidate space via extra so exhaustion is reachable.
        let extra = parse_predicate("a >= 0 AND a <= 3").unwrap();
        let extra_f = enc.encode(&extra).unwrap();
        let out = false_sample(enc.solver(), &pf, &[a], &extra_f, &mut seen, &mut rng);
        assert_eq!(out, SampleOutcome::Exhausted);
        assert!(seen.is_empty());
    }

    #[test]
    fn respects_extra_constraint() {
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a - b < 5 AND b < 0").unwrap();
        let pf = enc.encode(&p).unwrap();
        let a = enc.value_var("a");
        let extra = enc.encode(&parse_predicate("a > 100").unwrap()).unwrap();
        let mut seen = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        match false_sample(enc.solver(), &pf, &[a], &extra, &mut seen, &mut rng) {
            SampleOutcome::Sample(t) => assert!(t[0].to_i64().unwrap() > 100),
            other => panic!("expected sample, got {other:?}"),
        }
    }
}
