//! Training-sample generation (§5.3).
//!
//! A [`Sampler`] draws distinct integer tuples over the target columns from
//! a *region* formula: the original predicate `p` for TRUE (satisfaction)
//! samples, or the quantifier-eliminated unsatisfaction region `¬∃others.p`
//! for FALSE samples. A `NotOld` conjunction forces a fresh model each
//! call, exactly as in the paper; on top of that we apply the paper's
//! "additional heuristics" (§5.3) — prefer non-zero values and scatter
//! samples with random box constraints — because solver models otherwise
//! cluster at the first vertex the simplex finds, which starves the learner
//! of signal.

use sia_num::{BigInt, BigRat};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};
use sia_smt::{Formula, LinTerm, SmtResult, Solver, VarId};

/// Outcome of requesting one more sample.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleOutcome {
    /// A fresh tuple (values aligned with the sampler's column order).
    Sample(Vec<BigInt>),
    /// The region holds no tuple that is not already a sample — for FALSE
    /// samples this is the optimality certificate of Lemma 4.
    Exhausted,
    /// The solver gave up within its budget.
    Unknown,
}

/// Draws distinct tuples from a region formula.
#[derive(Debug)]
pub struct Sampler {
    /// Region membership formula (over `vars` and possibly other columns).
    region: Formula,
    /// Solver variables of the target columns, in output order.
    vars: Vec<VarId>,
    /// Tuples already produced (excluded by `NotOld`).
    seen: Vec<Vec<BigInt>>,
    rng: StdRng,
}

/// Largest magnitude of a scatter box's centre.
const SCATTER_CENTRE: i64 = 120;

/// Half-width of a scatter box.
const SCATTER_RADIUS: i64 = 40;

/// `NotOld` for one tuple: ¬(x₁=v₁ ∧ … ∧ xₖ=vₖ) ⇔ x₁≠v₁ ∨ … ∨ xₖ≠vₖ.
pub(crate) fn differs_from(vars: &[VarId], tuple: &[BigInt]) -> Formula {
    let mut differs = Formula::False;
    for (v, val) in vars.iter().zip(tuple) {
        let t = LinTerm::var(*v).sub(&LinTerm::constant(BigRat::from_int(val.clone())));
        differs = differs.or(Formula::ne0(t));
    }
    differs
}

/// A random box `c - SCATTER_RADIUS ≤ v ≤ c + SCATTER_RADIUS` around each
/// of `vars`, with `c` uniform in `±SCATTER_CENTRE`, drawn in `vars` order.
pub(crate) fn scatter_box(vars: &[VarId], rng: &mut StdRng) -> Formula {
    let mut acc = Formula::True;
    for &v in vars {
        let c = rng.gen_range(-SCATTER_CENTRE..=SCATTER_CENTRE);
        let lo = BigRat::from(c - SCATTER_RADIUS);
        let hi = BigRat::from(c + SCATTER_RADIUS);
        acc = acc
            .and(Formula::le0(LinTerm::constant(lo).sub(&LinTerm::var(v))))
            .and(Formula::le0(LinTerm::var(v).sub(&LinTerm::constant(hi))));
    }
    acc
}

impl Sampler {
    /// Sampler over `vars` drawing from `region`.
    pub fn new(region: Formula, vars: Vec<VarId>, seed: u64) -> Self {
        Sampler {
            region,
            vars,
            seen: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Tuples produced so far.
    pub fn seen(&self) -> &[Vec<BigInt>] {
        &self.seen
    }

    /// `NotOld` over a subset of the seen tuples (by index).
    fn not_old_subset(&self, active: &[usize]) -> Formula {
        Formula::and_all(
            active
                .iter()
                .map(|&i| differs_from(&self.vars, &self.seen[i])),
        )
    }

    fn nonzero(&self) -> Formula {
        let mut acc = Formula::True;
        for &v in &self.vars {
            acc = acc.and(Formula::ne0(LinTerm::var(v)));
        }
        acc
    }

    /// Draw one sample from `region ∧ extra`.
    ///
    /// `NotOld` is enforced *lazily*: the solver only sees exclusions for
    /// recent samples plus any older ones it actually tried to reproduce.
    /// Late in a synthesis run the seen-set has hundreds of tuples, almost
    /// none of which still lie inside the (shrinking) counter-example
    /// region — excluding them all eagerly made every check pay for a
    /// formula the size of the entire history.
    pub fn sample_with(&mut self, solver: &mut Solver, extra: &Formula) -> SampleOutcome {
        const RECENT: usize = 8;
        let mut active: Vec<usize> =
            (self.seen.len().saturating_sub(RECENT)..self.seen.len()).collect();
        let mut use_scatter = true;
        // `region ∧ extra ∧ NotOld(active)`, rebuilt only when `active`
        // changes.
        let mut cached: Option<Formula> = None;
        // Each round either returns a fresh sample, tightens the active
        // exclusion set by one duplicate, or drops the scatter heuristic;
        // with at worst every seen tuple excluded, it terminates.
        loop {
            let base = cached.get_or_insert_with(|| {
                self.region
                    .clone()
                    .and(extra.clone())
                    .and(self.not_old_subset(&active))
            });
            let model = if use_scatter {
                let scattered = base
                    .clone()
                    .and(scatter_box(&self.vars, &mut self.rng))
                    .and(self.nonzero());
                match solver.check(&scattered) {
                    SmtResult::Sat(m) => m,
                    _ => {
                        // Scatter may genuinely be unsatisfiable here;
                        // authoritative answers need the bare region.
                        use_scatter = false;
                        continue;
                    }
                }
            } else {
                match solver.check(base) {
                    SmtResult::Sat(m) => m,
                    SmtResult::Unsat => {
                        if active.len() == self.seen.len() {
                            return SampleOutcome::Exhausted;
                        }
                        // Region minus the active exclusions is empty; the
                        // real verdict needs the full history excluded.
                        active = (0..self.seen.len()).collect();
                        cached = None;
                        continue;
                    }
                    SmtResult::Unknown => return SampleOutcome::Unknown,
                }
            };
            let tuple: Vec<BigInt> = self.vars.iter().map(|&v| model.int(v)).collect();
            match self.seen.iter().position(|s| *s == tuple) {
                Some(idx) => {
                    // Stale duplicate: exclude it specifically and retry.
                    active.push(idx);
                    cached = None;
                }
                None => {
                    self.seen.push(tuple.clone());
                    return SampleOutcome::Sample(tuple);
                }
            }
        }
    }

    /// Draw one sample from the region.
    pub fn sample(&mut self, solver: &mut Solver) -> SampleOutcome {
        self.sample_with(solver, &Formula::True)
    }

    /// Draw up to `n` samples from the region. The status is `None` when
    /// all `n` were drawn (`n = 0` included), and otherwise the
    /// [`SampleOutcome::Exhausted`] or [`SampleOutcome::Unknown`] that cut
    /// the run short.
    pub fn take(
        &mut self,
        solver: &mut Solver,
        n: usize,
    ) -> (Vec<Vec<BigInt>>, Option<SampleOutcome>) {
        draw(n, || self.sample(solver))
    }
}

/// Draw up to `n` samples, one `next()` at a time, with the status of
/// [`Sampler::take`]: every sample the synthesizer draws goes through here.
pub(crate) fn draw(
    n: usize,
    mut next: impl FnMut() -> SampleOutcome,
) -> (Vec<Vec<BigInt>>, Option<SampleOutcome>) {
    let mut out = Vec::new();
    while out.len() < n {
        match next() {
            SampleOutcome::Sample(t) => out.push(t),
            stop => return (out, Some(stop)),
        }
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PredEncoder;
    use sia_sql::parse_predicate;

    fn setup(pred: &str, cols: &[&str]) -> (PredEncoder, Sampler) {
        let mut enc = PredEncoder::new();
        let p = parse_predicate(pred).unwrap();
        let f = enc.encode(&p).unwrap();
        let vars: Vec<VarId> = cols.iter().map(|c| enc.value_var(c)).collect();
        let sampler = Sampler::new(f, vars, 42);
        (enc, sampler)
    }

    #[test]
    fn samples_satisfy_region_and_are_distinct() {
        let (mut enc, mut sampler) = setup("a + b < 10 AND a > b", &["a", "b"]);
        let (samples, _) = sampler.take(enc.solver(), 8);
        assert_eq!(samples.len(), 8);
        for s in &samples {
            let (a, b) = (s[0].to_i64().unwrap(), s[1].to_i64().unwrap());
            assert!(a + b < 10 && a > b, "({a},{b}) outside region");
        }
        for i in 0..samples.len() {
            for j in (i + 1)..samples.len() {
                assert_ne!(samples[i], samples[j], "duplicate sample");
            }
        }
    }

    #[test]
    fn finite_region_exhausts() {
        // 0 <= a <= 2: exactly three tuples.
        let (mut enc, mut sampler) = setup("a >= 0 AND a <= 2", &["a"]);
        let (samples, status) = sampler.take(enc.solver(), 10);
        assert_eq!(samples.len(), 3);
        assert_eq!(status, Some(SampleOutcome::Exhausted));
        let mut vals: Vec<i64> = samples.iter().map(|s| s[0].to_i64().unwrap()).collect();
        vals.sort();
        assert_eq!(vals, vec![0, 1, 2]);
    }

    #[test]
    fn sample_with_extra_constraint() {
        let (mut enc, mut sampler) = setup("a > 0", &["a"]);
        let extra_var = sampler.vars[0];
        // extra: a > 100
        let extra =
            Formula::lt0(LinTerm::constant(BigRat::from(100)).sub(&LinTerm::var(extra_var)));
        match sampler.sample_with(enc.solver(), &extra) {
            SampleOutcome::Sample(t) => assert!(t[0].to_i64().unwrap() > 100),
            other => panic!("expected sample, got {other:?}"),
        }
    }

    #[test]
    fn mark_seen_excludes() {
        // A tuple already drawn is `NotOld`-excluded from every later draw.
        let (mut enc, mut sampler) = setup("a >= 0 AND a <= 1", &["a"]);
        let (first, _) = sampler.take(enc.solver(), 1);
        let (rest, status) = sampler.take(enc.solver(), 5);
        assert_eq!(rest.len(), 1);
        assert_ne!(rest[0], first[0]);
        assert_eq!(status, Some(SampleOutcome::Exhausted));
    }

    #[test]
    fn drawing_nothing_is_a_full_draw() {
        // Zero samples asked for, zero drawn: that says nothing about the
        // region, so it must not read as a finite (exhausted) one.
        let (mut enc, mut sampler) = setup("a >= 0 AND a <= 1", &["a"]);
        assert_eq!(sampler.take(enc.solver(), 0), (Vec::new(), None));
        let (all, status) = sampler.take(enc.solver(), 2);
        assert_eq!((all.len(), status), (2, None));
        assert_eq!(
            sampler.take(enc.solver(), 1),
            (Vec::new(), Some(SampleOutcome::Exhausted))
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut enc1, mut s1) = setup("a - b < 20 AND b < 0", &["a", "b"]);
        let (mut enc2, mut s2) = setup("a - b < 20 AND b < 0", &["a", "b"]);
        let (x, _) = s1.take(enc1.solver(), 5);
        let (y, _) = s2.take(enc2.solver(), 5);
        assert_eq!(x, y);
    }

    #[test]
    fn scatter_spreads_samples() {
        // On an unbounded region, samples should not be consecutive
        // integers (the no-heuristic failure mode).
        let (mut enc, mut sampler) = setup("a > b", &["a", "b"]);
        let (samples, _) = sampler.take(enc.solver(), 6);
        assert_eq!(samples.len(), 6);
        let spread: i64 = {
            let vals: Vec<i64> = samples.iter().map(|s| s[0].to_i64().unwrap()).collect();
            vals.iter().max().unwrap() - vals.iter().min().unwrap()
        };
        assert!(spread > 5, "samples too clustered: {samples:?}");
    }
}
