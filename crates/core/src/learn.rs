//! The `Learn` procedure (Alg 2, §5.4): find half-planes until every
//! TRUE sample is classified TRUE, returning their disjunction as a
//! predicate.
//!
//! The paper trains a linear SVM per round, and what survives of a
//! training is a *direction* with small rational coordinates. So this
//! learner searches those directions exactly instead of approximating
//! the choice with a float fit. The candidates are every primitive
//! integer vector whose coordinates, divided by the largest magnitude,
//! lie in {0, ±¼, ±⅓, ±½, ±⅔, ±¾, ±1} (the Farey fractions of order 4)
//! with at most three non-zero coordinates, enumerated on the fly, plus
//! both signs of each linear atom of the input over the target columns
//! ([`atom_directions`]).
//!
//! Each round takes the direction whose projection puts the most
//! remaining TRUE samples strictly above every FALSE sample; ties go to
//! the widest gap per unit of ‖w‖₂, then to the lexicographically
//! smallest weights. The threshold sits at the integer midpoint of that
//! gap. Keeping the midpoint rather than the extreme TRUE sample is what
//! makes the counter-example loop converge geometrically: each round of
//! counter-examples roughly halves the gap between the learned boundary
//! and the true region boundary (the 50 → 32 → 29 progression of Fig 4).
//!
//! All of it is integer arithmetic, in `i64` where the magnitudes allow
//! and in [`BigInt`] otherwise, so the answer is a deterministic function
//! of the sample sets.

use sia_expr::{CmpOp, LinAtom, LinExpr, NonLinearPolicy, Pred};
use sia_num::{lcm_u64, BigInt, BigRat};

/// Result of a `Learn` call.
#[derive(Debug, Clone)]
pub struct LearnOutput {
    /// The learned predicate over the target columns (disjunction of
    /// half-planes).
    pub pred: Pred,
    /// The integer hyperplanes, one per disjunct.
    pub planes: Vec<LearnedPlane>,
    /// True iff every TRUE sample is classified TRUE (Alg 2's guarantee;
    /// false when the model budget ran out or no candidate direction
    /// separates the rest, §6.7).
    pub covered_all: bool,
}

/// An integer hyperplane predicate: accepts `x` iff `w·x ≥ threshold`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnedPlane {
    /// Integer weights, aligned with the column order.
    pub weights: Vec<BigInt>,
    /// Acceptance threshold.
    pub threshold: BigInt,
}

impl LearnedPlane {
    /// Exact decision value.
    pub fn decision(&self, x: &[BigInt]) -> BigInt {
        dot_big(&self.weights, x)
    }

    /// True iff the plane accepts the point.
    pub fn accepts(&self, x: &[BigInt]) -> bool {
        self.decision(x) >= self.threshold
    }

    /// Render as a predicate `Σ wᵢ·colᵢ ≥ threshold`.
    pub fn to_pred(&self, cols: &[String]) -> Pred {
        let expr = LinExpr::from_parts(
            cols.iter()
                .zip(&self.weights)
                .map(|(c, w)| (c.clone(), BigRat::from_int(w.clone()))),
            BigRat::from_int(-self.threshold.clone()),
        );
        LinAtom {
            op: CmpOp::Ge,
            expr,
        }
        .to_pred()
    }
}

/// Maximum number of disjuncts (Alg 2 loop bound for non-separable data).
const MAX_MODELS: usize = 8;

/// Most non-zero coordinates an enumerated direction has.
const MAX_SUPPORT: usize = 3;

/// The magnitudes `p / q` a non-zero coordinate takes before scaling,
/// relative to the largest one: the Farey fractions of order 4 in (0, 1].
const STEPS: [(u64, u64); 6] = [(1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1)];

/// Learn the disjunction-of-planes classifier of Alg 2 over `cols` from
/// TRUE samples `ts` and FALSE samples `fs`. `atoms` are candidate
/// directions beyond the enumerated ones, normally
/// [`atom_directions`] of the input predicate.
///
/// Returns `None` when learning is impossible: no columns, no TRUE
/// samples, no FALSE samples, or no candidate direction puts any TRUE
/// sample strictly above every FALSE one.
pub fn learn(
    cols: &[String],
    atoms: &[Vec<BigInt>],
    ts: &[Vec<BigInt>],
    fs: &[Vec<BigInt>],
) -> Option<LearnOutput> {
    if cols.is_empty() || ts.is_empty() || fs.is_empty() {
        return None;
    }
    let samples = Samples::new(cols.len(), ts, fs);
    let mut remaining: Vec<usize> = (0..ts.len()).collect();
    let mut planes: Vec<LearnedPlane> = Vec::new();
    let mut examined = 0u64;
    while planes.len() < MAX_MODELS && !remaining.is_empty() {
        let mut best: Option<Candidate> = None;
        for_each_direction(cols.len(), |w| {
            examined += 1;
            if let Some(cut) = samples.cut(w, &remaining) {
                offer(&mut best, cut, || {
                    w.iter().map(|&v| BigInt::from(v)).collect()
                });
            }
        });
        for w in atoms {
            examined += 1;
            if let Some(cut) = samples.cut_big(w, &remaining) {
                offer(&mut best, cut, || w.clone());
            }
        }
        let Some(best) = best else { break };
        // θ = maxF + ⌈gap/2⌉ ∈ (maxF, minT]: accepts exactly the covered
        // TRUE samples, rejects every FALSE one, and lands on minT when
        // the gap closes to one.
        let gap = &best.cut.min_t - &best.cut.max_f;
        let half = &(&gap + &BigInt::one()) / &BigInt::from(2i64);
        let plane = LearnedPlane {
            weights: best.weights,
            threshold: &best.cut.max_f + &half,
        };
        remaining.retain(|&i| !plane.accepts(&ts[i]));
        planes.push(plane);
    }
    sia_obs::add(sia_obs::Counter::LearnDirections, examined);
    if planes.is_empty() {
        return None;
    }
    let covered_all = remaining.is_empty();
    let pred = Pred::or_all(planes.iter().map(|p| p.to_pred(cols)));
    Some(LearnOutput {
        pred,
        planes,
        covered_all,
    })
}

/// Both signs of the primitive integer direction of every linear atom of
/// `p` whose columns all lie in `cols`, aligned with `cols`, without the
/// ones the enumeration already visits. A boundary of the input is often
/// a boundary of its projection, and an atom such as
/// `5 * l_linenumber - l_quantity < -5` has a direction no
/// small-denominator enumeration reaches.
pub fn atom_directions(p: &Pred, cols: &[String]) -> Vec<Vec<BigInt>> {
    fn walk(p: &Pred, cols: &[String], out: &mut Vec<Vec<BigInt>>) {
        match p {
            Pred::Lit(_) => {}
            Pred::Cmp { op, lhs, rhs } => {
                let Ok(atom) = LinAtom::from_cmp(*op, lhs, rhs, NonLinearPolicy::Reject) else {
                    return;
                };
                if atom.expr.is_constant() || atom.expr.keys().any(|c| !cols.contains(c)) {
                    return;
                }
                let f = atom.expr.primitive_scale();
                let w: Vec<BigInt> = cols
                    .iter()
                    .map(|c| (atom.expr.coeff(c) * &f).numer().clone())
                    .collect();
                out.push(w.iter().map(|v| -v).collect());
                out.push(w);
            }
            Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|q| walk(q, cols, out)),
            Pred::Not(q) => walk(q, cols, out),
        }
    }
    let mut out = Vec::new();
    walk(p, cols, &mut out);
    out.retain(|w| !is_enumerated(w));
    out.sort();
    out.dedup();
    out
}

/// Whether the primitive direction `w` is one [`for_each_direction`]
/// visits: at most [`MAX_SUPPORT`] non-zero coordinates, each of which,
/// divided by the largest magnitude, has a denominator of at most 4.
fn is_enumerated(w: &[BigInt]) -> bool {
    let max = w.iter().map(BigInt::abs).max().unwrap_or_else(BigInt::zero);
    let four = BigInt::from(4i64);
    !max.is_zero()
        && w.iter().filter(|v| !v.is_zero()).count() <= MAX_SUPPORT
        && w.iter()
            .filter(|v| !v.is_zero())
            .all(|v| &max / &v.abs().gcd(&max) <= four)
}

/// Visit every enumerated direction in `dim` columns: each support of at
/// most [`MAX_SUPPORT`] columns, each sign and [`STEPS`] magnitude per
/// supported column with at least one magnitude 1, scaled by the least
/// common multiple `L` of the denominators. The result is primitive: a
/// prime power dividing `L` divides the denominator `q` of some
/// coordinate `p / q`, which becomes `p · L / q`, and `p` is prime to `q`.
/// Distinct magnitude choices are distinct directions, so nothing repeats.
fn for_each_direction(dim: usize, mut visit: impl FnMut(&[i64])) {
    let mut w = vec![0i64; dim];
    for k in 1..=dim.min(MAX_SUPPORT) {
        let mut support: Vec<usize> = (0..k).collect();
        loop {
            // Digit d < 6 is +STEPS[d], d ≥ 6 is −STEPS[d − 6].
            let mut digits = vec![0usize; k];
            loop {
                if digits.iter().any(|&d| d % 6 == 5) {
                    let lcm = digits.iter().fold(1, |l, &d| lcm_u64(l, STEPS[d % 6].1));
                    for (&col, &d) in support.iter().zip(&digits) {
                        let (p, q) = STEPS[d % 6];
                        // At most 12: the lcm of 1..=4.
                        let v = (p * lcm / q) as i64;
                        w[col] = if d < 6 { v } else { -v };
                    }
                    visit(&w);
                }
                let Some(j) = digits.iter().rposition(|&d| d < 11) else {
                    break;
                };
                digits[j] += 1;
                digits[j + 1..].fill(0);
            }
            for &col in &support {
                w[col] = 0;
            }
            // Next k-subset of 0..dim in lexicographic order.
            let Some(i) = (0..k).rev().find(|&i| support[i] < dim - k + i) else {
                break;
            };
            support[i] += 1;
            for j in i + 1..k {
                support[j] = support[j - 1] + 1;
            }
        }
    }
}

fn dot_big(w: &[BigInt], x: &[BigInt]) -> BigInt {
    w.iter()
        .zip(x)
        .fold(BigInt::zero(), |acc, (a, b)| acc + a * b)
}

/// What one direction does to the samples: how many remaining TRUE
/// samples project strictly above every FALSE one, the largest FALSE
/// projection, and the smallest of those TRUE projections.
struct Cut {
    covered: usize,
    max_f: BigInt,
    min_t: BigInt,
}

/// A direction with its [`Cut`] and squared norm.
struct Candidate {
    weights: Vec<BigInt>,
    norm2: BigInt,
    cut: Cut,
}

impl Candidate {
    /// Rank: more TRUE samples covered, then the wider gap per unit of
    /// ‖w‖₂ (compared squared and cross-multiplied, so exactly), then the
    /// lexicographically smaller weights.
    fn outranks(&self, other: &Candidate) -> bool {
        let gap2 = |c: &Candidate| {
            let g = &c.cut.min_t - &c.cut.max_f;
            &g * &g
        };
        self.cut
            .covered
            .cmp(&other.cut.covered)
            .then_with(|| (&gap2(self) * &other.norm2).cmp(&(&gap2(other) * &self.norm2)))
            .then_with(|| other.weights.cmp(&self.weights))
            .is_gt()
    }
}

/// Keep `cut` in `best` if its direction outranks the incumbent; the
/// weights are only materialized for a cut that can compete.
fn offer(best: &mut Option<Candidate>, cut: Cut, weights: impl FnOnce() -> Vec<BigInt>) {
    if best.as_ref().is_some_and(|b| cut.covered < b.cut.covered) {
        return;
    }
    let weights = weights();
    let norm2 = weights.iter().fold(BigInt::zero(), |acc, w| acc + w * w);
    let candidate = Candidate {
        weights,
        norm2,
        cut,
    };
    if best.as_ref().is_none_or(|b| candidate.outranks(b)) {
        *best = Some(candidate);
    }
}

/// The samples of one `learn` call, with `i64` copies of them when every
/// coordinate fits one.
struct Samples<'a> {
    dim: usize,
    ts: &'a [Vec<BigInt>],
    fs: &'a [Vec<BigInt>],
    /// Row-major `i64` copies of `ts` and `fs`.
    small: Option<(Vec<i64>, Vec<i64>)>,
    /// Per column, the largest magnitude over every sample.
    bound: Vec<u128>,
}

impl<'a> Samples<'a> {
    fn new(dim: usize, ts: &'a [Vec<BigInt>], fs: &'a [Vec<BigInt>]) -> Samples<'a> {
        let flat = |rows: &[Vec<BigInt>]| -> Option<Vec<i64>> {
            rows.iter().flatten().map(BigInt::to_i64).collect()
        };
        let small = flat(ts).zip(flat(fs));
        let mut bound = vec![0u128; dim];
        if let Some((t, f)) = &small {
            for row in t.chunks_exact(dim).chain(f.chunks_exact(dim)) {
                for (b, v) in bound.iter_mut().zip(row) {
                    *b = (*b).max(u128::from(v.unsigned_abs()));
                }
            }
        }
        Samples {
            dim,
            ts,
            fs,
            small,
            bound,
        }
    }

    /// The cut of `w` over the TRUE samples `remaining`, or `None` when it
    /// covers none. Runs in `i64` when no projection can leave its range.
    fn cut(&self, w: &[i64], remaining: &[usize]) -> Option<Cut> {
        let fits = w
            .iter()
            .zip(&self.bound)
            .try_fold(0u128, |acc, (v, b)| {
                acc.checked_add(u128::from(v.unsigned_abs()).checked_mul(*b)?)
            })
            .is_some_and(|m| m <= i64::MAX as u128);
        let Some((t, f)) = self.small.as_ref().filter(|_| fits) else {
            let big: Vec<BigInt> = w.iter().map(|&v| BigInt::from(v)).collect();
            return self.cut_big(&big, remaining);
        };
        let dim = self.dim;
        // Enumerated directions touch at most three columns, so project
        // through the non-zero weights only.
        let terms: Vec<(usize, i64)> = w
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0)
            .map(|(c, v)| (c, *v))
            .collect();
        let dot = |x: &[i64]| terms.iter().map(|&(c, v)| v * x[c]).sum::<i64>();
        let max_f = f.chunks_exact(dim).map(dot).max()?;
        let mut covered = 0;
        let mut min_t = i64::MAX;
        for &i in remaining {
            let p = dot(&t[i * dim..(i + 1) * dim]);
            if p > max_f {
                covered += 1;
                min_t = min_t.min(p);
            }
        }
        (covered > 0).then(|| Cut {
            covered,
            max_f: BigInt::from(max_f),
            min_t: BigInt::from(min_t),
        })
    }

    /// [`Samples::cut`] in [`BigInt`], for magnitudes `i64` cannot hold.
    fn cut_big(&self, w: &[BigInt], remaining: &[usize]) -> Option<Cut> {
        let max_f = self.fs.iter().map(|x| dot_big(w, x)).max()?;
        let mut covered = 0;
        let mut min_t: Option<BigInt> = None;
        for &i in remaining {
            let p = dot_big(w, &self.ts[i]);
            if p > max_f {
                covered += 1;
                if min_t.as_ref().is_none_or(|m| p < *m) {
                    min_t = Some(p);
                }
            }
        }
        Some(Cut {
            covered,
            max_f,
            min_t: min_t?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_rand::rngs::StdRng;
    use sia_rand::{Rng, SeedableRng};

    fn pt(vals: &[i64]) -> Vec<BigInt> {
        vals.iter().map(|v| BigInt::from(*v)).collect()
    }

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn directions(dim: usize) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        for_each_direction(dim, |w| out.push(w.to_vec()));
        out
    }

    fn accepted_by_any(out: &LearnOutput, x: &[BigInt]) -> bool {
        out.planes.iter().any(|p| p.accepts(x))
    }

    /// `n` distinct points of `[-r, r]^dim`, split into TRUE and FALSE.
    fn random_split(
        rng: &mut StdRng,
        dim: usize,
        r: i64,
        n: usize,
    ) -> (Vec<Vec<BigInt>>, Vec<Vec<BigInt>>) {
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < n {
            seen.insert(
                (0..dim)
                    .map(|_| rng.gen_range(-r..=r))
                    .collect::<Vec<i64>>(),
            );
        }
        let (mut ts, mut fs) = (Vec::new(), Vec::new());
        for p in seen {
            if rng.gen_bool(0.5) {
                ts.push(pt(&p));
            } else {
                fs.push(pt(&p));
            }
        }
        (ts, fs)
    }

    #[test]
    fn direction_counts_and_support() {
        assert_eq!(directions(1).len(), 2);
        assert_eq!(directions(2).len(), 48);
        assert_eq!(directions(3).len(), 866);
        // Four columns: only supports of at most three, 4·2 + 6·44 + 4·728.
        let four = directions(4);
        assert_eq!(four.len(), 3184);
        for dim in 1..=4 {
            let all = directions(dim);
            let mut distinct = all.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), all.len(), "repeats at {dim} columns");
            for w in &all {
                let big: Vec<BigInt> = w.iter().map(|&v| BigInt::from(v)).collect();
                assert!(is_enumerated(&big), "{w:?}");
                let g = big.iter().fold(BigInt::zero(), |g, v| g.gcd(v));
                assert!(g.is_one(), "{w:?} is not primitive");
                assert!(w.iter().filter(|&&v| v != 0).count() <= MAX_SUPPORT);
            }
        }
    }

    #[test]
    fn separable_single_plane() {
        let ts = vec![pt(&[5]), pt(&[7]), pt(&[10])];
        let fs = vec![pt(&[-5]), pt(&[-1]), pt(&[0])];
        let out = learn(&cols(&["a"]), &[], &ts, &fs).unwrap();
        assert!(out.covered_all);
        assert_eq!(out.planes.len(), 1);
        // Mid-gap: 0 + ⌈5/2⌉.
        assert_eq!(out.planes[0].to_pred(&cols(&["a"])).to_string(), "a >= 3");
        for f in &fs {
            assert!(!out.planes[0].accepts(f), "accepted FALSE {f:?}");
        }
    }

    #[test]
    fn paper_iteration_produces_separator() {
        // §3.2 initial samples.
        let ts = vec![
            pt(&[-5, 1]),
            pt(&[2, -6]),
            pt(&[-27, -44]),
            pt(&[-28, -46]),
            pt(&[-7, -1]),
        ];
        let fs = vec![
            pt(&[-40, -2]),
            pt(&[-56, -2]),
            pt(&[-53, -2]),
            pt(&[-48, -2]),
        ];
        let out = learn(&cols(&["a1", "a2"]), &[], &ts, &fs).unwrap();
        assert!(out.covered_all);
        assert_eq!(out.planes.len(), 1, "{:?}", out.planes);
        for t in &ts {
            assert!(accepted_by_any(&out, t), "missed {t:?}");
        }
        for f in &fs {
            assert!(!accepted_by_any(&out, f), "accepted FALSE {f:?}");
        }
    }

    #[test]
    fn non_separable_reports_coverage_honestly() {
        // TRUE at both ends, FALSE in the middle: no single half-line
        // separates them, two do.
        let ts = vec![pt(&[-10]), pt(&[-12]), pt(&[10]), pt(&[12])];
        let fs = vec![pt(&[-1]), pt(&[0]), pt(&[1])];
        let out = learn(&cols(&["a"]), &[], &ts, &fs).unwrap();
        assert!(out.covered_all);
        assert_eq!(out.planes.len(), 2);
        assert_eq!(out.pred.to_string(), "0 - a >= 6 OR a >= 6");
    }

    #[test]
    fn asymmetric_clusters_use_disjunction() {
        // A large TRUE cluster on the right, a small one far left, dense
        // FALSE in between: the first plane takes the large cluster and
        // Alg 2's next round adds a second plane for the leftovers.
        let mut ts: Vec<Vec<BigInt>> = (60..=100i64).map(|x| pt(&[x])).collect();
        ts.push(pt(&[-80]));
        ts.push(pt(&[-82]));
        let fs: Vec<Vec<BigInt>> = (-50..=50).map(|x| pt(&[x])).collect();
        let out = learn(&cols(&["x"]), &[], &ts, &fs).unwrap();
        assert!(out.covered_all, "planes: {:?}", out.planes);
        assert_eq!(out.planes.len(), 2, "planes: {:?}", out.planes);
        assert_eq!(out.planes[0].weights, pt(&[1]));
        for f in &fs {
            assert!(!accepted_by_any(&out, f), "accepted FALSE {f:?}");
        }
    }

    #[test]
    fn enclosed_true_sample_is_not_learnable() {
        // A TRUE point inside the FALSE points' hull: no half-plane puts it
        // strictly above all of them.
        let ts = vec![pt(&[0, 0])];
        let fs = vec![pt(&[1, 0]), pt(&[-1, 0]), pt(&[0, 1]), pt(&[0, -1])];
        assert!(learn(&cols(&["a", "b"]), &[], &ts, &fs).is_none());
    }

    #[test]
    fn empty_inputs_return_none() {
        let ts = vec![pt(&[1])];
        assert!(learn(&cols(&["a"]), &[], &ts, &[]).is_none());
        assert!(learn(&cols(&["a"]), &[], &[], &ts).is_none());
    }

    #[test]
    fn permuting_the_samples_gives_identical_planes() {
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..40 {
            let dim = 1 + case % 3;
            let (ts, fs) = random_split(&mut rng, dim, 20, 24);
            if ts.is_empty() || fs.is_empty() {
                continue;
            }
            let names: Vec<String> = (0..dim).map(|i| format!("c{i}")).collect();
            let want = learn(&names, &[], &ts, &fs).map(|o| o.planes);
            let (mut ts2, mut fs2) = (ts.clone(), fs.clone());
            for _ in 0..3 {
                ts2.reverse();
                let (nt, nf) = (ts2.len(), fs2.len());
                fs2.rotate_left(nf / 2);
                ts2.rotate_left(1 + nt / 3);
                let got = learn(&names, &[], &ts2, &fs2).map(|o| o.planes);
                assert_eq!(got, want, "case {case}");
            }
        }
    }

    #[test]
    fn every_threshold_sits_in_its_gap() {
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..60 {
            let dim = 1 + case % 3;
            let (ts, fs) = random_split(&mut rng, dim, 30, 30);
            let names: Vec<String> = (0..dim).map(|i| format!("c{i}")).collect();
            let Some(out) = learn(&names, &[], &ts, &fs) else {
                continue;
            };
            let mut remaining = ts.clone();
            for plane in &out.planes {
                let max_f = fs.iter().map(|f| plane.decision(f)).max().unwrap();
                let covered: Vec<BigInt> = remaining
                    .iter()
                    .map(|t| plane.decision(t))
                    .filter(|p| *p > max_f)
                    .collect();
                let min_t = covered.iter().min().expect("each plane covers a sample");
                assert!(
                    max_f < plane.threshold && plane.threshold <= *min_t,
                    "case {case}: {plane:?} outside ({max_f}, {min_t}]"
                );
                remaining.retain(|t| !plane.accepts(t));
            }
            assert_eq!(out.covered_all, remaining.is_empty());
        }
    }

    #[test]
    fn two_column_choice_matches_brute_force() {
        // On a small grid, the first plane covers as many TRUE samples as
        // the best of every (direction, threshold) pair that rejects every
        // FALSE sample.
        let mut rng = StdRng::seed_from_u64(5);
        let dirs = directions(2);
        for case in 0..80 {
            let (ts, fs) = random_split(&mut rng, 2, 4, 12);
            let Some(out) = learn(&cols(&["x", "y"]), &[], &ts, &fs) else {
                continue;
            };
            let first = &out.planes[0];
            let got = ts.iter().filter(|t| first.accepts(t)).count();
            let mut best = 0;
            for w in &dirs {
                let w: Vec<BigInt> = w.iter().map(|&v| BigInt::from(v)).collect();
                for theta in -40i64..=40 {
                    let plane = LearnedPlane {
                        weights: w.clone(),
                        threshold: BigInt::from(theta),
                    };
                    if fs.iter().any(|f| plane.accepts(f)) {
                        continue;
                    }
                    best = best.max(ts.iter().filter(|t| plane.accepts(t)).count());
                }
            }
            assert_eq!(got, best, "case {case}: {first:?}");
        }
    }

    #[test]
    fn samples_near_i64_max_take_the_bigint_path() {
        // Sums of two coordinates leave the i64 range, so the diagonal
        // directions are projected in BigInt; every sample still counts.
        let m = i64::MAX;
        let ts = vec![pt(&[m, m]), pt(&[m - 1, m]), pt(&[m, m - 1])];
        let fs = vec![pt(&[m - 3, m - 3]), pt(&[m, m - 9]), pt(&[m - 9, m])];
        let samples = Samples::new(2, &ts, &fs);
        assert!(samples.small.is_some());
        let cut = samples.cut(&[1, 1], &[0, 1, 2]).expect("diagonal covers");
        assert_eq!(cut.covered, 3);
        assert_eq!(cut.max_f, &BigInt::from(m - 3) + &BigInt::from(m - 3));
        let out = learn(&cols(&["a", "b"]), &[], &ts, &fs).unwrap();
        assert!(out.covered_all);
        assert_eq!(out.planes.len(), 1, "{:?}", out.planes);
        assert_eq!(out.planes[0].weights, pt(&[1, 1]));
        for t in &ts {
            assert!(accepted_by_any(&out, t), "dropped {t:?}");
        }
        for f in &fs {
            assert!(!accepted_by_any(&out, f), "accepted FALSE {f:?}");
        }
        // A coordinate past i64 leaves no fast path at all.
        let wide = vec![vec![&BigInt::from(m) + &BigInt::from(5i64)]];
        let out = learn(&cols(&["a"]), &[], &wide, &[pt(&[m])]).unwrap();
        assert!(out.covered_all);
        assert!(out.planes[0].accepts(&wide[0]));
        assert!(!out.planes[0].accepts(&pt(&[m])));
    }

    #[test]
    fn atom_directions_add_what_enumeration_misses() {
        let p =
            sia_sql::parse_predicate("5 * a - b < -5 AND a - 2 * b > 3 AND c > 0 AND a + d > 1")
                .unwrap();
        let dirs = atom_directions(&p, &cols(&["a", "b", "c"]));
        // `a - 2 * b` is enumerated (½) and `a + d` leaves the columns.
        assert_eq!(dirs, vec![pt(&[-5, 1, 0]), pt(&[5, -1, 0])]);
        // The atom's own direction separates samples on its boundary.
        let ts = vec![pt(&[0, 6]), pt(&[1, 11]), pt(&[-1, 1])];
        let fs = vec![pt(&[0, 5]), pt(&[1, 10]), pt(&[-1, 0])];
        let out = learn(&cols(&["a", "b"]), &[pt(&[-5, 1])], &ts, &fs).unwrap();
        assert_eq!(out.planes.len(), 1, "{:?}", out.planes);
        assert_eq!(out.planes[0].weights, pt(&[-5, 1]));
    }

    #[test]
    fn predicate_rendering() {
        let plane = LearnedPlane {
            weights: vec![BigInt::from(1i64), BigInt::from(-1i64)],
            threshold: BigInt::from(-29i64),
        };
        // a1 - a2 ≥ -29, the paper's final predicate (a1 - a2 + 29 > 0
        // over integers).
        let p = plane.to_pred(&cols(&["a1", "a2"]));
        assert_eq!(p.to_string(), "a1 - a2 >= -29");
    }

    #[test]
    fn learned_predicate_is_evaluable() {
        use sia_expr::{eval_pred, Value};
        use std::collections::HashMap;
        let ts = vec![pt(&[5, 3]), pt(&[9, 1])];
        let fs = vec![pt(&[-5, -3]), pt(&[-9, -1])];
        let names = cols(&["x", "y"]);
        let out = learn(&names, &[], &ts, &fs).unwrap();
        for (tuple, expect) in ts
            .iter()
            .map(|t| (t, true))
            .chain(fs.iter().map(|f| (f, false)))
        {
            let m: HashMap<String, Value> = names
                .iter()
                .zip(tuple)
                .map(|(c, v)| (c.clone(), Value::Int(v.to_i64().unwrap())))
                .collect();
            assert_eq!(
                eval_pred(&out.pred, &m),
                Some(expect),
                "pred {} at {tuple:?}",
                out.pred
            );
        }
    }
}
