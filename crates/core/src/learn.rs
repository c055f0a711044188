//! The `Learn` procedure (Alg 2, §5.4): train linear SVMs until every
//! TRUE sample is classified TRUE, returning the disjunction of the
//! learned half-planes as a predicate.
//!
//! Float hyperplanes are rationalized to integer coefficients and the SVM
//! bias becomes the integer acceptance threshold (`w·x + b > 0` ⇔
//! `w·x ≥ 1 - b` over integers) — the paper's "sum of products … greater
//! than zero" predicate construction, made exact. Keeping the SVM's
//! margin-midpoint bias (rather than clamping to the extreme TRUE sample)
//! is what makes the counter-example loop converge geometrically: each
//! round of counter-examples roughly halves the gap between the learned
//! boundary and the true region boundary (the 50 → 32 → 29 progression of
//! Fig 4).

use sia_expr::{CmpOp, LinAtom, LinExpr, Pred};
use sia_num::{BigInt, BigRat};
use sia_svm::{rationalize, train, Sample, SvmConfig};

/// Result of a `Learn` call.
#[derive(Debug, Clone)]
pub struct LearnOutput {
    /// The learned predicate over the target columns (disjunction of
    /// half-planes).
    pub pred: Pred,
    /// The integer hyperplanes, one per disjunct.
    pub planes: Vec<LearnedPlane>,
    /// True iff every TRUE sample is classified TRUE (Alg 2's guarantee;
    /// false when the model budget ran out on non-separable data, §6.7).
    pub covered_all: bool,
}

/// An integer hyperplane predicate: accepts `x` iff `w·x ≥ threshold`
/// (the rationalized SVM plane with its bias folded into the threshold).
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
        let mut acc = BigInt::zero();
        for (w, v) in self.weights.iter().zip(x) {
            acc = acc + w * v;
        }
        acc
    }

    /// True iff the plane accepts the point.
    pub fn accepts(&self, x: &[BigInt]) -> bool {
        self.decision(x) >= self.threshold
    }

    /// Render as a predicate `Σ wᵢ·colᵢ ≥ threshold`.
    pub fn to_pred(&self, cols: &[String]) -> Pred {
        let expr = LinExpr::from_terms(
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

/// Bound on continued-fraction denominators during rationalization.
const MAX_DENOMINATOR: u64 = 4;

/// Maximum number of disjuncts (Alg 2 loop bound for non-separable data).
const MAX_MODELS: usize = 8;

/// Train the disjunction-of-planes classifier of Alg 2 with the default
/// SVM hyper-parameters.
///
/// Returns `None` when learning is impossible (no TRUE samples, no FALSE
/// samples, or every trained plane degenerates).
pub fn learn(cols: &[String], ts: &[Vec<BigInt>], fs: &[Vec<BigInt>]) -> Option<LearnOutput> {
    if ts.is_empty() || fs.is_empty() {
        return None;
    }
    // Center features on the per-column median — the paper's DATE-origin
    // rebasing (§3.2), driven by the data: day offsets in the thousands
    // would otherwise dwarf the few-unit margins the counter-example loop
    // produces around the true boundary.
    let dim = ts[0].len();
    let offsets: Vec<BigInt> = (0..dim)
        .map(|i| {
            let mut vals: Vec<&BigInt> = ts.iter().chain(fs).map(|t| &t[i]).collect();
            vals.sort();
            vals[vals.len() / 2].clone()
        })
        .collect();
    let to_f64 = |t: &Vec<BigInt>| -> Vec<f64> {
        t.iter()
            .zip(&offsets)
            .map(|(v, o)| (v - o).to_f64())
            .collect()
    };
    let f_samples: Vec<Sample> = fs.iter().map(|t| Sample::new(to_f64(t), false)).collect();
    let mut remaining: Vec<Vec<BigInt>> = ts.to_vec();
    let mut planes: Vec<LearnedPlane> = Vec::new();
    let svm = SvmConfig::default();
    for _ in 0..MAX_MODELS {
        if remaining.is_empty() {
            break;
        }
        let mut batch: Vec<Sample> = remaining
            .iter()
            .map(|t| Sample::new(to_f64(t), true))
            .collect();
        batch.extend(f_samples.iter().cloned());
        let float_plane = train(&batch, &svm);
        let int_plane = rationalize(&float_plane, MAX_DENOMINATOR);
        if int_plane.is_degenerate() {
            break;
        }
        // The plane was learned in centered coordinates:
        // w·(x−o) + b > 0 ⇔ w·x ≥ w·o − b + 1 over integer points.
        let w_dot_o: BigInt = int_plane
            .weights
            .iter()
            .zip(&offsets)
            .fold(BigInt::zero(), |acc, (w, o)| acc + w * o);
        let soft_threshold = w_dot_o - int_plane.bias.clone() + BigInt::one();
        let threshold =
            midgap_threshold(&int_plane.weights, &remaining, fs).unwrap_or(soft_threshold);
        let plane = LearnedPlane {
            weights: int_plane.weights.clone(),
            threshold,
        };
        let before = remaining.len();
        remaining.retain(|t| !plane.accepts(t));
        planes.push(plane);
        if remaining.len() == before {
            // No progress: the plane covered nothing new; further rounds
            // would loop forever on the same data.
            break;
        }
    }
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

/// When the SVM's *direction* separates the current TRUE batch from the
/// FALSE samples, place the threshold at the exact integer midpoint of the
/// projection gap. The soft-margin bias drifts by a few units whenever the
/// gap is tiny relative to the data spread (maximizing the margin would
/// cost ‖w‖² more than nicking a boundary sample), and that drift is what
/// keeps the CEGIS loop from pinching onto the optimal boundary. Returns
/// `None` when the direction does not separate (non-separable round —
/// fall back to the SVM bias).
fn midgap_threshold(weights: &[BigInt], ts: &[Vec<BigInt>], fs: &[Vec<BigInt>]) -> Option<BigInt> {
    let proj = |t: &Vec<BigInt>| -> BigInt {
        weights
            .iter()
            .zip(t)
            .fold(BigInt::zero(), |acc, (w, v)| acc + w * v)
    };
    let min_t = ts.iter().map(&proj).min()?;
    let max_f_below = fs.iter().map(&proj).filter(|p| *p < min_t).max()?;
    // Every FALSE sample must project strictly below every TRUE one for
    // the direction to count as separating.
    if fs.iter().any(|f| proj(f) >= min_t) {
        return None;
    }
    // θ = maxF + ⌈gap/2⌉ ∈ (maxF, minT]: accepts all TRUE, rejects all
    // FALSE, and lands exactly on minT when the gap closes to one.
    let gap = &min_t - &max_f_below;
    let half = (gap + BigInt::one()) / BigInt::from(2i64);
    Some(max_f_below + half)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(vals: &[i64]) -> Vec<BigInt> {
        vals.iter().map(|v| BigInt::from(*v)).collect()
    }

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn separable_single_plane() {
        let ts = vec![pt(&[5]), pt(&[7]), pt(&[10])];
        let fs = vec![pt(&[-5]), pt(&[-1]), pt(&[0])];
        let out = learn(&cols(&["a"]), &ts, &fs).unwrap();
        assert!(out.covered_all);
        assert_eq!(out.planes.len(), 1);
        for t in &ts {
            assert!(out.planes[0].accepts(t));
        }
        // The margin midpoint rejects the FALSE cluster too (separable).
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
        let out = learn(&cols(&["a1", "a2"]), &ts, &fs).unwrap();
        assert!(out.covered_all);
        for t in &ts {
            assert!(out.planes.iter().any(|p| p.accepts(t)), "missed {t:?}");
        }
        for f in &fs {
            assert!(
                !out.planes.iter().all(|p| p.accepts(f)) || out.planes.len() > 1,
                "plane too weak"
            );
        }
    }

    #[test]
    fn non_separable_reports_coverage_honestly() {
        // TRUE at both ends, FALSE in the middle.
        let ts = vec![pt(&[-10]), pt(&[-12]), pt(&[10]), pt(&[12])];
        let fs = vec![pt(&[-1]), pt(&[0]), pt(&[1])];
        let out = learn(&cols(&["a"]), &ts, &fs).unwrap();
        // Symmetric opposing clusters defeat a hinge-loss linear learner
        // (§6.7): the contract we can assert is *consistency* — whenever
        // covered_all is reported, every TRUE sample really is covered.
        if out.covered_all {
            for t in &ts {
                assert!(out.planes.iter().any(|p| p.accepts(t)));
            }
        }
    }

    #[test]
    fn asymmetric_clusters_use_disjunction() {
        // A large TRUE cluster on the right, a small TRUE cluster far
        // left, dense FALSE in between. The global SVM fit covers the big
        // cluster (sacrificing the small one costs less hinge loss), and
        // Alg 2's retrain-on-misclassified loop adds a second plane for
        // the leftovers.
        let mut ts = Vec::new();
        for x in 60..=100i64 {
            ts.push(pt(&[x]));
        }
        ts.push(pt(&[-80]));
        ts.push(pt(&[-82]));
        // The FALSE block must be dense and the clusters sized so hinge
        // loss prefers a plane through the margin (sacrificing the small
        // far TRUE pair) over the degenerate all-one-class planes.
        let fs: Vec<Vec<BigInt>> = (-50..=50).map(|x| pt(&[x])).collect();
        let out = learn(&cols(&["x"]), &ts, &fs).unwrap();
        assert!(out.covered_all, "planes: {:?}", out.planes);
        assert!(out.planes.len() >= 2, "planes: {:?}", out.planes);
        for t in &ts {
            assert!(out.planes.iter().any(|p| p.accepts(t)), "missed {t:?}");
        }
        // The far side of the FALSE block sits outside every half-plane
        // (soft margins may nibble at the boundary side; the outer loop's
        // counter-examples handle that).
        for f in fs.iter().filter(|f| f[0] <= BigInt::zero()) {
            assert!(
                !out.planes.iter().any(|p| p.accepts(f)),
                "accepted FALSE {f:?} with planes {:?}",
                out.planes
            );
        }
    }

    #[test]
    fn empty_inputs_return_none() {
        let ts = vec![pt(&[1])];
        assert!(learn(&cols(&["a"]), &ts, &[]).is_none());
        assert!(learn(&cols(&["a"]), &[], &ts).is_none());
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
        let out = learn(&names, &ts, &fs).unwrap();
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
