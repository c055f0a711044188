//! A linear support vector machine trained with dual coordinate descent
//! (the LIBLINEAR algorithm: Hsieh et al., *A Dual Coordinate Descent
//! Method for Large-scale Linear SVM*, ICML 2008), replacing the LibSVM
//! dependency of the paper (§5.4).
//!
//! Sia needs exactly two things from its learner:
//!
//! 1. an **interpretable** model — a separating hyperplane `w·x + b` that
//!    maps back to a SQL predicate, and
//! 2. **decidable verification** — linear weights keep the follow-up SMT
//!    query inside linear arithmetic.
//!
//! [`train`] produces a float hyperplane; [`rationalize`] converts it to
//! small integer coefficients (continued-fraction approximation) so the
//! synthesized predicate is clean SQL and exact for the SMT verifier.

#![warn(missing_docs)]

use sia_num::BigInt;

mod rational;

pub use rational::{rationalize, rationalize_value};

/// A labelled training sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature vector (one entry per column, fixed order).
    pub features: Vec<f64>,
    /// TRUE (positive class) or FALSE (negative class).
    pub label: bool,
}

impl Sample {
    /// Construct a sample.
    pub fn new(features: Vec<f64>, label: bool) -> Self {
        Sample { features, label }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// Soft-margin penalty `C` (large ⇒ prioritize separation).
    pub c: f64,
    /// Maximum passes over the data.
    pub max_iters: usize,
    /// Convergence tolerance on the projected gradient range.
    pub tol: f64,
    /// Relative duality-gap tolerance: training stops as soon as
    /// `P(w) − D(α) ≤ gap_tol · max(1, |P(w)|)`, where `P` is the primal
    /// hinge-loss objective and `D` the dual. The gap bounds the
    /// suboptimality of the current iterate directly, so this fires long
    /// before the projected-gradient test on problems where the gradient
    /// range decays slowly (the common case for Sia's near-hard margins).
    /// The gap is measured scale-invariantly — the primal is evaluated at
    /// the best rescaling of the iterate, which is the same decision
    /// boundary — so the large-`C` hinge noise on support vectors does
    /// not mask convergence. Set to `0.0` to disable and rely on `tol`
    /// alone.
    pub gap_tol: f64,
    /// Seed for the coordinate-shuffling PRNG (training is deterministic
    /// given the seed).
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            // Large C ≈ hard margin: Sia's counter-example loop places
            // TRUE and FALSE samples a few integer units apart around the
            // true boundary, and only a near-hard margin pinches onto it.
            c: 1e6,
            max_iters: 4000,
            tol: 1e-9,
            gap_tol: 1e-3,
            seed: 0x51ab055,
        }
    }
}

/// A learned separating hyperplane: `x` is positive iff `w·x + b > 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperplane {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
}

impl Hyperplane {
    /// The signed decision value `w·x + b`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.weights.len());
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.bias
    }

    /// Classify a point (`true` = positive side).
    pub fn classify(&self, x: &[f64]) -> bool {
        self.decision(x) > 0.0
    }

    /// Fraction of samples classified correctly.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 1.0;
        }
        let hits = samples
            .iter()
            .filter(|s| self.classify(&s.features) == s.label)
            .count();
        hits as f64 / samples.len() as f64
    }

    /// The positive samples the hyperplane gets wrong (Alg 2's
    /// `misclassified(Ts, model)`).
    pub fn misclassified_positives<'a>(&self, samples: &'a [Sample]) -> Vec<&'a Sample> {
        samples
            .iter()
            .filter(|s| s.label && !self.classify(&s.features))
            .collect()
    }
}

/// Convergence diagnostics from one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Coordinate-descent epochs (full passes over the data) executed.
    pub epochs: u32,
    /// Final duality gap `P(w) − D(α)` in the scaled augmented space.
    pub gap: f64,
}

/// Train a linear SVM on the samples.
///
/// Uses L1-loss (hinge) dual coordinate descent with an augmented constant
/// feature for the bias. Works for non-separable data (soft margin); with
/// the default large `C` it recovers a separating hyperplane whenever one
/// exists, which is the regime Sia's counter-example loop relies on.
///
/// # Panics
/// Panics if `samples` is empty or features have inconsistent lengths.
pub fn train(samples: &[Sample], config: &SvmConfig) -> Hyperplane {
    train_with_stats(samples, config).0
}

/// [`train`], also returning convergence diagnostics — epochs run and the
/// final duality gap — without going through the global metrics sink.
///
/// # Panics
/// Panics if `samples` is empty or features have inconsistent lengths.
pub fn train_with_stats(samples: &[Sample], config: &SvmConfig) -> (Hyperplane, TrainStats) {
    assert!(!samples.is_empty(), "cannot train on zero samples");
    let dim = samples[0].features.len();
    assert!(
        samples.iter().all(|s| s.features.len() == dim),
        "inconsistent feature dimensions"
    );
    // Scale features to a comparable range to stabilize convergence: the
    // dual update divides by ‖x‖², so wildly different magnitudes (day
    // offsets can be ±2500) slow the solver down. A single global scale
    // keeps the mapping back to original coordinates linear.
    let max_abs = samples
        .iter()
        .flat_map(|s| s.features.iter())
        .fold(1.0f64, |m, v| m.max(v.abs()));
    let scale = 1.0 / max_abs;
    let n = samples.len();
    // Augmented representation: x' = (x·scale, B), so bias = B·w_{dim}.
    // The bias feature is scaled up (LIBLINEAR's -B option) so that the
    // implicit regularization of the augmented weight barely penalizes
    // the bias — otherwise the learned boundary is pulled toward the
    // origin instead of sitting at the margin midpoint.
    const BIAS_SCALE: f64 = 16.0;
    let xs: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| {
            let mut v: Vec<f64> = s.features.iter().map(|f| f * scale).collect();
            v.push(BIAS_SCALE);
            v
        })
        .collect();
    let ys: Vec<f64> = samples
        .iter()
        .map(|s| if s.label { 1.0 } else { -1.0 })
        .collect();
    let qii: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().map(|v| v * v).sum::<f64>())
        .collect();
    let _span = sia_obs::span("svm.train");
    let mut alpha = vec![0.0f64; n];
    let mut w = vec![0.0f64; dim + 1];
    // y·(w·x) per sample, overwritten at every duality-gap check.
    let mut margins = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = XorShift64::new(config.seed);
    // The gap evaluation costs a full O(n·d) pass — as much as an epoch —
    // so amortize it by checking only every few epochs.
    const GAP_CHECK_EVERY: u32 = 10;
    let mut epochs: u32 = 0;
    let mut gap = f64::INFINITY;
    for _ in 0..config.max_iters {
        epochs += 1;
        rng.shuffle(&mut order);
        let mut max_pg: f64 = 0.0;
        for &i in &order {
            let xi = &xs[i];
            let yi = ys[i];
            // G = y_i·(w·x_i) - 1
            let g = yi * dot(&w, xi) - 1.0;
            // Projected gradient under the box constraint 0 ≤ α ≤ C.
            let pg = if alpha[i] <= 0.0 {
                g.min(0.0)
            } else if alpha[i] >= config.c {
                g.max(0.0)
            } else {
                g
            };
            max_pg = max_pg.max(pg.abs());
            if pg.abs() > 1e-14 {
                let old = alpha[i];
                alpha[i] = (old - g / qii[i]).clamp(0.0, config.c);
                let d = (alpha[i] - old) * yi;
                for (wk, xk) in w.iter_mut().zip(xi) {
                    *wk += d * xk;
                }
            }
        }
        if max_pg < config.tol {
            break;
        }
        // Duality-gap stop: P(w) − D(α) = ‖w‖² + C·Σhinge − Σα bounds how
        // far the current primal iterate is from optimal, so a small gap
        // certifies the hyperplane even while individual projected
        // gradients are still churning. One extra O(n·d) pass per epoch —
        // the same cost as the epoch itself — in exchange for stopping
        // hundreds of epochs before the gradient test fires.
        if config.gap_tol > 0.0 && epochs.is_multiple_of(GAP_CHECK_EVERY) {
            let wnorm2 = dot(&w, &w);
            let sum_alpha: f64 = alpha.iter().sum();
            let dual = sum_alpha - 0.5 * wnorm2;
            for (m, (x, y)) in margins.iter_mut().zip(xs.iter().zip(&ys)) {
                *m = y * dot(&w, x);
            }
            // Weak duality makes P(v) − D(α) an upper bound on the
            // suboptimality for ANY primal point v, so evaluate the primal
            // at the best rescaling s·w of the iterate. The decision
            // boundary is invariant under positive scaling of the
            // augmented w, but the large-C hinge term is not: late in a
            // run the raw P(w) stays inflated by C·(1e-5-sized) margin
            // violations that a factor-(1+1e-4) rescale erases entirely.
            let mut primal = f64::INFINITY;
            for k in [0.0f64, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0] {
                let s = 1.0 + k;
                let hinge: f64 = margins.iter().map(|m| (1.0 - s * m).max(0.0)).sum();
                primal = primal.min(0.5 * s * s * wnorm2 + config.c * hinge);
            }
            gap = primal - dual;
            if gap <= config.gap_tol * primal.abs().max(1.0) {
                break;
            }
        }
    }
    if sia_obs::enabled() {
        sia_obs::add(sia_obs::Counter::SvmTrainings, 1);
        sia_obs::record(sia_obs::Hist::SvmIterations, f64::from(epochs));
        // Geometric margin at convergence (in the scaled, bias-augmented
        // feature space): min over samples of y·(w·x)/‖w‖.
        let norm = dot(&w, &w).sqrt();
        if norm > 0.0 {
            let margin = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| y * dot(&w, x) / norm)
                .fold(f64::INFINITY, f64::min);
            if margin.is_finite() {
                sia_obs::record(sia_obs::Hist::SvmMargin, margin);
            }
        }
    }
    let bias = w[dim] * BIAS_SCALE;
    let weights: Vec<f64> = w[..dim].iter().map(|v| v * scale).collect();
    (Hyperplane { weights, bias }, TrainStats { epochs, gap })
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Minimal xorshift PRNG for deterministic shuffling (keeps this crate
/// dependency-free).
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// An integer-coefficient hyperplane `Σ wᵢ·xᵢ + b > 0` over exact
/// integers, produced by [`rationalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntHyperplane {
    /// Integer weights.
    pub weights: Vec<BigInt>,
    /// Integer bias.
    pub bias: BigInt,
}

impl IntHyperplane {
    /// Exact decision value at an integer point.
    pub fn decision(&self, x: &[BigInt]) -> BigInt {
        debug_assert_eq!(x.len(), self.weights.len());
        let mut acc = self.bias.clone();
        for (w, v) in self.weights.iter().zip(x) {
            acc = acc + w * v;
        }
        acc
    }

    /// Classify an integer point.
    pub fn classify(&self, x: &[BigInt]) -> bool {
        self.decision(x).is_positive()
    }

    /// True iff every weight is zero (degenerate plane).
    pub fn is_degenerate(&self) -> bool {
        self.weights.iter().all(|w| w.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(f: &[f64], label: bool) -> Sample {
        Sample::new(f.to_vec(), label)
    }

    #[test]
    fn separable_1d() {
        let samples = vec![
            s(&[3.0], true),
            s(&[4.0], true),
            s(&[10.0], true),
            s(&[1.0], false),
            s(&[0.0], false),
            s(&[-5.0], false),
        ];
        let h = train(&samples, &SvmConfig::default());
        assert_eq!(h.accuracy(&samples), 1.0, "plane {h:?}");
        assert!(h.weights[0] > 0.0);
    }

    #[test]
    fn separable_2d_diagonal() {
        // Positive iff x + y ≥ 2, negative iff x + y ≤ -2.
        let mut samples = Vec::new();
        for i in -5i32..=5 {
            for j in -5i32..=5 {
                let v = i + j;
                if v >= 2 {
                    samples.push(s(&[i as f64, j as f64], true));
                } else if v <= -2 {
                    samples.push(s(&[i as f64, j as f64], false));
                }
            }
        }
        let h = train(&samples, &SvmConfig::default());
        assert_eq!(h.accuracy(&samples), 1.0);
        assert!(h.weights[0] > 0.0 && h.weights[1] > 0.0);
        let ratio = h.weights[0] / h.weights[1];
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_learning_iteration_one() {
        // §3.2 first iteration: TRUE (-5,1),(2,-6),(-27,-44),(-28,-46),(-7,-1)
        // FALSE (-40,-2),(-56,-2),(-53,-2),(-48,-2). Linearly separable.
        let samples = vec![
            s(&[-5.0, 1.0], true),
            s(&[2.0, -6.0], true),
            s(&[-27.0, -44.0], true),
            s(&[-28.0, -46.0], true),
            s(&[-7.0, -1.0], true),
            s(&[-40.0, -2.0], false),
            s(&[-56.0, -2.0], false),
            s(&[-53.0, -2.0], false),
            s(&[-48.0, -2.0], false),
        ];
        let h = train(&samples, &SvmConfig::default());
        assert_eq!(h.accuracy(&samples), 1.0, "plane {h:?}");
    }

    #[test]
    fn non_separable_still_trains() {
        // XOR: not linearly separable; training terminates and the
        // misclassified-positives helper reports the failures.
        let samples = vec![
            s(&[0.0, 0.0], true),
            s(&[1.0, 1.0], true),
            s(&[0.0, 1.0], false),
            s(&[1.0, 0.0], false),
        ];
        let h = train(&samples, &SvmConfig::default());
        let missed = h.misclassified_positives(&samples);
        assert!(h.accuracy(&samples) < 1.0);
        // whichever side it sacrificed, the helper only reports positives
        assert!(missed.iter().all(|m| m.label));
    }

    #[test]
    fn duality_gap_stops_before_epoch_cap() {
        // Separable fixture mirroring the CEGIS regime: integer samples a
        // few units apart around the true boundary with a near-hard
        // margin. The projected-gradient test alone grinds toward the
        // epoch cap here; the duality gap certifies the plane much
        // earlier without costing any accuracy.
        let mut samples = Vec::new();
        for i in -8i32..=8 {
            for j in -8i32..=8 {
                let v = i + j;
                if v >= 2 {
                    samples.push(s(&[f64::from(i), f64::from(j)], true));
                } else if v <= -2 {
                    samples.push(s(&[f64::from(i), f64::from(j)], false));
                }
            }
        }
        let cfg = SvmConfig::default();
        let (h, stats) = train_with_stats(&samples, &cfg);
        assert_eq!(h.accuracy(&samples), 1.0, "plane {h:?}");
        assert!(
            (stats.epochs as usize) < cfg.max_iters,
            "gap stop never fired: {} epochs",
            stats.epochs
        );
        assert!(stats.gap.is_finite());
        // Disabling the gap stop must not change correctness, and can
        // only run longer.
        let (h2, stats2) = train_with_stats(
            &samples,
            &SvmConfig {
                gap_tol: 0.0,
                ..cfg
            },
        );
        assert_eq!(h2.accuracy(&samples), 1.0);
        assert!(stats2.epochs >= stats.epochs);
    }

    #[test]
    fn deterministic_given_seed() {
        let samples = vec![
            s(&[3.0, 1.0], true),
            s(&[4.0, -2.0], true),
            s(&[-1.0, 0.5], false),
            s(&[-2.0, 2.0], false),
        ];
        let h1 = train(&samples, &SvmConfig::default());
        let h2 = train(&samples, &SvmConfig::default());
        assert_eq!(h1, h2);
    }

    #[test]
    fn large_magnitude_features() {
        // Day offsets in the thousands must still converge.
        let samples = vec![
            s(&[8500.0], true),
            s(&[9000.0], true),
            s(&[-8400.0], false),
            s(&[-100.0], false),
        ];
        let h = train(&samples, &SvmConfig::default());
        assert_eq!(h.accuracy(&samples), 1.0);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_panics() {
        let _ = train(&[], &SvmConfig::default());
    }

    #[test]
    fn int_hyperplane_decisions() {
        let h = IntHyperplane {
            weights: vec![BigInt::from(2i64), BigInt::from(1i64)],
            bias: BigInt::from(50i64),
        };
        // Paper's first learned predicate 2·a1 + a2 + 50 > 0.
        let at = |a: i64, b: i64| vec![BigInt::from(a), BigInt::from(b)];
        assert!(h.classify(&at(-5, 1)));
        assert!(!h.classify(&at(-40, -2)));
        assert!(!h.is_degenerate());
        assert!(IntHyperplane {
            weights: vec![BigInt::zero()],
            bias: BigInt::one()
        }
        .is_degenerate());
    }
}
