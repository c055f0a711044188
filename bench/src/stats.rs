//! Order statistics: medians, the tail-percentile rule, and the quartile
//! spread the acceptance checks are written in.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (sorts in place): the middle value, or the mean of
/// the middle two, as Python's `statistics.median`. 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of the `pct` percentile among `n` samples. The
/// small slack keeps 99.9 % of 10 000 at rank 9990 despite binary
/// floating point.
fn rank(n: usize, pct: f64) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank
}

/// Nearest-rank percentile of an ascending slice. 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the `pct` percentile rank.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it; `None` when even the lowest candidate has fewer.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spreads printed here are the
/// ones the acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let med = median(&mut values.to_vec());
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(99), Some(75.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(999), Some(95.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        assert_eq!(highest_tail(39), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert!((q1 - 10.0).abs() < 1e-12 && (q3 - 40.0).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
