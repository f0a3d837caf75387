//! Summary statistics: the percentile rule, medians and geometric means.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0 < `p` < 100) of `samples` by nearest rank,
/// or `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    // The epsilon keeps a rank that is whole in exact arithmetic (p99 of
    // 1000 samples is rank 990) from rounding up past it.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest percentile that has at least [`TAIL_SAMPLES`] samples
/// beyond it out of `n`, with its value: `None` below `TAIL_SAMPLES + 1`
/// samples.
#[must_use]
pub fn highest_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let p = 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((p, sorted[n - TAIL_SAMPLES - 1]))
}

/// The median (mean of the middle two for an even count); NaN when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive values; NaN when empty or when any
/// value is not positive.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(21), 50.0), Some(11.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_leaves_exactly_ten_beyond() {
        let (p, v) = highest_percentile(&ramp(40)).expect("40 samples support a tail");
        assert!((p - 75.0).abs() < 1e-9);
        assert_eq!(v, 30.0);
        assert_eq!(percentile(&ramp(40), p), Some(v));
        assert_eq!(highest_percentile(&ramp(10)), None);
        let (p, v) = highest_percentile(&ramp(2000)).expect("tail");
        assert!((p - 99.5).abs() < 1e-9);
        assert_eq!(v, 1990.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0; 7]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[1e-3, 1e3]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }
}
