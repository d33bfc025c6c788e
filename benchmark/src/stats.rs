//! Order statistics shared by the run and `compare` paths.

/// Percentiles the tail metric may use, highest first.
const TAIL_CANDIDATES: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a reported tail percentile must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of `n` samples with at least ten samples beyond
/// it (p99 needs 1000 samples, p95 200, p90 100); p50 below that.
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The median, interpolated between the middle pair for even counts.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads match the ones a
/// reader computes from the same numbers. One sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(1), quartile(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5_000), 99);
        assert_eq!(tail_percentile(1_000), 99);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(420), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(140), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(3), 50);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 99), 99.0);
        assert_eq!(percentile(&values, 50), 50.0);
        assert_eq!(percentile(&values, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }
}
