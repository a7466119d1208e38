//! Order statistics for the benchmark's timings.

/// Samples that must lie above a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// small slack keeps `0.999 * 10000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median, the mean of the two middle samples when the count is even.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// An ascending copy (timings are finite; NaN would be a harness bug).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), MIN_BEYOND_TAIL);
        assert_eq!(beyond(200, 95.0), MIN_BEYOND_TAIL);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(1, 99.0), 0);
        assert_eq!(beyond(0, 99.0), 0);
        // The tenth sample beyond p99 of 1000 is the largest.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), beyond(1000, 99.0));
    }
}
