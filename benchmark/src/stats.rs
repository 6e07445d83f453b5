//! Order statistics for the benchmark's samples.

/// Ascending copy of `xs`. Samples are times and counts: never NaN.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so a spread computed here reads
/// the same as one computed by the driver. Fewer than two samples have
/// no spread: both quartiles are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on the 1-based sorted sample, clamped so
        // the interpolation stays between two existing neighbours.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median; 0 when the
/// median is 0.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an unsorted sample; 0
/// for an empty one.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(0, n)
}

/// The highest percentile of the reporting ladder that still has at
/// least `beyond` samples above it — the tail a sample of `n` supports.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 60.0);
        assert_eq!(percentile(&xs, 90.0), 108.0);
        assert_eq!(percentile(&xs, 100.0), 120.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule_picks_p90_at_120() {
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert_eq!(samples_beyond(120, 95.0), 6);
        assert_eq!(highest_supported_percentile(120, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(1200, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(200, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(20, 10), Some(50.0));
    }
}
