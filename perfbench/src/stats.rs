//! Order statistics used by every report: nearest-rank percentiles with the
//! "at least ten samples beyond" rule, and quartiles computed exactly like
//! Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
//! method), so a spread printed here matches one computed by hand.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based). `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples (by rank, so ties do not shrink the count).
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Fewest samples that support the `p`-th percentile.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| supports(n, p))
        .expect("some sample count supports p < 100")
}

/// The highest of the usual reporting percentiles that `n` samples
/// support, for the human-readable summary.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Median as Python's `statistics.median` defines it (mean of the two
/// middle values for an even count). `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, q2, q3)` exactly as `statistics.quantiles(values, n=4)` returns
/// them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // May be negative (or exceed 4) when `j` was clamped, exactly as in
        // Python, which then extrapolates from the end pair.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread every bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Arithmetic mean. `None` on an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(min_samples_for(95.0), 200);
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(min_samples_for(50.0), 20);
        assert_eq!(min_samples_for(99.0), 1000);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Ten samples lie above the 95th percentile of 200.
        let p95 = percentile(&v, 95.0).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4) == [20.0, 40.0, 60.0]
        let v = [70.0, 10.0, 30.0, 20.0, 60.0, 50.0, 40.0];
        assert_eq!(quartiles(&v), Some((20.0, 40.0, 60.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
