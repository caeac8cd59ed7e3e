//! Exact order statistics over raw samples.
//!
//! Percentiles are computed by the nearest-rank rule on the full,
//! sorted sample vector: the `p`-th percentile of `n` samples is the
//! sample of rank `ceil(p / 100 * n)`. No bucketing, so two runs that
//! differ by less than a histogram bucket still read differently.

/// One percentile read off a sorted sample: its value, the number of
/// samples it was taken from, and how many samples lie strictly above
/// its rank (the tail that supports it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub p: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The 1-based nearest rank of percentile `p` (0 < p <= 100) among
/// `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    assert!(n > 0, "percentile of an empty sample");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Percentile `p` of `sorted`, which must be sorted ascending.
pub fn percentile(sorted: &[f64], p: f64) -> Percentile {
    let r = rank(p, sorted.len());
    Percentile {
        p,
        value: sorted[r - 1],
        samples: sorted.len(),
        beyond: sorted.len() - r,
    }
}

/// Sorts `samples` ascending (total order; NaN sorts last).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        assert_eq!(rank(50.0, 1), 1);
        assert_eq!(rank(50.0, 2), 1);
        assert_eq!(rank(50.0, 3), 2);
        assert_eq!(rank(50.0, 10), 5);
        assert_eq!(rank(90.0, 10), 9);
        assert_eq!(rank(99.0, 10), 10);
        assert_eq!(rank(99.0, 100), 99);
        assert_eq!(rank(99.0, 1000), 990);
        assert_eq!(rank(100.0, 7), 7);
        // 0.1 * 30 is 3.0000000000000004 in binary; the rank must not
        // round up to 4 because of it.
        assert_eq!(rank(10.0, 30), 3);
    }

    #[test]
    fn percentiles_are_samples_with_their_tail_counts() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        sort(&mut v);
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.samples, p50.beyond), (500.0, 1000, 500));
        let p99 = percentile(&v, 99.0);
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        let p100 = percentile(&v, 100.0);
        assert_eq!((p100.value, p100.beyond), (1000.0, 0));
    }

    #[test]
    fn close_samples_stay_distinct() {
        // 8, 9, 10 and 11 µs fall in one 12.5 % histogram bucket; exact
        // ranks keep them apart.
        for x in [8.0, 9.0, 10.0, 11.0] {
            let mut v = vec![x - 1.0, x, x + 5.0];
            sort(&mut v);
            assert_eq!(percentile(&v, 50.0).value, x);
        }
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
