//! Order statistics over raw samples.
//!
//! Every timing is kept as a raw sample, never bucketed, so percentiles
//! are exact order statistics of what was measured.

/// The highest of the reported percentiles (50, 90, 99, 99.9) that has
/// at least ten samples beyond it among `n`; `None` below ten samples.
/// A tail percentile read from fewer samples is one or two outliers,
/// not a property of the system.
pub fn supported_tail(n: usize) -> Option<f64> {
    // Per-mille, so the rank arithmetic is exact.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|&pm| n - (pm * n).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// The `p`-th percentile (0 < p ≤ 100) of `sorted` by the nearest-rank
/// rule; 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns its `p`-th percentile (nearest rank).
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    percentile_sorted(values, p)
}

/// Indices of the `n` smallest of `steal` (the least-stolen stretches
/// of a run), in their original order.
fn least_stolen(steal: &[f64], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(n);
    order.sort_unstable();
    order
}

/// Indices of the stretches of a run to measure with: those whose steal
/// share is at most `limit`, or, when fewer than half are, the
/// least-stolen half (in their original order).
pub fn kept_stretches(steal: &[f64], limit: f64) -> Vec<usize> {
    let clean = steal.iter().filter(|&&s| s <= limit).count();
    least_stolen(steal, clean.max(steal.len().div_ceil(2)))
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 500);
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(percentile_sorted(&v, 100.0), 1000);
        assert_eq!(percentile_sorted(&v, 0.01), 1);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn the_least_stolen_are_kept_in_order() {
        assert_eq!(
            least_stolen(&[0.05, 0.0, 0.02, 0.0, 0.01], 3),
            vec![1, 3, 4]
        );
        assert_eq!(least_stolen(&[0.0, 0.0, 0.0], 3), vec![0, 1, 2]);
        assert_eq!(least_stolen(&[0.3, 0.1], 3), vec![0, 1]);
    }

    #[test]
    fn clean_stretches_or_else_the_least_stolen_half_are_kept() {
        assert_eq!(
            kept_stretches(&[0.0, 0.05, 0.01, 0.0, 0.02], 0.01),
            vec![0, 2, 3]
        );
        assert_eq!(
            kept_stretches(&[0.04, 0.0, 0.05, 0.02, 0.03], 0.01),
            vec![1, 3, 4]
        );
        assert_eq!(kept_stretches(&[], 0.01), Vec::<usize>::new());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
