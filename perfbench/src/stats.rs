//! Order statistics over one run's samples.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct`% of all samples at or below it. `0` when
/// there are no samples.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples — the README's rule fixes each workload's tail percentile so
/// that this is at least ten in every run.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median of `xs` (mean of the middle two for an even count; `0` when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50);
        assert_eq!(percentile_sorted(&xs, 90.0), 90);
        assert_eq!(percentile_sorted(&xs, 99.0), 99);
        assert_eq!(percentile_sorted(&xs, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
