//! Order statistics over per-op samples.

/// The smallest number of samples a reported percentile must leave beyond
/// it: a tail percentile read off fewer samples is one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `pct`-th percentile (0 < pct < 100) by the nearest-rank rule,
/// reported only when at least [`MIN_TAIL_SAMPLES`] samples lie beyond its
/// rank; `None` otherwise. For the 99th percentile that takes 1000 samples.
pub fn tail_percentile(values: &[f64], pct: usize) -> Option<f64> {
    let n = values.len();
    // Nearest rank: the 1-based rank ⌈pct·n/100⌉.
    let rank = (pct * n).div_ceil(100).clamp(1, n.max(1));
    if n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Largest sample; `None` when empty.
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly ten beyond it.
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 99), Some(990.0));
        // 999 samples: rank 990 leaves nine — not reported.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 99), None);
        // A handful of slow ops never yields a p99.
        assert_eq!(tail_percentile(&[11_000.0, 12_000.0], 99), None);
        assert_eq!(tail_percentile(&[], 99), None);
        // The median of a short run is still a percentile with a tail.
        assert_eq!(tail_percentile(&enough[..21], 50), Some(11.0));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let answer = tail_percentile(&v, 99);
        v.reverse();
        assert_eq!(tail_percentile(&v, 99), answer);
        assert_eq!(answer, Some(1979.0));
    }
}
