//! Small statistics helpers: nearest-rank percentiles with a tail rule,
//! low quantiles, medians, and wall-clock timing of one call.

use std::time::Instant;

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` (0 < pct ≤ 100) of `sorted` (ascending).
///
/// Returns `None` when the set is empty or when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond the chosen rank — a tail
/// figure resting on a handful of samples is not reported at all.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(pct > 0.0 && pct <= 100.0) {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Nearest-rank `q`-quantile (0 < q ≤ 1) of `values`, which need not be
/// sorted. Unlike [`percentile`] it asks for no samples beyond the rank:
/// it is meant for the fast end, where nothing beyond it is a tail.
/// Returns `None` for an empty set or a `q` out of range.
pub fn low_quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
/// Returns `None` for an empty set.
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

/// Runs `f` once, returning its result and its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 50.5), Some(51.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        let v = ramp(40);
        // ceil(0.25 * 40) = 10: the 10th smallest, 30 samples beyond.
        assert_eq!(percentile(&v, 25.0), Some(10.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank ceil(989.01) = 990, only 9 beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // A median of 19 samples has 9 beyond it; of 20, 10.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 100.5), None);
        assert_eq!(percentile(&ramp(100), f64::NAN), None);
    }

    #[test]
    fn low_quantile_takes_the_nearest_rank_of_any_order() {
        let v: Vec<f64> = ramp(40).into_iter().rev().collect();
        // ceil(0.05 * 40) = 2.
        assert_eq!(low_quantile(&v, 0.05), Some(2.0));
        assert_eq!(low_quantile(&v, 1.0), Some(40.0));
        assert_eq!(low_quantile(&[7.0], 0.05), Some(7.0));
        assert_eq!(low_quantile(&[], 0.05), None);
        assert_eq!(low_quantile(&v, 0.0), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
