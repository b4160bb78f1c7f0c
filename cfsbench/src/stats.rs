//! Medians, the percentile rule and the short-window guard.

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps products like 0.9 * 10 = 9.000000000000002 at
    // rank 9.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a latency may be reported at, highest first. The
/// ladder stops at p99 so that a speed-up that adds samples cannot
/// silently switch a p99 metric to p99.9.
/// In per-mille, so "ten beyond" is exact integer arithmetic.
const TAIL_LADDER: [usize; 3] = [990, 900, 500];

/// The highest percentile of the ladder that has at least ten samples
/// beyond it, or `None` when even the median has not.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|pm| samples * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 1000.0)
}

/// A phase that measured for less than a twentieth of the run (1 s of
/// the standard 20 s) is too short to trust: the run says so and the
/// phase's repeat count is to be rescaled in a later benchmark change.
pub fn window_too_short(phase_seconds: f64, run_seconds: f64) -> bool {
    phase_seconds < run_seconds / 20.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 999 samples has 9.99 beyond it; of 1000, exactly 10.
        assert_eq!(supported_tail(999), Some(0.90));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(1_000_000), Some(0.99));
        assert_eq!(supported_tail(99), Some(0.50));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(19), None);
    }

    #[test]
    fn short_window_guard() {
        assert!(window_too_short(0.99, 20.0));
        assert!(!window_too_short(1.0, 20.0));
        assert!(window_too_short(0.0, 1.0));
    }
}
