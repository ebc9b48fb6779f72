//! Order statistics over exact samples, and the tail-percentile rule:
//! a tail is reported at the highest percentile that still has at
//! least [`TAIL_MIN_BEYOND`] samples beyond it, capped at the metric's
//! nominal percentile.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `q` among `n` samples: the
/// smallest rank with at least `q·n` samples at or below it. The
/// epsilon keeps `0.99 · 1000` at rank 990 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The rank a tail metric nominally at percentile `target` is read at
/// for `n` samples: the nominal rank, lowered until at least ten
/// samples lie beyond it. `None` when `n ≤ 10`.
pub fn tail_rank(n: usize, target: f64) -> Option<usize> {
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    Some(rank(n, target).min(n - TAIL_MIN_BEYOND))
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// A latency tail by the rule above: `(value, percentile used)`.
pub fn tail(sorted: &[u64], target: f64) -> Option<(u64, f64)> {
    let r = tail_rank(sorted.len(), target)?;
    Some((sorted[r - 1], r as f64 / sorted.len() as f64))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
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
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail_rank(0, 0.99), None);
        assert_eq!(tail_rank(10, 0.99), None);
        assert_eq!(tail_rank(11, 0.99), Some(1));
        assert_eq!(tail(&[5; 10], 0.5), None);
    }

    #[test]
    fn tail_is_the_nominal_percentile_when_samples_allow() {
        assert_eq!(tail_rank(1000, 0.99), Some(990));
        assert_eq!(tail_rank(100, 0.90), Some(90));
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&sorted, 0.99), Some((990, 0.99)));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it_and_is_the_highest_such() {
        for n in 11..3000 {
            for target in [0.5, 0.9, 0.99] {
                let r = tail_rank(n, target).unwrap();
                assert!(n - r >= TAIL_MIN_BEYOND, "n={n} target={target}");
                assert!(r <= rank(n, target));
                if r < rank(n, target) {
                    assert_eq!(n - r, TAIL_MIN_BEYOND, "n={n} target={target}");
                }
            }
        }
    }

    #[test]
    fn lowered_tail_reads_the_eleventh_largest_sample() {
        let sorted: Vec<u64> = (1..=50).collect();
        assert_eq!(tail(&sorted, 0.99), Some((40, 0.8)));
        assert_eq!(tail(&sorted, 0.5), Some((25, 0.5)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.5), Some(20));
        assert_eq!(percentile(&sorted, 0.75), Some(30));
        assert_eq!(percentile(&sorted, 1.0), Some(40));
        assert_eq!(percentile(&sorted, 0.0), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
