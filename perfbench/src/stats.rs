//! Percentiles of timing samples.
//!
//! A tail percentile is only reported where at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p99 needs 1000 samples and a p90 needs 100. Percentiles are given in per mille so the rank
//! arithmetic is exact.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first, in per mille.
pub const TAIL_LADDER: [u32; 4] = [999, 990, 900, 500];

/// Sorts samples for [`percentile`] and [`tail`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest rank of the `per_mille` percentile among `n` samples (1-based).
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of sorted samples; `None` when there are none.
pub fn percentile(sorted: &[f64], per_mille: u32) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), per_mille) - 1])
}

/// A reported tail: the percentile it was taken at, its value and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in per mille.
    pub per_mille: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`], not above `cap`, that has at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median has fewer.
pub fn tail(sorted: &[f64], cap: u32) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&pm| pm <= cap)
        .find(|&pm| n - rank(n, pm) >= MIN_BEYOND)
        .map(|per_mille| Tail {
            per_mille,
            value: sorted[rank(n, per_mille) - 1],
            n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 500), Some(50.0));
        assert_eq!(percentile(&s, 900), Some(90.0));
        assert_eq!(percentile(&s, 990), Some(99.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&[3.0], 990), Some(3.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(
            tail(&ramp(100), 990),
            Some(Tail {
                per_mille: 900,
                value: 90.0,
                n: 100
            })
        );
        // 99 samples: p90 leaves 9 beyond, so only the median qualifies.
        assert_eq!(
            tail(&ramp(99), 990),
            Some(Tail {
                per_mille: 500,
                value: 50.0,
                n: 99
            })
        );
        // 1000 samples support p99, and 10000 support p99.9 when the cap allows it.
        assert_eq!(tail(&ramp(1000), 990).map(|t| t.per_mille), Some(990));
        assert_eq!(tail(&ramp(10_000), 999).map(|t| t.per_mille), Some(999));
        assert_eq!(tail(&ramp(10_000), 990).map(|t| t.per_mille), Some(990));
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(tail(&ramp(19), 990), None);
        assert_eq!(tail(&ramp(20), 990).map(|t| t.per_mille), Some(500));
    }

    #[test]
    fn sorting_handles_unordered_input() {
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
