//! Percentiles over raw latency samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Number of samples strictly beyond percentile `p` of `n` samples, when
/// the percentile is taken by nearest rank.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// offset keeps a product that float rounding lifts just above a whole
/// number (99.9 % of 10 000 is 9990.000000000002) on that number.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile, no higher than `want`, that has at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median has not.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&p| p <= want && n > 0)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// A percentile as reported: the value, the percentile it was actually
/// taken at (lower than asked when the sample is too small) and the
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Value in the samples' unit.
    pub value: u64,
    /// Percentile the value was taken at.
    pub at: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Percentile `want` of `samples`, lowered to the highest supported one.
/// Sorts `samples` in place.
pub fn quantile(samples: &mut [u64], want: f64) -> Option<Quantile> {
    let at = supported_percentile(samples.len(), want)?;
    samples.sort_unstable();
    Some(Quantile {
        value: percentile(samples, at),
        at,
        samples: samples.len(),
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_highest_percentile_with_ten_samples_beyond() {
        // p99.9 of 10 000 samples leaves exactly 10 beyond it.
        assert_eq!(supported_percentile(10_000, 99.9), Some(99.9));
        // One fewer sample leaves 9 beyond p99.9, so p99 is the tail.
        assert_eq!(supported_percentile(9_999, 99.9), Some(99.0));
        // p99 of 1000 leaves 10 beyond; of 999 only 9, so p90.
        assert_eq!(supported_percentile(1_000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(999, 99.0), Some(90.0));
        // p90 of 100 leaves 10; p50 of 20 leaves 10; 19 supports none.
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(99, 99.0), Some(50.0));
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(19, 99.0), None);
        assert_eq!(supported_percentile(0, 50.0), None);
        // Never above the percentile asked for.
        assert_eq!(supported_percentile(1_000_000, 50.0), Some(50.0));
    }

    #[test]
    fn nearest_rank_values() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        let q = quantile(&mut v, 99.0).unwrap();
        assert_eq!((q.value, q.at, q.samples), (990, 99.0, 1000));
        assert_eq!(quantile(&mut v, 50.0).unwrap().value, 500);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
