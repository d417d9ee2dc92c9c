//! Latency histograms, percentiles, medians and spreads.
//!
//! The histogram keeps the benchmark's own memory flat (a window of a
//! million timed operations per second would otherwise dominate
//! `peak_rss_mib`) while resolving a percentile to better than 1 %: 128
//! linear sub-buckets per power of two, with the reported value
//! interpolated by rank inside the bucket.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) get their own bucket; larger ones
/// share the last.
const OCTAVES: usize = 40 - SUB_BITS as usize + 1;

/// A histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; OCTAVES * SUB],
            total: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let octave = (63 - ns.leading_zeros() - SUB_BITS + 1) as usize;
    let sub = (ns >> (octave - 1)) as usize & (SUB - 1);
    (octave * SUB + sub).min(OCTAVES * SUB - 1)
}

/// Inclusive lower bound and width of bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    let (octave, sub) = (index / SUB, index % SUB);
    if octave == 0 {
        (sub as u64, 1)
    } else {
        let width = 1u64 << (octave - 1);
        ((SUB as u64 + sub as u64) * width, width)
    }
}

impl LatHist {
    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The duration at quantile `q` in nanoseconds, interpolated inside
    /// its bucket; 0.0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && rank < (below + count) as f64 {
                let (low, width) = bucket_bounds(index);
                let within = (rank - below as f64 + 0.5) / count as f64;
                return low as f64 + within * width as f64;
            }
            below += count;
        }
        let (low, width) = bucket_bounds(self.counts.len() - 1);
        (low + width) as f64
    }

    /// Quantile `q` in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1_000.0
    }
}

/// Median of `values` (mean of the middle two for an even count); 0.0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method); needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// driver holds each end-to-end metric's bound against.
pub fn relative_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), mid) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// `value - deeper`, clamped at zero: the self time of one probe-ladder
/// layer. The flag reports that the subtraction went negative, which
/// means the two depths were not measuring the same inputs.
pub fn self_time(value: f64, deeper: f64) -> (f64, bool) {
    let own = value - deeper;
    if own < 0.0 {
        (0.0, true)
    } else {
        (own, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_match_exact_ones_within_a_percent() {
        let mut hist = LatHist::default();
        // 1..=10_000 µs in nanoseconds: exact p50 = 5_000.5 µs, p99 = 9_900.
        for us in 1..=10_000u64 {
            hist.record(us * 1_000);
        }
        assert_eq!(hist.count(), 10_000);
        let close = |got: f64, want: f64| (got - want).abs() / want < 0.01;
        assert!(
            close(hist.quantile_us(0.50), 5_000.5),
            "{}",
            hist.quantile_us(0.50)
        );
        assert!(
            close(hist.quantile_us(0.99), 9_900.0),
            "{}",
            hist.quantile_us(0.99)
        );
        assert!(close(hist.quantile_us(0.0), 1.0));
        assert!(close(hist.quantile_us(1.0), 10_000.0));
        assert_eq!(LatHist::default().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn small_values_are_exact_and_buckets_tile_the_range() {
        for ns in [0u64, 1, 127, 128, 129, 255, 256, 1_000_003, 1 << 39] {
            let (low, width) = bucket_bounds(bucket_of(ns));
            assert!(
                low <= ns && ns < low + width,
                "{ns} not in [{low}, +{width})"
            );
            assert!(width as f64 <= (ns as f64 / 128.0).max(1.0));
        }
        let mut hist = LatHist::default();
        hist.record(42);
        assert_eq!(hist.quantile_ns(0.5), 42.5);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (LatHist::default(), LatHist::default());
        a.record(100);
        b.record(300);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.quantile_ns(0.5) - 300.0).abs() < 4.0);
    }

    #[test]
    fn median_and_slice_median() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        // Six slices, one of them stalled: the median ignores the stall.
        assert_eq!(median(&[100.0, 102.0, 20.0, 101.0, 99.0, 103.0]), 100.5);
    }

    #[test]
    fn quartiles_agree_with_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        assert!((relative_spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn self_time_never_goes_negative() {
        assert_eq!(self_time(10.0, 4.0), (6.0, false));
        assert_eq!(self_time(4.0, 10.0), (0.0, true));
        assert_eq!(self_time(4.0, 4.0), (0.0, false));
    }
}
