//! Reservoir sampling of training records (Figure 1(a), "Sampling").
//!
//! Pattern extraction runs on a small sample of the data (a few MiB in the
//! paper, Section 7.3.3). The sampler here is a seeded reservoir sampler so
//! experiments are reproducible, with an additional byte budget because
//! record sizes vary by two orders of magnitude across datasets.

/// Deterministic reservoir sample of at most `max_records` records and
/// roughly `max_bytes` total bytes.
///
/// The returned records preserve no particular order guarantee beyond being
/// a uniform-ish sample of the input (exact uniformity is unnecessary: the
/// paper only needs the sample to cover the pattern population).
///
/// Records are borrowed in whatever form the caller holds them; only the
/// sample is copied.
pub fn sample_records<R: AsRef<[u8]>>(
    records: &[R],
    max_records: usize,
    max_bytes: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    if records.is_empty() || max_records == 0 || max_bytes == 0 {
        return Vec::new();
    }
    // First pass: classic reservoir sampling by record count.
    let mut reservoir: Vec<&[u8]> = Vec::with_capacity(max_records.min(records.len()));
    let mut rng = SplitMix64::new(seed);
    for (i, rec) in records.iter().enumerate() {
        if reservoir.len() < max_records {
            reservoir.push(rec.as_ref());
        } else {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            if j < max_records {
                reservoir[j] = rec.as_ref();
            }
        }
    }
    // Second pass: enforce the byte budget, keeping a prefix of the sample.
    let mut out = Vec::with_capacity(reservoir.len());
    let mut used = 0usize;
    for rec in reservoir {
        if !out.is_empty() && used + rec.len() > max_bytes {
            break;
        }
        used += rec.len();
        out.push(rec.to_vec());
    }
    out
}

/// Small, dependency-free PRNG (SplitMix64) used only for sampling.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded construction.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, infallible
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("{i:0width$}", width = len).into_bytes())
            .collect()
    }

    #[test]
    fn sample_is_bounded_by_record_count() {
        let recs = records(1000, 10);
        let sample = sample_records(&recs, 50, usize::MAX, 7);
        assert_eq!(sample.len(), 50);
    }

    #[test]
    fn sample_is_bounded_by_byte_budget() {
        let recs = records(1000, 100);
        let sample = sample_records(&recs, 500, 1000, 7);
        let bytes: usize = sample.iter().map(|r| r.len()).sum();
        assert!(bytes <= 1000);
        assert!(!sample.is_empty(), "at least one record is always kept");
    }

    #[test]
    fn small_inputs_are_returned_whole() {
        let recs = records(5, 8);
        let sample = sample_records(&recs, 100, usize::MAX, 7);
        assert_eq!(sample.len(), 5);
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let recs = records(500, 12);
        let a = sample_records(&recs, 32, usize::MAX, 42);
        let b = sample_records(&recs, 32, usize::MAX, 42);
        assert_eq!(a, b);
        let c = sample_records(&recs, 32, usize::MAX, 43);
        assert_ne!(
            a, c,
            "different seeds should usually give different samples"
        );
    }

    #[test]
    fn degenerate_budgets_yield_empty_samples() {
        let recs = records(10, 4);
        assert!(sample_records(&recs, 0, 100, 1).is_empty());
        assert!(sample_records(&recs, 10, 0, 1).is_empty());
        assert!(sample_records::<Vec<u8>>(&[], 10, 100, 1).is_empty());
    }

    #[test]
    fn splitmix_produces_distinct_values() {
        let mut rng = SplitMix64::new(1);
        let a = rng.next();
        let b = rng.next();
        let c = rng.next();
        assert_ne!(a, b);
        assert_ne!(b, c);
    }
}
