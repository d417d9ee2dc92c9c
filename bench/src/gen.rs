//! Input generation: the seeded random stream, the zipfian sampler, key
//! and value naming, and the fixed record corpora.
//!
//! Everything the program under test sees is derived from two numbers:
//! the constant [`CORPUS_SEED`] (which records exist) and the run's
//! `--seed` (which operations touch which of them, in which order).

use pbc_datagen::Dataset;

/// Seed of every `pbc-datagen` corpus. The corpora are the same on every
/// run on purpose: PBC training on a few KiB of samples moves the
/// compression ratio by tens of percent from one sample to the next, so a
/// seed-dependent corpus would bury any real change to
/// `stored_bytes_per_user_byte` under sampling noise. `--seed` varies the
/// operation streams instead.
pub const CORPUS_SEED: u64 = 2023;

/// Tenants every store workload spreads its keys over.
pub const TENANTS: usize = 4;

/// Name of tenant `t`.
pub fn tenant_name(t: usize) -> &'static str {
    ["tenant-0", "tenant-1", "tenant-2", "tenant-3"][t]
}

/// The tenant that owns key ordinal `ordinal`.
pub fn tenant_of(ordinal: u64) -> usize {
    (ordinal % TENANTS as u64) as usize
}

/// The user key of `ordinal` inside its tenant. Fixed width, so byte order
/// is ordinal order and a tenant's scan returns ascending ordinals.
pub fn user_key(ordinal: u64) -> [u8; 10] {
    let mut key = *b"k:00000000";
    let mut rest = ordinal;
    for slot in key[2..].iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    debug_assert_eq!(rest, 0, "ordinal wider than the key format");
    key
}

/// Inverse of [`user_key`]; `None` for anything the benchmark never wrote.
pub fn ordinal_of(key: &[u8]) -> Option<u64> {
    let digits = key.strip_prefix(b"k:")?;
    if digits.len() != 8 {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + (b - b'0') as u64)
    })
}

/// The key a tenant's user key is stored under in the shared store: the
/// documented `pbc-serve` namespace layout, `name ++ 0x00 ++ key`. The
/// probe ladder needs it to replay one request below the router.
pub fn stored_key(ordinal: u64) -> Vec<u8> {
    let name = tenant_name(tenant_of(ordinal));
    let mut full = Vec::with_capacity(name.len() + 11);
    full.extend_from_slice(name.as_bytes());
    full.push(0);
    full.extend_from_slice(&user_key(ordinal));
    full
}

/// Which corpus record is the value of `ordinal` at write `version`.
/// A pure function, so any thread can recompute what a key must hold.
pub fn value_index(ordinal: u64, version: u32, corpus_len: usize) -> usize {
    let mixed = ordinal
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((version as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    ((mixed ^ (mixed >> 29)) % corpus_len as u64) as usize
}

/// xoshiro256** seeded through splitmix64: small, fast, and the same
/// stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    /// A stream for `(seed, lane)`; lanes (clients, probes) never share one.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut state = seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f);
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below 2^-32
    /// for every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` (Gray et al., the YCSB generator), scrambled
/// so popular ranks are spread over the key space instead of sharing the
/// first few blocks of the first segment.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
    stride: u64,
}

impl Zipf {
    /// Skew used by every zipfian workload.
    pub const THETA: f64 = 0.99;

    /// A sampler over `0..n` with skew `theta` (in `(0, 1)`).
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2, "zipfian needs at least two items");
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zeta_n);
        // An odd stride near the golden ratio of n that shares no factor
        // with it: rank -> rank * stride mod n is then a permutation.
        let mut stride = ((n as f64 * 0.618_033_988_75) as u64) | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        Zipf {
            n,
            theta,
            zeta_n,
            alpha: 1.0 / (1.0 - theta),
            eta,
            stride,
        }
    }

    /// Popularity rank of the next request: 0 is the most popular.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            rank.min(self.n - 1)
        }
    }

    /// The key ordinal holding popularity rank `rank`.
    pub fn ordinal_of_rank(&self, rank: u64) -> u64 {
        ((rank as u128 * self.stride as u128) % self.n as u128) as u64
    }

    /// Ordinal of the next request.
    pub fn ordinal(&self, rng: &mut Rng) -> u64 {
        self.ordinal_of_rank(self.rank(rng))
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One generated corpus.
#[derive(Debug)]
pub struct Corpus {
    /// Which `pbc-datagen` dataset it is.
    pub dataset: Dataset,
    /// The records, in generation order.
    pub records: Vec<Vec<u8>>,
    /// Sum of the record lengths.
    pub raw_bytes: u64,
}

impl Corpus {
    /// Generate `count` records of `dataset` from [`CORPUS_SEED`].
    pub fn generate(dataset: Dataset, count: usize) -> Corpus {
        let records = dataset.generate(count, CORPUS_SEED);
        let raw_bytes = records.iter().map(|r| r.len() as u64).sum();
        Corpus {
            dataset,
            records,
            raw_bytes,
        }
    }

    /// Lowercase dataset name, as the metric names spell it.
    pub fn name(&self) -> &'static str {
        self.dataset.name()
    }
}

/// The four codec corpora, one per dataset kind of the paper's Table 2.
pub const CODEC_DATASETS: [Dataset; 4] =
    [Dataset::Kv2, Dataset::Hdfs, Dataset::Github, Dataset::Urls];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_roundtrip_and_sort_by_ordinal() {
        for ordinal in [0u64, 7, 1234, 99_999_999] {
            assert_eq!(ordinal_of(&user_key(ordinal)), Some(ordinal));
        }
        assert!(user_key(9) < user_key(10));
        assert_eq!(ordinal_of(b"k:12"), None);
        assert_eq!(ordinal_of(b"x:00000001"), None);
        assert_eq!(stored_key(5), b"tenant-1\0k:00000005".to_vec());
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_per_lane() {
        let draw = |seed, lane| {
            let mut rng = Rng::new(seed, lane);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
        let mut rng = Rng::new(3, 3);
        assert!((0..10_000).all(|_| rng.below(17) < 17));
    }

    #[test]
    fn zipfian_skew_matches_theory() {
        // With theta = 0.99 over 10k items the top item draws
        // 1 / zeta(10k) = 9.8 % of requests and the top 1 % about 52 %.
        let n = 10_000u64;
        let zipf = Zipf::new(n, Zipf::THETA);
        let mut rng = Rng::new(11, 0);
        let draws = 400_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..draws {
            counts[zipf.rank(&mut rng) as usize] += 1;
        }
        let share =
            |ranks: usize| counts[..ranks].iter().map(|&c| c as f64).sum::<f64>() / draws as f64;
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-Zipf::THETA)).sum::<f64>();
        assert!(
            (share(1) - 1.0 / zeta(n)).abs() < 0.01,
            "top item {}",
            share(1)
        );
        assert!(
            (share(100) - zeta(100) / zeta(n)).abs() < 0.02,
            "top 1% {}",
            share(100)
        );
        // The scramble is a permutation of the key space.
        let mut seen = vec![false; n as usize];
        for rank in 0..n {
            seen[zipf.ordinal_of_rank(rank) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn values_are_a_pure_function_of_key_and_version() {
        assert_eq!(value_index(42, 3, 1000), value_index(42, 3, 1000));
        let distinct: std::collections::BTreeSet<usize> =
            (0..50).map(|v| value_index(42, v, 1000)).collect();
        assert!(
            distinct.len() > 40,
            "versions of one key spread over the corpus"
        );
    }
}
