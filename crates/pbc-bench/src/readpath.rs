//! Read-path experiment (ISSUE 8): what the zero-copy plumbing buys.
//!
//! Three measured phases, one per tentpole layer:
//!
//! 1. **Backends** — the same segment served by the `pread` and mmap block
//!    sources: page-cache-warm block-stream throughput (the layer the
//!    backends differ on), random decoded fetches, full decoded scans, and
//!    the `bytes_copied` gauge showing what the mapped backend never copies.
//! 2. **Cache policy** — zipfian point gets with frequent full-keyspace
//!    scans against an identical store under LRU and 2Q; reports each
//!    policy's point-get hit rate and the 2Q promotion/probation-eviction
//!    counters.
//! 3. **Decode tables** — the table-driven huffman decoder swept across
//!    first-level table sizes against the branchy bit-by-bit baseline,
//!    documenting the `DEFAULT_DECODE_BITS` choice.

use std::path::PathBuf;
use std::time::Instant;

use pbc_archive::{ReadMode, ReaderObs, SegmentConfig, SegmentReader, SegmentWriter};
use pbc_codecs::huffman;
use pbc_datagen::Dataset;
use pbc_obs::{Counter, Histogram};
use pbc_tier::{CachePolicy, TierConfig, TieredStore};

use crate::data::corpus;
use crate::report::Table;

/// A throwaway path (file or store directory), removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempPath(std::env::temp_dir().join(format!(
            "pbc-bench-readpath-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// One block-source backend, measured warm.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// `"pread"` or `"mmap"`.
    pub backend: String,
    /// Warm sequential block-stream throughput: every compressed block
    /// fetched and touched byte-by-byte, no decode. This is the layer the
    /// zero-copy backend changes — `pread` pays a syscall plus a full copy
    /// per block, the mapped source hands out a borrowed slice.
    pub stream_bytes_per_sec: f64,
    /// Random single-block fetches (decode included) per second.
    pub fetches_per_sec: f64,
    /// Full-scan rows per second (decode included, codec-bound).
    pub scan_rows_per_sec: f64,
    /// Full-scan decoded bytes per second (decode included, codec-bound).
    pub scan_bytes_per_sec: f64,
    /// Bytes the backend copied into fresh heap buffers across the whole
    /// phase (0 for mmap — that is the point).
    pub bytes_copied: u64,
}

/// One cache policy under the mixed zipfian + scan workload.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// `"lru"` or `"2q"`.
    pub policy: String,
    /// Block-cache hit rate over the point gets alone — the scans' own
    /// cache traffic is subtracted out, so this is exactly the working-set
    /// residency the scans are trying to destroy.
    pub hit_rate: f64,
    /// Point gets served per second (scans excluded from the clock).
    pub gets_per_sec: f64,
    /// Probationary blocks promoted to protected (0 under LRU).
    pub promotions: u64,
    /// Capacity evictions that took a probationary block (0 under LRU).
    pub probation_evictions: u64,
}

/// One decoder variant in the table-bits sweep.
#[derive(Debug, Clone)]
pub struct DecodeRow {
    /// `"branchy"` or `"table/K"`.
    pub decoder: String,
    /// Decompressed output bytes per second.
    pub bytes_per_sec: f64,
    /// Throughput relative to the branchy baseline.
    pub speedup: f64,
}

/// Everything the read-path experiment reports.
#[derive(Debug, Clone)]
pub struct ReadPathReport {
    /// Records in the backend-phase segment.
    pub records: usize,
    /// `pread` then `mmap` (mmap omitted where unsupported).
    pub backends: Vec<BackendRow>,
    /// Records in each cache-phase store.
    pub cached_records: usize,
    /// `lru` then `2q` under the identical workload.
    pub policies: Vec<PolicyRow>,
    /// Bytes of the huffman corpus the sweep decodes.
    pub huffman_bytes: usize,
    /// Branchy baseline followed by each swept table size.
    pub decoders: Vec<DecodeRow>,
}

fn rp_key(i: usize) -> Vec<u8> {
    format!("rp:{i:08}").into_bytes()
}

fn recording_obs() -> ReaderObs {
    ReaderObs {
        blocks_decoded: Counter::standalone(),
        decode_ns: Histogram::standalone(),
        bytes_copied: Counter::standalone(),
    }
}

/// Deterministic LCG.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state >> 33
}

/// Zipf-flavored index in `0..n`: a power transform of a uniform draw
/// concentrates mass on small ordinals. Hot ranks are used directly — keys
/// sort in ordinal order, so the hot set occupies a handful of blocks and
/// the cache's block-granular policy has real locality to exploit (a hash
/// spread here would smear the hot keys uniformly across every block and
/// erase the difference between any two policies).
fn skewed_index(state: &mut u64, n: usize) -> usize {
    let u = (lcg(state) as f64 / (1u64 << 31) as f64).clamp(1e-9, 1.0);
    (u.powf(4.0) * n as f64) as usize % n
}

/// Measure one backend over an already-written segment.
fn measure_backend(path: &std::path::Path, mode: ReadMode, fetches: usize) -> BackendRow {
    let mut reader = SegmentReader::open_with(path, mode).expect("open backend");
    let obs = recording_obs();
    reader.set_obs(obs.clone());
    let blocks = reader.block_count();

    // Warm the page cache (and the CRC-trusted bitset) once, then measure.
    let mut segment_bytes = 0usize;
    for b in 0..blocks {
        segment_bytes += reader.block_bytes(b).expect("warm block").len();
        reader.read_block(b).expect("warm block");
    }

    // Block-stream pass: fetch every compressed block in order and touch
    // every byte, repeated until enough data has moved for a stable clock.
    // No decode — this isolates the layer the backends actually differ on.
    let stream_passes = ((128 << 20) / segment_bytes.max(1)).clamp(4, 512);
    let started = Instant::now();
    let mut streamed = 0u64;
    let mut checksum = 0u64;
    for _ in 0..stream_passes {
        for b in 0..blocks {
            let bytes = reader.block_bytes(b).expect("stream block");
            checksum = bytes
                .iter()
                .fold(checksum, |acc, &byte| acc.wrapping_add(byte as u64));
            streamed += bytes.len() as u64;
        }
    }
    std::hint::black_box(checksum);
    let stream_secs = started.elapsed().as_secs_f64().max(1e-9);

    let mut state = 0xfeed_5eed_u64 ^ fetches as u64;
    let started = Instant::now();
    for _ in 0..fetches {
        let b = lcg(&mut state) as usize % blocks;
        let block = reader.read_block(b).expect("fetch block");
        std::hint::black_box(block.len());
    }
    let fetch_secs = started.elapsed().as_secs_f64().max(1e-9);

    // Decoded scan, repeated for a stable clock; codec work dominates here,
    // so both backends land near each other by design.
    let scan_passes = (40_000 / reader.record_count().max(1)).clamp(2, 32);
    let started = Instant::now();
    let mut rows = 0usize;
    let mut bytes = 0usize;
    for _ in 0..scan_passes {
        for entry in reader.scan() {
            let (k, v) = entry.expect("scan row");
            rows += 1;
            bytes += k.len() + v.len();
        }
    }
    let scan_secs = started.elapsed().as_secs_f64().max(1e-9);

    BackendRow {
        backend: match reader.read_mode() {
            ReadMode::Pread => "pread".into(),
            ReadMode::Mmap => "mmap".into(),
            ReadMode::Auto => "auto".into(),
        },
        stream_bytes_per_sec: streamed as f64 / stream_secs,
        fetches_per_sec: fetches as f64 / fetch_secs,
        scan_rows_per_sec: rows as f64 / scan_secs,
        scan_bytes_per_sec: bytes as f64 / scan_secs,
        bytes_copied: obs.bytes_copied.value(),
    }
}

/// Measure one cache policy under the mixed zipfian-gets + periodic
/// full-scan workload.
fn measure_policy(records: &[Vec<u8>], policy: CachePolicy) -> PolicyRow {
    let n = records.len();
    let dir = TempPath::new(match policy {
        CachePolicy::Lru => "lru",
        CachePolicy::TwoQ => "2q",
    });
    // Cache sized well below the cold tier so the periodic scans overwhelm
    // an LRU but leave the 2Q protected region alone.
    let decoded_estimate: usize = records.iter().map(|r| r.len() + 60).sum();
    let store = TieredStore::open(
        TierConfig::new(&dir.0)
            .with_watermark(u64::MAX)
            .with_cache_capacity((decoded_estimate / 6).max(256 * 1024))
            .with_cache_policy(policy),
    )
    .expect("open policy store");
    for (i, value) in records.iter().enumerate() {
        store.set(&rp_key(i), value).expect("set");
    }
    store.flush_all().expect("flush");
    store.compact().expect("compact");

    let cache = store.cache();
    let gets = (n * 2).max(4_000);
    // Wide scans land every `scan_every` gets — frequent enough that an LRU
    // never finishes re-faulting its working set before the next flush.
    let scan_every = 100;
    let mut state = 0x00c0_ffee_u64 ^ n as u64;
    let mut get_secs = 0.0f64;
    let mut scan_hits = 0u64;
    let mut scan_misses = 0u64;
    for g in 0..gets {
        if g % scan_every == scan_every / 2 {
            let (h0, m0) = (cache.hits(), cache.misses());
            let rows = store.range_scan::<Vec<u8>, _>(..).expect("scan").count();
            assert_eq!(rows, n, "full scan must see every live key");
            scan_hits += cache.hits() - h0;
            scan_misses += cache.misses() - m0;
        }
        let i = skewed_index(&mut state, n);
        let started = Instant::now();
        let hit = store.get(&rp_key(i)).expect("get");
        get_secs += started.elapsed().as_secs_f64();
        assert!(hit.is_some(), "every key is live");
    }

    // Hit rate over the point gets alone: the scans' own cache traffic is
    // the interference, not the workload being graded.
    let get_hits = cache.hits() - scan_hits;
    let get_misses = cache.misses() - scan_misses;
    PolicyRow {
        policy: match policy {
            CachePolicy::Lru => "lru".into(),
            CachePolicy::TwoQ => "2q".into(),
        },
        hit_rate: get_hits as f64 / (get_hits + get_misses).max(1) as f64,
        gets_per_sec: gets as f64 / get_secs.max(1e-9),
        promotions: cache.promotions(),
        probation_evictions: cache.probation_evictions(),
    }
}

/// Time one decode closure over `passes` repetitions, returning output
/// bytes per second.
fn decode_rate(compressed: &[u8], passes: usize, decode: impl Fn(&[u8]) -> Vec<u8>) -> f64 {
    let started = Instant::now();
    let mut out_bytes = 0usize;
    for _ in 0..passes {
        out_bytes += std::hint::black_box(decode(compressed)).len();
    }
    out_bytes as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// First-level table sizes the sweep covers, in bits. Includes the shipped
/// [`huffman::DEFAULT_DECODE_BITS`] and both cheaper and maximal tables.
pub const SWEEP_BITS: &[u8] = &[8, 10, 11, 12, 15];

/// Run the read-path experiment at `scale` (record counts scale linearly).
pub fn readpath_experiment(scale: f64) -> ReadPathReport {
    // Phase 1: backends. One multi-block segment, served both ways.
    let records = corpus(Dataset::Kv2, scale);
    let n = records.len();
    let seg = TempPath::new("segment");
    {
        let mut writer =
            SegmentWriter::create(&seg.0, SegmentConfig::default()).expect("create segment");
        for (i, value) in records.iter().enumerate() {
            writer.append(&rp_key(i), value).expect("append");
        }
        writer.finish().expect("finish");
    }
    let fetches = n.clamp(1_000, 8_000);
    let mut backends = vec![measure_backend(&seg.0, ReadMode::Pread, fetches)];
    if pbc_archive::MappedFile::supported() {
        backends.push(measure_backend(&seg.0, ReadMode::Mmap, fetches));
    }

    // Phase 2: cache policy. Identical workload, LRU then 2Q. The corpus is
    // oversized relative to phase 1 so the cold tier spans many blocks and
    // the capacity-bounded cache holds only a small fraction of them.
    let cached = corpus(Dataset::Kv3, scale * 4.0);
    let policies = vec![
        measure_policy(&cached, CachePolicy::Lru),
        measure_policy(&cached, CachePolicy::TwoQ),
    ];

    // Phase 3: the huffman table-bits sweep over a log corpus.
    let log_corpus: Vec<u8> = corpus(Dataset::Hdfs, scale.max(0.02))
        .into_iter()
        .flat_map(|mut r| {
            r.push(b'\n');
            r
        })
        .collect();
    let compressed = huffman::compress(&log_corpus);
    let reference = huffman::decompress_branchy(&compressed).expect("branchy decode");
    assert_eq!(reference, log_corpus, "branchy decoder round-trips");
    let passes = ((64 << 20) / log_corpus.len().max(1)).clamp(2, 64);
    let branchy_rate = decode_rate(&compressed, passes, |c| {
        huffman::decompress_branchy(c).expect("branchy decode")
    });
    let mut decoders = vec![DecodeRow {
        decoder: "branchy".into(),
        bytes_per_sec: branchy_rate,
        speedup: 1.0,
    }];
    for &bits in SWEEP_BITS {
        let out = huffman::decompress_with_table_bits(&compressed, bits).expect("table decode");
        assert_eq!(out, reference, "table decoder at {bits} bits agrees");
        let rate = decode_rate(&compressed, passes, |c| {
            huffman::decompress_with_table_bits(c, bits).expect("table decode")
        });
        decoders.push(DecodeRow {
            decoder: format!("table/{bits}"),
            bytes_per_sec: rate,
            speedup: rate / branchy_rate,
        });
    }

    ReadPathReport {
        records: n,
        backends,
        cached_records: cached.len(),
        policies,
        huffman_bytes: log_corpus.len(),
        decoders,
    }
}

/// Render the read-path experiment as a report table.
pub fn readpath_throughput(scale: f64) -> Table {
    let report = readpath_experiment(scale);
    let mut table = Table::new(
        "Read path: pread vs mmap, LRU vs 2Q, branchy vs table-driven decode",
        &["phase", "variant", "throughput", "detail"],
    );
    for row in &report.backends {
        table.push_row(vec![
            "backend".into(),
            row.backend.clone(),
            format!("{:.0} MB/s block stream", row.stream_bytes_per_sec / 1e6),
            format!(
                "{:.0} fetches/s, decoded scan {:.1} MB/s ({:.0} rows/s), {} B copied",
                row.fetches_per_sec,
                row.scan_bytes_per_sec / 1e6,
                row.scan_rows_per_sec,
                row.bytes_copied
            ),
        ]);
    }
    for row in &report.policies {
        table.push_row(vec![
            "cache".into(),
            row.policy.clone(),
            format!("{:.1}% hit rate", row.hit_rate * 100.0),
            format!(
                "{:.0} gets/s, {} promotions, {} probation evictions",
                row.gets_per_sec, row.promotions, row.probation_evictions
            ),
        ]);
    }
    for row in &report.decoders {
        table.push_row(vec![
            "decode".into(),
            row.decoder.clone(),
            format!("{:.1} MB/s", row.bytes_per_sec / 1e6),
            format!("{:.2}x vs branchy", row.speedup),
        ]);
    }
    table.push_row(vec![
        "corpus".into(),
        "-".into(),
        "-".into(),
        format!(
            "{} segment records, {} cached records, {} huffman bytes",
            report.records, report.cached_records, report.huffman_bytes
        ),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readpath_experiment_is_consistent_at_smoke_scale() {
        let report = readpath_experiment(0.02);
        // Backends: pread always present, mmap wherever supported, and the
        // mapped backend must copy nothing.
        assert_eq!(report.backends[0].backend, "pread");
        assert!(report.backends[0].bytes_copied > 0);
        assert!(report.backends[0].stream_bytes_per_sec > 0.0);
        if pbc_archive::MappedFile::supported() {
            let mapped = &report.backends[1];
            assert_eq!(mapped.backend, "mmap");
            assert_eq!(mapped.bytes_copied, 0, "mmap fetches copy nothing");
            assert!(mapped.stream_bytes_per_sec > 0.0);
        }
        // Policies: the identical workload ran under both; 2Q promoted
        // blocks and never fell below LRU's hit rate.
        assert_eq!(report.policies[0].policy, "lru");
        assert_eq!(report.policies[1].policy, "2q");
        assert_eq!(report.policies[0].promotions, 0);
        assert!(report.policies[1].promotions > 0);
        assert!(
            report.policies[1].hit_rate >= report.policies[0].hit_rate,
            "2Q {:.3} must not lose to LRU {:.3}",
            report.policies[1].hit_rate,
            report.policies[0].hit_rate
        );
        // Decoders: every variant round-tripped (asserted inside) and the
        // sweep covers the shipped default.
        assert!(report
            .decoders
            .iter()
            .any(|d| d.decoder == format!("table/{}", huffman::DEFAULT_DECODE_BITS)));
        assert!(report.decoders.iter().all(|d| d.bytes_per_sec > 0.0));
    }
}
