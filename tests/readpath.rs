//! Acceptance tests for the zero-copy read path (ISSUE 8):
//!
//! * the mmap and pread block sources serve byte-identical data for every
//!   read shape (`get_entry`, `get`, full scans, range scans);
//! * corruption (bit flips, truncation) surfaces the same typed
//!   `ArchiveError`s on both backends — never UB, never a panic;
//! * a pinned range scan keeps reading a memory-mapped segment correctly
//!   after compaction retires and unlinks its file;
//! * the 2Q block cache keeps a hot point-lookup set ≥90% resident across
//!   full-keyspace scans;
//! * two readers churning a cache much smaller than the data (ISSUE 15:
//!   blocks are shared as flat `Arc<DecodedBlock>`s and evicted ones are
//!   freed off the cache lock) read correct values and every cold get is
//!   counted as exactly one hit or one miss;
//! * under scrambled-zipfian point reads, a cache 1/40 of the decoded
//!   data answers most gets, because it keeps the records gets ask for
//!   rather than the blocks they sit in;
//! * a record entry never outlives its segment: overwrites, spills and
//!   compactions never let a get see an older value.

use pbc::archive::{
    ArchiveError, MappedFile, ReadMode, ReaderObs, SegmentConfig, SegmentReader, SegmentWriter,
};
use pbc::obs::Counter;
use pbc::tier::{TierConfig, TieredStore};

mod support;
use support::temp_dir;

fn key(i: usize) -> Vec<u8> {
    format!("key:{i:08}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!(
        "sess|{:016x}|uid={}|ip=10.0.{}.{}|status=PAID|pad={}",
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        10_000_000 + (i * 9_700_417) % 89_999_999,
        i % 256,
        (i * 7) % 256,
        "x".repeat(16 + i % 48),
    )
    .into_bytes()
}

/// Write a sorted keyed segment with several blocks and return its path.
fn write_keyed_segment(path: &std::path::Path, n: usize) {
    let config = SegmentConfig::default();
    let mut writer = SegmentWriter::create(path, config).expect("create segment");
    for i in 0..n {
        writer.append(&key(i), &value(i)).expect("append");
    }
    writer.finish().expect("finish");
}

fn recording_obs() -> ReaderObs {
    ReaderObs {
        blocks_decoded: Counter::standalone(),
        decode_ns: pbc::obs::Histogram::standalone(),
        bytes_copied: Counter::standalone(),
    }
}

#[test]
fn mmap_and_pread_readers_agree_byte_for_byte() {
    const N: usize = 8_000;
    let (path, _guard) = temp_dir("differential");
    write_keyed_segment(&path, N);

    let mut pread = SegmentReader::open_with(&path, ReadMode::Pread).expect("pread open");
    assert_eq!(pread.read_mode(), ReadMode::Pread);
    let pread_obs = recording_obs();
    pread.set_obs(pread_obs.clone());

    if !MappedFile::supported() {
        eprintln!("mmap unsupported on this platform/feature set; skipping");
        return;
    }
    let mut mapped = SegmentReader::open_with(&path, ReadMode::Mmap).expect("mmap open");
    assert_eq!(mapped.read_mode(), ReadMode::Mmap);
    let mapped_obs = recording_obs();
    mapped.set_obs(mapped_obs.clone());

    assert_eq!(pread.record_count(), mapped.record_count());
    assert_eq!(pread.block_count(), mapped.block_count());
    assert!(pread.block_count() > 4, "want a multi-block segment");

    // Point reads by ordinal and by key, including absent keys.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..512 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let i = (state >> 33) as usize % N;
        assert_eq!(
            pread.get_entry(i as u64).unwrap(),
            mapped.get_entry(i as u64).unwrap()
        );
        assert_eq!(pread.get(&key(i)).unwrap(), mapped.get(&key(i)).unwrap());
        let absent = format!("key:{i:08}!").into_bytes();
        assert_eq!(pread.get(&absent).unwrap(), None);
        assert_eq!(mapped.get(&absent).unwrap(), None);
    }

    // Full scans and a range window drain identically.
    let all_pread: Vec<_> = pread.scan().collect::<Result<_, _>>().unwrap();
    let all_mapped: Vec<_> = mapped.scan().collect::<Result<_, _>>().unwrap();
    assert_eq!(all_pread.len(), N);
    assert_eq!(all_pread, all_mapped);
    let (lo, hi) = (key(N / 3), key(2 * N / 3));
    let win_pread: Vec<_> = pread
        .scan_range(&lo, Some(&hi))
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let win_mapped: Vec<_> = mapped
        .scan_range(&lo, Some(&hi))
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(win_pread, win_mapped);
    // `scan_range` bounds are inclusive on both ends.
    assert_eq!(win_pread.len(), 2 * N / 3 - N / 3 + 1);

    // The pread backend copies every fetched block into a fresh buffer;
    // the mapped backend decodes straight out of the page cache.
    assert!(pread_obs.bytes_copied.value() > 0, "pread copies blocks");
    assert_eq!(mapped_obs.bytes_copied.value(), 0, "mmap copies nothing");
}

#[test]
fn auto_mode_maps_where_supported_and_reports_its_backend() {
    let (path, _guard) = temp_dir("auto");
    write_keyed_segment(&path, 500);
    let reader = SegmentReader::open_with(&path, ReadMode::Auto).expect("auto open");
    if MappedFile::supported() {
        assert_eq!(reader.read_mode(), ReadMode::Mmap);
    } else {
        assert_eq!(reader.read_mode(), ReadMode::Pread);
    }
    // Plain `open` is Auto.
    let default_reader = SegmentReader::open(&path).expect("open");
    assert_eq!(default_reader.read_mode(), reader.read_mode());
}

/// Both backends must turn the same corruption into the same typed error,
/// on every attempt (a corrupt block must never be marked trusted).
#[test]
fn corruption_surfaces_identical_typed_errors_in_both_modes() {
    const N: usize = 4_000;
    let (path, _guard) = temp_dir("corrupt");
    write_keyed_segment(&path, N);
    let original = std::fs::read(&path).unwrap();

    let modes: &[ReadMode] = if MappedFile::supported() {
        &[ReadMode::Pread, ReadMode::Mmap]
    } else {
        &[ReadMode::Pread]
    };

    // Bit-flip inside the first block's payload: open succeeds (header and
    // footer are intact), but decoding block 0 fails its CRC — repeatedly.
    let clean = SegmentReader::open_with(&path, ReadMode::Pread).unwrap();
    let block0 = clean.block_bytes(0).unwrap().len();
    let header_len = {
        // Find block 0 by searching for its bytes; blocks start right
        // after the header, so corrupt a byte in the middle of block 0.
        original
            .windows(block0)
            .position(|w| w == &*clean.block_bytes(0).unwrap())
            .expect("block 0 bytes present in file")
    };
    drop(clean);
    let mut flipped = original.clone();
    flipped[header_len + block0 / 2] ^= 0x10;
    std::fs::write(&path, &flipped).unwrap();
    for &mode in modes {
        let reader = SegmentReader::open_with(&path, mode).expect("open survives block damage");
        for attempt in 0..2 {
            match reader.read_block(0) {
                Err(ArchiveError::CrcMismatch { what: "block", .. }) => {}
                other => panic!("{mode:?} attempt {attempt}: want block CRC error, got {other:?}"),
            }
        }
        // Undamaged blocks still read.
        assert!(reader.read_block(reader.block_count() - 1).is_ok());
    }

    // Truncation: cut the file mid-footer; open reports a typed error (no
    // UB reading past a short mapping) and the variant agrees across modes.
    std::fs::write(&path, &original[..original.len() * 3 / 5]).unwrap();
    let mut variants = Vec::new();
    for &mode in modes {
        let err = SegmentReader::open_with(&path, mode).expect_err("truncated must not open");
        assert!(
            !matches!(err, ArchiveError::Io(_)),
            "{mode:?}: want a typed corruption error, got {err:?}"
        );
        variants.push(std::mem::discriminant(&err));
    }
    variants.dedup();
    assert_eq!(variants.len(), 1, "modes disagree on the truncation error");
}

/// A range scan pins an `Arc<ColdSegment>` snapshot; compaction retires
/// and unlinks the files underneath it. POSIX keeps an unlinked mapping
/// (and an open fd) valid, so the scan must finish correctly.
#[cfg(unix)]
#[test]
fn pinned_scan_survives_compaction_unlinking_mapped_segments() {
    const N: usize = 6_000;
    let (dir, _guard) = temp_dir("unlink");
    let store =
        TieredStore::open(TierConfig::new(&dir).with_watermark(64 * 1024)).expect("open store");
    for i in 0..N {
        store.set(&key(i), &value(i)).expect("set");
    }
    store.flush_all().expect("flush");

    let mut scan = store.range_scan::<Vec<u8>, _>(..).expect("scan");
    let mut seen = Vec::new();
    for _ in 0..N / 4 {
        let (k, v) = scan
            .next()
            .expect("scan not exhausted")
            .expect("scan entry");
        seen.push((k, v));
    }
    // Retire + unlink every pre-compaction segment while the scan holds
    // its pinned snapshot.
    store.compact().expect("compact");
    for entry in scan {
        let (k, v) = entry.expect("scan entry after unlink");
        seen.push((k, v));
    }
    assert_eq!(seen.len(), N, "scan lost rows after compaction");
    for (i, (k, v)) in seen.iter().enumerate() {
        assert_eq!(k, &key(i), "row {i} key");
        assert_eq!(v, &value(i), "row {i} value");
    }
}

/// The mixed workload the 2Q policy exists for: promote a small hot set,
/// sweep the whole keyspace, then re-probe the hot set. The sweep decodes
/// several times the cache capacity in one-touch blocks, which churn
/// through probation while the re-referenced hot set stays protected.
#[test]
fn two_q_keeps_hot_set_resident_across_full_keyspace_scans() {
    const N: usize = 60_000;
    const HOT: usize = 8;
    let (dir, _guard) = temp_dir("resident");
    let store = TieredStore::open(
        TierConfig::new(&dir)
            .with_watermark(256 * 1024)
            .with_cache_capacity(2 * 1024 * 1024),
    )
    .expect("open store");
    for i in 0..N {
        store.set(&key(i), &value(i)).expect("set");
    }
    store.flush_all().expect("flush");
    store.compact().expect("compact");

    // Hot set spread across the keyspace. Touch twice: the first get
    // admits the block, the second promotes it.
    let hot_keys: Vec<Vec<u8>> = (0..HOT).map(|h| key(h * (N / HOT) + N / 16)).collect();
    for _ in 0..2 {
        for k in &hot_keys {
            assert!(store.get(k).expect("get").is_some());
        }
    }

    // Full-keyspace sweep: one-touch blocks, far more than cache capacity.
    let cache = store.cache();
    let evictions_before = cache.evictions();
    let rows = store.range_scan::<Vec<u8>, _>(..).expect("scan").count();
    assert_eq!(rows, N);
    let evicted = cache.evictions() - evictions_before;
    assert!(evicted > 0, "the sweep must overflow the cache");
    assert_eq!(
        cache.probation_evictions(),
        cache.evictions(),
        "every block the sweep pushed out was probationary"
    );

    // Re-probe the hot set, counting cache hits directly.
    let hits_before = cache.hits();
    for k in &hot_keys {
        assert!(store.get(k).expect("get").is_some());
    }
    let resident = (cache.hits() - hits_before) as f64 / HOT as f64;
    assert!(
        resident >= 0.9,
        "2Q hot residency {resident:.2} after a full scan; want >= 0.90"
    );
}

#[test]
fn two_readers_churning_a_small_cache_read_correctly_and_account_every_get() {
    const KEYS: usize = 6_000;
    const GETS_PER_READER: usize = 20_000;
    let (dir, _guard) = temp_dir("churn");
    let config = TierConfig::new(&dir)
        .with_cache_capacity(48 * 1024)
        .with_segment_config(SegmentConfig {
            target_block_bytes: 4 * 1024,
            ..SegmentConfig::default()
        });
    let store = TieredStore::open(config).expect("open store");
    for i in 0..KEYS {
        store.set(&key(i), &value(i)).expect("set");
    }
    store.flush_all().expect("flush");
    store.compact().expect("compact");
    assert_eq!(store.hot_len(), 0, "every get below must go cold");

    // Both readers start together and draw different key sequences over
    // the whole keyspace, so each keeps evicting blocks the other decoded.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for reader in 0..2u64 {
            let (store, barrier) = (&store, &barrier);
            scope.spawn(move || {
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ reader;
                barrier.wait();
                for _ in 0..GETS_PER_READER {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    let i = (state >> 33) as usize % KEYS;
                    assert_eq!(store.get(&key(i)).expect("get"), Some(value(i)));
                }
            });
        }
    });

    let stats = store.stats();
    assert_eq!(stats.cold_gets, 2 * GETS_PER_READER as u64);
    assert_eq!(
        stats.cold_cache_hits + stats.cold_cache_misses,
        stats.cold_gets
    );
    assert!(
        stats.cold_cache_misses > stats.cold_gets / 2,
        "the cache is a fraction of the data, so most gets should miss: {stats:?}"
    );
    assert!(store.cache().evictions() > 0);
    assert!(store.cache().cached_bytes() <= store.cache().capacity());
}

/// Zipfian (θ 0.99) ranks scattered over the keyspace by an odd
/// multiplier, so each hot key sits in a block of cold neighbours — the
/// access pattern a block-granular cache serves worst.
struct ScrambledZipf {
    cdf: Vec<f64>,
    state: u64,
}

impl ScrambledZipf {
    fn new(keys: usize, seed: u64) -> Self {
        let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-0.99)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ScrambledZipf { cdf, state: seed }
    }

    fn next(&mut self) -> usize {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        let keys = self.cdf.len();
        let rank = self.cdf.partition_point(|&c| c < u).min(keys - 1);
        // `keys` is a power of two, so an odd multiplier is a bijection.
        rank.wrapping_mul(0x9e37_79b1) % keys
    }
}

#[test]
fn scrambled_zipf_reads_hit_a_cache_a_fortieth_of_the_data() {
    const KEYS: usize = 1 << 16;
    const GETS: usize = 60_000;
    let (dir, _guard) = temp_dir("zipf");
    let values = pbc::datagen::Dataset::Kv2.generate(KEYS, 2023);
    // What the blocks decode to: key, marked value and an offsets entry.
    let decoded: usize = (0..KEYS)
        .map(|i| key(i).len() + 1 + values[i].len() + 16)
        .sum();
    let store = TieredStore::open(
        TierConfig::new(&dir)
            .with_cache_capacity(decoded / 40)
            .with_segment_config(SegmentConfig {
                target_block_bytes: 8 * 1024,
                ..SegmentConfig::default()
            }),
    )
    .expect("open store");
    for (i, value) in values.iter().enumerate() {
        store.set(&key(i), value).expect("set");
    }
    store.flush_all().expect("flush");
    store.compact().expect("compact");
    assert_eq!(store.hot_len(), 0, "every get below must go cold");

    let mut zipf = ScrambledZipf::new(KEYS, 0x5eed);
    let mut read = |gets: usize| {
        for _ in 0..gets {
            let i = zipf.next();
            assert_eq!(store.get(&key(i)).expect("get").as_ref(), Some(&values[i]));
        }
    };
    // Warm up, then count what the full cache answers.
    read(GETS / 2);
    let before = store.stats();
    read(GETS);
    let after = store.stats();
    let gets = after.cold_gets - before.cold_gets;
    let hits = after.cold_cache_hits - before.cold_cache_hits;
    assert_eq!(gets, GETS as u64);
    let hit_rate = hits as f64 / gets as f64;
    let cache = store.cache();
    assert!(
        hit_rate >= 0.5,
        "hit rate {hit_rate:.3} with a {} B cache over {decoded} decoded bytes: {cache:?}",
        cache.capacity()
    );
    assert!(
        cache.record_hits() > cache.hits() / 2,
        "records answer: {cache:?}"
    );
    assert!(cache.cached_bytes() <= cache.capacity());
}

/// Every get returns what the model holds.
fn check_all(store: &TieredStore, model: &[Option<Vec<u8>>]) {
    for (i, want) in model.iter().enumerate() {
        assert_eq!(&store.get(&key(i)).expect("get"), want, "key {i}");
    }
}

#[test]
fn records_of_retired_segments_are_never_served() {
    const KEYS: usize = 3_000;
    let (dir, _guard) = temp_dir("stale-records");
    let store =
        TieredStore::open(TierConfig::new(&dir).with_cache_capacity(8 << 20)).expect("open store");
    let cache = store.cache();
    let mut model: Vec<Option<Vec<u8>>> = vec![None; KEYS];
    for round in 0..4usize {
        // Overwrite a different stride of keys each round and delete a
        // few: every round's spill shadows part of the segments below it.
        for i in (round..KEYS).step_by(round + 2) {
            let v = [value(i), format!("|round{round}").into_bytes()].concat();
            store.set(&key(i), &v).expect("set");
            model[i] = Some(v);
        }
        for i in (round * 7..KEYS).step_by(97) {
            store.delete(&key(i)).expect("delete");
            model[i] = None;
        }
        store.flush_all().expect("flush");
        assert_eq!(store.hot_len(), 0);
        // The first pass admits records (negative ones for keys a newer
        // segment lacks); the second is answered from them.
        let record_hits = cache.record_hits();
        check_all(&store, &model);
        check_all(&store, &model);
        assert!(
            cache.record_hits() > record_hits,
            "round {round}: no record hits"
        );

        let live_before: Vec<u64> = store.segment_stats().iter().map(|s| s.id).collect();
        let entries: Vec<usize> = live_before
            .iter()
            .map(|&id| cache.segment_entries(id))
            .collect();
        let invalidations = cache.invalidations();
        store.compact().expect("compact");
        let live_after: Vec<u64> = store.segment_stats().iter().map(|s| s.id).collect();
        let mut retired_entries = 0;
        for (id, entries) in live_before.iter().zip(entries) {
            if !live_after.contains(id) {
                assert_eq!(cache.segment_entries(*id), 0, "segment {id} retired");
                retired_entries += entries;
            }
        }
        assert!(
            retired_entries > 0,
            "round {round}: compaction retired nothing cached"
        );
        assert_eq!(
            cache.invalidations() - invalidations,
            retired_entries as u64,
            "every entry of a retired segment is counted as invalidated"
        );
        check_all(&store, &model);
    }
    assert!(cache.cached_bytes() <= cache.capacity());
}
