//! The probe ladder: the same generated inputs replayed single-threaded
//! at each layer depth, through public functions only. A layer's self
//! time is its depth's median minus the depth below
//! (`Router::put - TieredStore::set`, `TieredStore::get -
//! SegmentReader::read_block - SegmentReader::block_bytes`, ...).
//!
//! The ladder does not depend on the workload: every traced run climbs
//! the same rungs, so the layer numbers of two workloads' runs can be
//! held against each other.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pbc_archive::{
    build_codec, CodecSpec, Entry, ReadMode, SegmentConfig, SegmentReader, SegmentWriter,
};
use pbc_codecs::{DictCodec, Dictionary, FsstCodec, TrainableCodec, ZstdLike};
use pbc_datagen::Dataset;
use pbc_obs::MetricsRegistry;
use pbc_store::{TierStore, ValueCodec};
use pbc_tier::{Durability, TierConfig, TieredStore, WalOptions};
use pbc_wal::{Wal, WalConfig, WalObs};

use crate::gen::{
    stored_key, tenant_name, tenant_of, user_key, value_index, Corpus, Rng, CODEC_DATASETS,
};
use crate::metrics::MetricSet;
use crate::stats::{median, self_time, LatHist};
use crate::workloads::{
    bench_segment_config, start_router, CodecCorpus, Sizes, StoreDir, KEY_BYTES, SCAN_ROWS,
    WAL_SHARDS,
};

/// What the ladder measured.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Every probe metric.
    pub metrics: MetricSet,
    /// Self-time subtractions that went negative and were clamped to 0.
    pub clamped: Vec<String>,
    /// One line per rung, for the human report.
    pub notes: Vec<String>,
}

impl Ladder {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.set(name, value);
    }

    /// `value - deeper` as the self time `name`, clamped and flagged.
    fn set_self(&mut self, name: &str, value: f64, deeper: f64) -> f64 {
        let (own, clamped) = self_time(value, deeper);
        if clamped {
            self.clamped
                .push(format!("{name}: {value:.3} - {deeper:.3} < 0"));
        }
        self.set(name, own);
        own
    }
}

/// Median latency in µs of `op` over `inputs`.
fn p50_us<T>(inputs: impl IntoIterator<Item = T>, mut op: impl FnMut(T)) -> f64 {
    let mut hist = LatHist::default();
    for input in inputs {
        let start = Instant::now();
        op(input);
        hist.record(start.elapsed().as_nanos() as u64);
    }
    hist.quantile_us(0.5)
}

/// Median latency in µs of each rung over `inputs`. Every input goes
/// through every rung before the next input, in rotating order, so drift
/// over the probe (fsync cost, CPU frequency, cache warmth from the rung
/// before) lands on all rungs alike and the differences between their
/// medians mean something.
fn rungs_p50_us<T: Copy>(inputs: &[T], rungs: &mut [&mut dyn FnMut(T)]) -> Vec<f64> {
    let mut hists = vec![LatHist::default(); rungs.len()];
    for (i, &input) in inputs.iter().enumerate() {
        for turn in 0..rungs.len() {
            let rung = (i + turn) % rungs.len();
            let start = Instant::now();
            rungs[rung](input);
            hists[rung].record(start.elapsed().as_nanos() as u64);
        }
    }
    hists.iter().map(|h| h.quantile_us(0.5)).collect()
}

fn seconds(op: impl FnOnce()) -> f64 {
    let start = Instant::now();
    op();
    start.elapsed().as_secs_f64()
}

fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

/// `core.*` for one corpus, plus `datagen.records_per_s` of all four.
fn probe_core(ladder: &mut Ladder, sizes: &Sizes) -> Vec<CodecCorpus> {
    let mut generated = 0usize;
    let datagen_s = seconds(|| {
        for dataset in CODEC_DATASETS {
            generated += std::hint::black_box(Corpus::generate(dataset, sizes.corpus_records))
                .records
                .len();
        }
    });
    ladder.set("datagen.records_per_s", generated as f64 / datagen_s);

    let corpora: Vec<CodecCorpus> = CODEC_DATASETS
        .iter()
        .map(|&d| CodecCorpus::build(d, sizes.corpus_records))
        .collect();
    for set in &corpora {
        let d = set.corpus.name();
        let raw = set.corpus.raw_bytes;
        set.compressor.reset_stats();
        let compress_s = seconds(|| {
            for record in &set.corpus.records {
                std::hint::black_box(set.compressor.compress(record));
            }
        });
        let stats = set.compressor.stats();
        let decompress_s = seconds(|| {
            for packed in &set.compressed {
                std::hint::black_box(set.compressor.decompress(packed).expect("decompress"));
            }
        });
        ladder.set(&format!("core.train_s.{d}"), set.train_s);
        ladder.set(
            &format!("core.compress_mb_s.{d}"),
            mb_per_s(raw, compress_s),
        );
        ladder.set(
            &format!("core.decompress_mb_s.{d}"),
            mb_per_s(raw, decompress_s),
        );
        ladder.set(
            &format!("core.ratio.{d}"),
            set.compressed_bytes() as f64 / raw as f64,
        );
        ladder.set(&format!("core.outlier_share.{d}"), stats.outlier_rate());
        ladder.notes.push(format!(
            "core {d}: {} patterns, train {:.2}s, ratio {:.3}, outliers {:.3}",
            set.compressor.dictionary().len(),
            set.train_s,
            set.compressed_bytes() as f64 / raw as f64,
            stats.outlier_rate()
        ));
    }
    corpora
}

/// `codecs.*`: FSST (PBC_F's residual coder) and dictionary Zstd (the
/// paper's comparison point), per record over the `kv2` corpus.
fn probe_codecs(ladder: &mut Ladder, kv2: &Corpus) {
    let samples: Vec<&[u8]> = kv2.records.iter().take(512).map(|r| r.as_slice()).collect();
    let raw = kv2.raw_bytes;

    let fsst = FsstCodec::train(&samples);
    let mut encoded = Vec::with_capacity(kv2.records.len());
    let encode_s = seconds(|| {
        for record in &kv2.records {
            encoded.push(fsst.encode(record));
        }
    });
    let decode_s = seconds(|| {
        for packed in &encoded {
            std::hint::black_box(fsst.decode(packed).expect("fsst decode"));
        }
    });
    let packed: u64 = encoded.iter().map(|e| e.len() as u64).sum();
    ladder.set("codecs.fsst_compress_mb_s", mb_per_s(raw, encode_s));
    ladder.set("codecs.fsst_decompress_mb_s", mb_per_s(raw, decode_s));
    ladder.set("codecs.fsst_ratio", packed as f64 / raw as f64);

    let dictionary = Dictionary::train_default(&samples);
    let zstd = ZstdLike::new(3);
    let packed: Vec<Vec<u8>> = kv2
        .records
        .iter()
        .map(|r| zstd.compress_with_dict(r, dictionary.as_bytes()))
        .collect();
    let decode_s = seconds(|| {
        for p in &packed {
            std::hint::black_box(
                zstd.decompress_with_dict(p, dictionary.as_bytes())
                    .expect("zstd decode"),
            );
        }
    });
    let packed_bytes: u64 = packed.iter().map(|p| p.len() as u64).sum();
    ladder.set("codecs.zstd_dict_decompress_mb_s", mb_per_s(raw, decode_s));
    ladder.set("codecs.zstd_dict_ratio", packed_bytes as f64 / raw as f64);
}

/// `store.*`: the in-memory `TierStore` with per-value `PBC_F`, the
/// paper's Table 8 integration.
fn probe_store(ladder: &mut Ladder, kv2: CodecCorpus, ops: usize) {
    let values = &kv2.corpus.records;
    let store = TierStore::new(ValueCodec::Pbc(Arc::new(kv2.compressor)));
    let keys: Vec<Vec<u8>> = (0..ops as u64).map(stored_key).collect();
    let mut user_bytes = 0u64;
    let set_us = p50_us(keys.iter().enumerate(), |(i, key)| {
        let value = &values[i % values.len()];
        user_bytes += KEY_BYTES + value.len() as u64;
        store.set(key, value);
    });
    let get_us = p50_us(keys.iter(), |key| {
        std::hint::black_box(store.get(key).expect("store get"));
    });
    ladder.set("store.set_us_p50", set_us);
    ladder.set("store.get_us_p50", get_us);
    ladder.set(
        "store.mem_bytes_per_user_byte",
        store.memory_usage_bytes() as f64 / user_bytes as f64,
    );
}

/// The write half of `archive.*`: codec selection, block encode, and a
/// whole segment written.
fn probe_archive_write(ladder: &mut Ladder, scratch: &Path, values: &Corpus, keys: u64) {
    let config = bench_segment_config();
    let entries: Vec<Entry> = {
        let mut entries: Vec<Entry> = (0..keys)
            .map(|o| {
                let value = &values.records[value_index(o, 0, values.records.len())];
                (stored_key(o), value.clone())
            })
            .collect();
        entries.sort();
        entries
    };
    let user_bytes: u64 = entries
        .iter()
        .map(|(_, v)| KEY_BYTES + v.len() as u64)
        .sum();
    // Cut blocks with the writer's own rule.
    let mut blocks: Vec<&[Entry]> = Vec::new();
    let (mut from, mut bytes) = (0, 0);
    for (i, (key, value)) in entries.iter().enumerate() {
        bytes += pbc_archive::entry_size_estimate(key.len(), value.len());
        if config.block_is_full(i + 1 - from, bytes) {
            blocks.push(&entries[from..=i]);
            (from, bytes) = (i + 1, 0);
        }
    }
    // What the tier does on a first spill and in every majority-rewrite
    // job: train every candidate on the sample and keep the smallest. The
    // sample here is 16 KiB, two of the workloads' blocks: enough records
    // for PBC's clustering to run, which is what the time is spent on.
    let sample_from = entries.len() / 2;
    let sample_len = entries[sample_from..]
        .iter()
        .scan(0, |bytes, (key, value)| {
            *bytes += pbc_archive::entry_size_estimate(key.len(), value.len());
            Some(*bytes)
        })
        .take_while(|&bytes| bytes < 16 * 1024)
        .count();
    let mut codec = None;
    let build_s = seconds(|| {
        let sample = &entries[sample_from..sample_from + sample_len];
        codec = Some(build_codec(&CodecSpec::Auto, sample));
    });
    let codec = codec.expect("codec built");
    ladder.set("archive.build_codec_s", build_s);
    ladder.set(
        "archive.encode_block_us_p50",
        p50_us(blocks.iter().take(64), |block| {
            std::hint::black_box(codec.compress_block(block));
        }),
    );
    let dir = StoreDir::create(scratch, "ladder-archive");
    let path = dir.0.join("probe.seg");
    let mut summary = None;
    let write_s = seconds(|| {
        let mut writer = SegmentWriter::create(
            &path,
            SegmentConfig {
                codec: CodecSpec::Pretrained(codec.clone()),
                ..config.clone()
            },
        )
        .expect("create segment");
        for (key, value) in &entries {
            writer.append(key, value).expect("append");
        }
        summary = Some(writer.finish().expect("finish segment"));
    });
    let summary = summary.expect("segment written");
    ladder.set("archive.write_mb_s", mb_per_s(user_bytes, write_s));
    ladder.set(
        "archive.file_bytes_per_user_byte",
        summary.file_bytes as f64 / user_bytes as f64,
    );
    ladder.notes.push(format!(
        "archive: trial selection chose {} in {build_s:.2}s; {} blocks",
        codec.name(),
        summary.block_count
    ));
}

/// Keys the get rungs replay, in replay order.
fn probe_ordinals(seed: u64, keys: u64, ops: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x1adde2);
    (0..ops).map(|_| rng.below(keys)).collect()
}

fn cold_store_config(dir: &Path, cache_bytes: usize) -> TierConfig {
    TierConfig::new(dir)
        .with_watermark(u64::MAX)
        .with_cache_capacity(cache_bytes)
        .with_segment_config(bench_segment_config())
}

/// The tier and serve read rungs, the read half of `archive.*`, and the
/// spill / compact / reopen probes: one store taken hot -> cold ->
/// uncached -> cached.
fn probe_read_path(ladder: &mut Ladder, scratch: &Path, values: &Corpus, sizes: &Sizes, seed: u64) {
    let keys = sizes.ladder_keys;
    let ordinals = probe_ordinals(seed, keys, sizes.ladder_ops);
    let stored: Vec<Vec<u8>> = ordinals.iter().map(|&o| stored_key(o)).collect();
    let expect = |o: u64| values.records[value_index(o, 0, values.records.len())].as_slice();
    let dir = StoreDir::create(scratch, "ladder-read");

    // Hot: set without a WAL, get from memory.
    let store = TieredStore::open(cold_store_config(&dir.0, 0)).expect("open ladder store");
    let mut user_bytes = 0u64;
    let set_us = p50_us(0..keys, |o| {
        let value = expect(o);
        user_bytes += KEY_BYTES + value.len() as u64;
        store.set(&stored_key(o), value).expect("set");
    });
    ladder.set("tier.set_us_p50.nowal", set_us);
    ladder.set(
        "tier.get_hot_us_p50",
        p50_us(&stored, |key| {
            std::hint::black_box(store.get(key).expect("hot get"));
        }),
    );

    // Cold: one spill of everything, one full compaction.
    let spill_s = seconds(|| store.flush_all().expect("flush"));
    ladder.set("tier.spill_s", spill_s);
    ladder.set("tier.spill_mb_s", mb_per_s(user_bytes, spill_s));
    let compact_s = seconds(|| {
        store.compact().expect("compact");
    });
    ladder.set("tier.compact_s", compact_s);
    ladder.set("tier.compact_mb_s", mb_per_s(user_bytes, compact_s));

    // Uncached (cache capacity 0): every get fetches and decodes a block.
    // The rungs below the tier read the store's own L1 segments.
    let store = Arc::new(store);
    let router = start_router(&store);
    let partitions: Vec<std::path::PathBuf> = store
        .leveled_stats()
        .1
        .iter()
        .map(|s| dir.0.join(format!("seg-{:06}.seg", s.id)))
        .collect();
    let open_readers = |mode: ReadMode| -> Vec<SegmentReader> {
        partitions
            .iter()
            .map(|path| SegmentReader::open_with(path, mode).expect("open segment"))
            .collect()
    };
    fn locate<'a>(readers: &'a [SegmentReader], key: &[u8]) -> (&'a SegmentReader, usize) {
        let reader = readers
            .iter()
            .find(|r| r.max_key().is_some_and(|max| key <= max))
            .expect("a partition covers the key");
        (
            reader,
            reader.candidate_blocks_for_key(key).expect("index").start,
        )
    }
    ladder.set(
        "archive.open_us",
        p50_us(partitions.iter().cycle().take(32), |path| {
            std::hint::black_box(SegmentReader::open(path).expect("open segment"));
        }),
    );
    let pread = open_readers(ReadMode::Pread);
    ladder.set(
        "archive.fetch_block_us_p50.pread",
        p50_us(&stored, |key| {
            let (reader, block) = locate(&pread, key);
            std::hint::black_box(reader.block_bytes(block).expect("fetch"));
        }),
    );
    // The default read mode is what the tier's own readers use, so the
    // chain is measured on it.
    let readers = open_readers(ReadMode::Auto);
    let probes: Vec<usize> = (0..ordinals.len()).collect();
    let chain = rungs_p50_us(
        &probes,
        &mut [
            &mut |i: usize| {
                let (reader, block) = locate(&readers, &stored[i]);
                std::hint::black_box(reader.block_bytes(block).expect("fetch"));
            },
            &mut |i: usize| {
                let (reader, block) = locate(&readers, &stored[i]);
                std::hint::black_box(reader.read_block(block).expect("decode"));
            },
            &mut |i: usize| {
                let got = store.get(&stored[i]).expect("miss get");
                assert_eq!(got.as_deref(), Some(expect(ordinals[i])));
            },
            &mut |i: usize| {
                let o = ordinals[i];
                let got = router.get(tenant_name(tenant_of(o)), &user_key(o));
                assert_eq!(got.expect("router get").as_deref(), Some(expect(o)));
            },
        ],
    );
    let [fetch_us, read_block_us, miss_us, router_miss_us] = chain[..] else {
        unreachable!("four rungs")
    };
    ladder.set("archive.fetch_block_us_p50.mmap", fetch_us);
    let decode_self = ladder.set_self("archive.decode_block_us_p50", read_block_us, fetch_us);
    ladder.set("tier.get_miss_us_p50", miss_us);
    ladder.set("serve.get_us_p50", router_miss_us);
    ladder.set(
        "archive.get_us_p50",
        p50_us(ordinals.iter().zip(&stored), |(&o, key)| {
            let (reader, _) = locate(&readers, key);
            let got = reader.get(key).expect("segment get").expect("present");
            // The tier prefixes every stored value with a marker byte.
            assert_eq!(&got[1..], expect(o));
        }),
    );
    let mut rows = 0u64;
    let scan_s = seconds(|| {
        for reader in &readers {
            for row in reader.scan() {
                row.expect("segment scan row");
                rows += 1;
            }
        }
    });
    ladder.set("archive.scan_rows_per_s", rows as f64 / scan_s);
    let mut rows = 0u64;
    let scan_s = seconds(|| {
        for row in store.range_scan::<&[u8], _>(..).expect("scan") {
            row.expect("scan row");
            rows += 1;
        }
    });
    assert_eq!(rows, keys);
    ladder.set("tier.scan_rows_per_s", rows as f64 / scan_s);
    drop((readers, pread));

    // Reopen with a cache that holds everything: warm it, then time hits.
    router.shutdown();
    drop(router);
    drop(Arc::into_inner(store).expect("store unshared"));
    let mut reopened = None;
    let reopen_s = seconds(|| {
        reopened = Some(TieredStore::open(cold_store_config(&dir.0, 256 << 20)).expect("reopen"));
    });
    ladder.set("tier.reopen_s", reopen_s);
    let store = Arc::new(reopened.expect("reopened"));
    let cached_pass = |store: &TieredStore| {
        for key in &stored {
            store.get(key).expect("warm get");
        }
        seconds(|| {
            for key in &stored {
                std::hint::black_box(store.get(key).expect("cached get"));
            }
        })
    };
    let metrics_on_s = cached_pass(&store);
    let router = start_router(&store);
    // Cached: the tier's own work on a get (hot and staging probes, index
    // lookup, cache hit, search inside the block) and the router's on top.
    // The router's overhead is taken here, where the 50 us of a block
    // decode do not drown it.
    let cached = rungs_p50_us(
        &probes,
        &mut [
            &mut |i: usize| {
                std::hint::black_box(store.get(&stored[i]).expect("cached get"));
            },
            &mut |i: usize| {
                let o = ordinals[i];
                let got = router.get(tenant_name(tenant_of(o)), &user_key(o));
                std::hint::black_box(got.expect("router get"));
            },
        ],
    );
    let (cached_us, router_cached_us) = (cached[0], cached[1]);
    ladder.set("tier.get_cached_us_p50", cached_us);
    let serve_get_self = ladder.set_self("serve.get_overhead_us_p50", router_cached_us, cached_us);
    let attributed = serve_get_self + cached_us + decode_self + fetch_us;
    let (unattributed, over) = self_time(router_miss_us, attributed);
    if over {
        ladder.clamped.push(format!(
            "serve.get_unattributed_us: {router_miss_us:.3} - {attributed:.3} < 0"
        ));
    }
    ladder.set("serve.get_unattributed_us", unattributed);
    ladder.notes.push(format!(
        "get (uncached): Router::get {router_miss_us:.2} us = serve {serve_get_self:.2} + tier {cached_us:.2} \
         + decode {decode_self:.2} + fetch {fetch_us:.2} + unattributed {unattributed:.2} \
         (TieredStore::get {miss_us:.2}, read_block {read_block_us:.2})"
    ));
    let scan_starts: Vec<u64> = ordinals.iter().take(200).copied().collect();
    for &o in &scan_starts {
        router
            .scan(tenant_name(tenant_of(o)), &user_key(o), SCAN_ROWS)
            .expect("warm scan");
    }
    ladder.set(
        "serve.scan_us_p50",
        p50_us(&scan_starts, |&o| {
            let rows = router
                .scan(tenant_name(tenant_of(o)), &user_key(o), SCAN_ROWS)
                .expect("scan");
            std::hint::black_box(rows);
        }),
    );

    // What measuring costs: the benchmark's own span recording around a
    // cached Router::get, and the program's metrics against none.
    let mut spans: Vec<(Instant, Instant)> = Vec::with_capacity(ordinals.len());
    let timed_gets = |record: &mut dyn FnMut(Instant, Instant)| {
        seconds(|| {
            for &o in &ordinals {
                let start = Instant::now();
                let got = router.get(tenant_name(tenant_of(o)), &user_key(o));
                let end = Instant::now();
                std::hint::black_box(got.expect("router get"));
                record(start, end);
            }
        })
    };
    let passes = 5;
    let untraced: Vec<f64> = (0..passes).map(|_| timed_gets(&mut |_, _| {})).collect();
    let traced: Vec<f64> = (0..passes)
        .map(|_| {
            spans.clear();
            timed_gets(&mut |start, end| spans.push((start, end)))
        })
        .collect();
    ladder.set(
        "bench.trace_overhead_share",
        ((median(&traced) - median(&untraced)) / median(&untraced)).max(0.0),
    );
    router.shutdown();
    drop(router);
    drop(Arc::into_inner(store).expect("store unshared"));
    let bare = TieredStore::open(cold_store_config(&dir.0, 256 << 20).with_metrics(false))
        .expect("reopen without metrics");
    let metrics_off_s = cached_pass(&bare);
    ladder.set(
        "obs.metrics_overhead_share",
        ((metrics_on_s - metrics_off_s) / metrics_on_s).max(0.0),
    );
}

/// `wal.*` probes on a standalone log, then the put rungs above it.
fn probe_write_path(
    ladder: &mut Ladder,
    scratch: &Path,
    values: &Corpus,
    sizes: &Sizes,
    clients: usize,
) {
    // Rungs that fsync per call get a quarter of the operations.
    let (ops, synced_ops) = (sizes.ladder_ops as u64, sizes.ladder_ops as u64 / 4);
    let value = |o: u64| values.records[value_index(o, 0, values.records.len())].as_slice();
    let open_wal = |name: &str, durability: Durability, registry: &MetricsRegistry| {
        let dir = StoreDir::create(scratch, name);
        let config = WalConfig::new(&dir.0)
            .with_shards(WAL_SHARDS)
            .with_durability(durability);
        let (wal, _) = Wal::open(config, WalObs::new(registry, None), 0, |_| {}).expect("open wal");
        (wal, dir)
    };

    let registry = MetricsRegistry::new();
    let (wal, _dir) = open_wal("ladder-wal-none", Durability::None, &registry);
    let append_none_us = p50_us(0..ops, |o| {
        wal.append_put(&stored_key(o), value(o)).expect("append");
    });
    ladder.set("wal.append_us_p50.none", append_none_us);
    let marks = wal.capture_marks();
    let checkpoint_us = seconds(|| {
        wal.checkpoint(&marks, 0).expect("checkpoint");
    }) * 1e6;
    ladder.set("wal.checkpoint_us", checkpoint_us);
    drop(wal);

    let registry = MetricsRegistry::new();
    let (wal, _dir) = open_wal("ladder-wal-batch", Durability::PerBatch, &registry);
    // Group commit: the same appends from `clients` threads at once.
    let per_client = synced_ops / clients as u64;
    let mut merged = LatHist::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let wal = &wal;
                scope.spawn(move || {
                    let mut hist = LatHist::default();
                    for n in 0..per_client {
                        let o = synced_ops + c * per_client + n;
                        let start = Instant::now();
                        wal.append_put(&stored_key(o), value(o)).expect("append");
                        hist.record(start.elapsed().as_nanos() as u64);
                    }
                    hist
                })
            })
            .collect();
        for handle in handles {
            merged.merge(&handle.join().expect("wal client"));
        }
    });
    ladder.set(
        "wal.append_us_p50.perbatch.nclients",
        merged.quantile_us(0.5),
    );

    // The put chain: Wal::append_put, TieredStore::set and Router::put,
    // each on keys of its own, all fsyncing per call.
    let dir = StoreDir::create(scratch, "ladder-put");
    let store = Arc::new(
        TieredStore::open(
            TierConfig::new(&dir.0)
                .with_watermark(u64::MAX)
                .with_segment_config(bench_segment_config())
                .with_wal(WalOptions::with_durability(Durability::PerBatch).shards(WAL_SHARDS)),
        )
        .expect("open put-ladder store"),
    );
    let router = start_router(&store);
    let base = 2 * synced_ops;
    let probes: Vec<u64> = (0..synced_ops).collect();
    let chain = rungs_p50_us(
        &probes,
        &mut [
            &mut |n: u64| {
                let o = base + 3 * n;
                wal.append_put(&stored_key(o), value(o)).expect("append");
            },
            &mut |n: u64| {
                let o = base + 3 * n + 1;
                store.set(&stored_key(o), value(o)).expect("set");
            },
            &mut |n: u64| {
                let o = base + 3 * n + 2;
                router
                    .put(tenant_name(tenant_of(o)), &user_key(o), value(o))
                    .expect("put");
            },
        ],
    );
    let [append_batch_us, set_us, put_us] = chain[..] else {
        unreachable!("three rungs")
    };
    ladder.set("wal.append_us_p50.perbatch", append_batch_us);
    ladder.set("serve.put_us_p50", put_us);
    let fsync_us = registry
        .snapshot()
        .histograms
        .get("pbc_wal_fsync_ns")
        .map_or(0.0, |h| h.p50() as f64 / 1_000.0);
    ladder.set("wal.fsync_us_p50", fsync_us);
    ladder.set(
        "serve.delete_us_p50",
        p50_us(probes.iter(), |&n| {
            let o = base + 3 * n + 2;
            let existed = router
                .delete(tenant_name(tenant_of(o)), &user_key(o))
                .expect("delete");
            assert!(existed);
        }),
    );
    let serve_self = ladder.set_self("serve.put_overhead_us_p50", put_us, set_us);
    // The parts of TieredStore::set were each measured on a rung of their
    // own: hot apply (no WAL), log append (no fsync), fsync.
    let hot_apply_us = ladder.metrics.get("tier.set_us_p50.nowal").unwrap_or(0.0);
    let attributed = serve_self + hot_apply_us + append_none_us + fsync_us;
    let (unattributed, over) = self_time(put_us, attributed);
    if over {
        ladder.clamped.push(format!(
            "serve.put_unattributed_us: {put_us:.3} - {attributed:.3} < 0"
        ));
    }
    ladder.set("serve.put_unattributed_us", unattributed);
    ladder.notes.push(format!(
        "put (PerBatch): Router::put {put_us:.2} us = serve {serve_self:.2} + hot apply {hot_apply_us:.2} \
         + wal append {append_none_us:.2} + fsync {fsync_us:.2} + unattributed {unattributed:.2} \
         (TieredStore::set {set_us:.2}, Wal::append_put {append_batch_us:.2})"
    ));
    router.shutdown();
}

/// Climb every rung. `scratch` holds the ladder's store files and is
/// cleaned rung by rung.
pub fn run_ladder(scratch: &Path, sizes: &Sizes, seed: u64, clients: usize) -> Ladder {
    let mut ladder = Ladder::default();
    let started = Instant::now();
    let mut corpora = probe_core(&mut ladder, sizes);
    let kv2 = corpora.remove(0);
    assert_eq!(kv2.corpus.dataset, Dataset::Kv2);
    probe_codecs(&mut ladder, &kv2.corpus);
    probe_store(&mut ladder, kv2, sizes.ladder_ops);
    drop(corpora);
    let values = Corpus::generate(Dataset::Kv2, sizes.value_records);
    probe_archive_write(&mut ladder, scratch, &values, sizes.ladder_keys);
    probe_read_path(&mut ladder, scratch, &values, sizes, seed);
    probe_write_path(&mut ladder, scratch, &values, sizes, clients);
    let clamped = ladder.clamped.len() as f64;
    ladder.set("bench.ladder_clamped", clamped);
    ladder.notes.push(format!(
        "ladder took {:.1}s",
        started.elapsed().as_secs_f64()
    ));
    ladder
}
