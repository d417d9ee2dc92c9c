//! The four workloads: what each sets up, what its clients do, and what
//! it checks afterwards. Names are fixed; later issues cite them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbc_archive::{CodecSpec, SegmentConfig};
use pbc_core::{PbcCompressor, PbcConfig};
use pbc_datagen::Dataset;
use pbc_serve::{Router, ServeConfig, ServeError, TenantQuota};
use pbc_tier::{Durability, TierConfig, TierStats, TieredStore, WalOptions};

use crate::engine::{drive, Client, OpKind, Outcome, Timed, WindowLog};
use crate::gen::{
    ordinal_of, stored_key, tenant_name, tenant_of, user_key, value_index, Corpus, Rng, Zipf,
    CODEC_DATASETS, TENANTS,
};

/// The workloads, in the order `run --all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "codec-records",
    "cold-point-reads",
    "durable-writes",
    "serve-mixed",
];

/// Router shards, hence applier threads; pinned so results do not follow
/// the host's core count.
pub const ROUTER_SHARDS: usize = 2;
/// WAL shards, matched to the router's.
pub const WAL_SHARDS: usize = 2;
/// Rows one `Router::scan` asks for.
pub const SCAN_ROWS: usize = 100;
/// Bytes of a user key (`k:` and eight digits).
pub const KEY_BYTES: u64 = 10;

/// Closed-loop clients: `min(nproc, 4)`.
pub fn default_clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// The PBC training configuration of every compressor the benchmark
/// trains itself. Training is quadratic in the sampled records and in
/// their length (tens of seconds at the library default of 256 KiB), so
/// the sample is capped at 128 records and 24 KiB: all 128 for `kv2`,
/// `hdfs` and `urls`, 28 of `github`'s 850-byte records, which alone take
/// half of the four trainings' five seconds. See the README for what the
/// cap costs in ratio.
pub fn bench_pbc_config() -> PbcConfig {
    PbcConfig {
        max_sample_records: 128,
        max_sample_bytes: 24 * 1024,
        target_clusters: 16,
        ..PbcConfig::default()
    }
}

/// How segments are written in every store workload.
///
/// The engine picks a segment codec by training every candidate, PBC at
/// library defaults included, on `auto_sample_blocks` sample blocks: at
/// the first spill and again in every compaction job that rewrites most
/// of the cold records, which with keys spread over four tenants is
/// every job. PBC's clustering starts above 64 sample records and is
/// quadratic from there: one selection over `kv2` entries costs 3 ms on an
/// 8 KiB block (42 entries), 1.4 s on 16 KiB and 12 s on the default
/// 64 KiB. At 16 KiB the maintenance thread of `durable-writes` trains
/// for the whole window and throughput moves by 30 % between runs; 8 KiB
/// keeps the window on the engine. Training cost has its own rungs in
/// the ladder (`core.train_s.*`, `archive.build_codec_s`).
pub fn bench_segment_config() -> SegmentConfig {
    SegmentConfig {
        target_block_bytes: 8 * 1024,
        auto_sample_blocks: 1,
        workers: 1,
        codec: CodecSpec::PbcF(bench_pbc_config()),
        ..SegmentConfig::default()
    }
}

/// Input sizes. `full` is what `BENCHMARK.json` runs; `smoke` is for
/// quick iteration.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Records per codec corpus.
    pub corpus_records: usize,
    /// `kv2` records the store workloads draw values from.
    pub value_records: usize,
    /// Keys `cold-point-reads` preloads.
    pub cold_keys: u64,
    /// Its block cache: small enough that most gets miss (see the README).
    pub cold_cache_bytes: usize,
    /// Keys `serve-mixed` preloads.
    pub mixed_keys: u64,
    /// Its spill watermark: about half the data stays hot.
    pub mixed_watermark: u64,
    /// Its block cache: the whole decoded cold set fits.
    pub mixed_cache_bytes: usize,
    /// Spill watermark of `durable-writes`.
    pub durable_watermark: u64,
    /// Acked writes re-read after `durable-writes` reopens its store.
    pub durability_sample: usize,
    /// Warm-up before the window.
    pub warmup: Duration,
    /// Operations per probe-ladder rung.
    pub ladder_ops: usize,
    /// Keys the ladder's stores hold.
    pub ladder_keys: u64,
}

impl Sizes {
    /// The sizes the committed numbers are measured at.
    pub fn full() -> Sizes {
        Sizes {
            corpus_records: 4_000,
            value_records: 20_000,
            cold_keys: 160_000,
            cold_cache_bytes: 768 * 1024,
            mixed_keys: 20_000,
            mixed_watermark: 2 * 1024 * 1024,
            mixed_cache_bytes: 64 * 1024 * 1024,
            durable_watermark: 768 * 1024,
            durability_sample: 10_000,
            warmup: Duration::from_secs(3),
            ladder_ops: 2_000,
            ladder_keys: 12_000,
        }
    }

    /// Small preloads, a one-second warm-up.
    pub fn smoke() -> Sizes {
        Sizes {
            corpus_records: 1_500,
            value_records: 5_000,
            cold_keys: 15_000,
            cold_cache_bytes: 350 * 1024,
            mixed_keys: 12_000,
            mixed_watermark: 1024 * 1024,
            durable_watermark: 192 * 1024,
            durability_sample: 2_000,
            warmup: Duration::from_secs(1),
            ladder_ops: 500,
            ladder_keys: 4_000,
            ..Sizes::full()
        }
    }
}

/// Everything one run needs to know.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the operation streams.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Input sizes.
    pub sizes: Sizes,
    /// Spans kept per client (0 in an untraced run).
    pub span_cap: usize,
    /// Scratch directory for store files, inside the checkout.
    pub scratch: PathBuf,
}

/// A named pass/fail condition printed with the result.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// Deltas of store, cache, WAL and router counters across the window.
#[derive(Debug, Default, Clone)]
pub struct RunCounts {
    /// `TierStats` at the window's end minus its start (gauges: the end's).
    pub tier: TierStats,
    /// Blocks the cache evicted for space.
    pub cache_evictions: u64,
    /// Blocks the cache dropped because their segment was retired.
    pub cache_invalidations: u64,
    /// Records appended to the WAL.
    pub wal_appends: u64,
    /// `sync_data` calls the WAL issued.
    pub wal_fsyncs: u64,
    /// Writes the router's admission control refused.
    pub admission_rejections: u64,
    /// Requests a tenant quota refused.
    pub quota_rejections: u64,
    /// Puts and deletes the router acknowledged.
    pub acked_writes: u64,
    /// Gets and scans the router acknowledged.
    pub acked_reads: u64,
    /// Mean writes per applier batch.
    pub mean_batch: f64,
}

/// Series the traced run samples every few milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Deepest total router queue seen.
    pub queue_depth_max: u64,
    /// Most L0 segments seen.
    pub l0_segments_max: u64,
    /// Largest WAL seen, bytes.
    pub wal_bytes_max: u64,
    /// WAL bytes appended (sum of the log's growth between samples).
    pub wal_bytes_appended: u64,
    /// Bytes of every segment first seen inside the window.
    pub segment_bytes_written: u64,
    /// `(ns since epoch, queue depth, l0 segments, hot bytes, wal bytes)`.
    pub series: Vec<(u64, u64, u64, u64, u64)>,
}

/// What a workload's window produced.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The clients' logs, and `setup_s`.
    pub log: WindowLog,
    /// `stored_bytes_per_user_byte`.
    pub stored_per_user_byte: f64,
    /// Counter deltas across the window (zero for `codec-records`).
    pub counts: RunCounts,
    /// Sampled series (traced runs of store workloads only).
    pub samples: Samples,
    /// Isolation and sizing conditions.
    pub checks: Vec<Check>,
    /// Reads that raced a write to the same key and were checked against
    /// both versions instead of one.
    pub raced_reads: u64,
    /// Raced reads that returned a version older than the overlap allows
    /// (see `Admit::Stale`).
    pub stale_reads: u64,
    /// Structured store events (spills, compactions) seen by the end.
    pub events: Vec<String>,
    /// The sizes and settings that shaped the run, for the result document.
    pub sizes: Vec<(String, f64)>,
}

// ---------------------------------------------------------------------------
// codec-records
// ---------------------------------------------------------------------------

/// One corpus with its trained compressor and every record compressed.
pub struct CodecCorpus {
    /// The records.
    pub corpus: Corpus,
    /// The `PBC_F` compressor trained on them.
    pub compressor: PbcCompressor,
    /// `compressor.compress(record)` for every record.
    pub compressed: Vec<Vec<u8>>,
    /// How long training took, seconds.
    pub train_s: f64,
}

impl CodecCorpus {
    /// Generate, train and compress one corpus.
    pub fn build(dataset: Dataset, records: usize) -> CodecCorpus {
        let corpus = Corpus::generate(dataset, records);
        let refs: Vec<&[u8]> = corpus.records.iter().map(|r| r.as_slice()).collect();
        let started = Instant::now();
        let compressor = PbcCompressor::train_fsst(&refs, &bench_pbc_config());
        let train_s = started.elapsed().as_secs_f64();
        let compressed = corpus
            .records
            .iter()
            .map(|r| compressor.compress(r))
            .collect();
        CodecCorpus {
            corpus,
            compressor,
            compressed,
            train_s,
        }
    }

    /// Compressed bytes over the whole corpus.
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed.iter().map(|c| c.len() as u64).sum()
    }
}

struct CodecClient<'a> {
    corpora: &'a [CodecCorpus],
    rng: Rng,
    issued: u64,
}

/// Which corpus (index into [`CODEC_DATASETS`]) each write/read pair of a
/// `codec-records` client goes to: `kv2`, `hdfs`, `github`, `urls` in
/// proportion 4 : 2 : 1 : 1. The eight (corpus, direction) classes have
/// narrow, well separated latencies, so a percentile of the mix is steady
/// only when it falls inside a class and not between two: with these
/// shares p50 is the middle of `hdfs` compress and p99 lies well inside
/// `github` compress. Equal shares put p50 exactly on a class boundary,
/// where it moved by 13 % from run to run.
const CORPUS_TURNS: [usize; 8] = [0, 1, 0, 2, 0, 1, 0, 3];

/// The `issued`-th operation of a `codec-records` client: write, read,
/// write, read ... over the corpora by [`CORPUS_TURNS`], so every corpus
/// sees both and the proportion never drifts. Returns `(write, corpus,
/// record)`.
fn codec_op(rng: &mut Rng, issued: u64, records: usize) -> (bool, usize, usize) {
    (
        issued.is_multiple_of(2),
        CORPUS_TURNS[(issued / 2) as usize % CORPUS_TURNS.len()],
        rng.below(records as u64) as usize,
    )
}

impl Client for CodecClient<'_> {
    fn step(&mut self) -> Timed {
        let records = self.corpora[0].corpus.records.len();
        let (write, corpus, index) = codec_op(&mut self.rng, self.issued, records);
        self.issued += 1;
        let set = &self.corpora[corpus];
        let (record, packed) = (&set.corpus.records[index], &set.compressed[index]);
        if write {
            let start = Instant::now();
            let out = set.compressor.compress(record);
            let end = Instant::now();
            Timed {
                kind: OpKind::Write,
                start,
                end,
                outcome: if out == *packed {
                    Outcome::Verified
                } else {
                    Outcome::Mismatch
                },
                user_bytes: record.len() as u64,
            }
        } else {
            let start = Instant::now();
            let out = set.compressor.decompress(packed);
            let end = Instant::now();
            Timed {
                kind: OpKind::Read,
                start,
                end,
                outcome: match out {
                    Ok(bytes) if bytes == *record => Outcome::Verified,
                    Ok(_) => Outcome::Mismatch,
                    Err(_) => Outcome::Error,
                },
                user_bytes: 0,
            }
        }
    }
}

fn run_codec_records(config: &RunConfig, epoch: Instant) -> WorkloadRun {
    let corpora: Vec<CodecCorpus> = CODEC_DATASETS
        .iter()
        .map(|&d| CodecCorpus::build(d, config.sizes.corpus_records))
        .collect();
    let raw: u64 = corpora.iter().map(|c| c.corpus.raw_bytes).sum();
    let packed: u64 = corpora.iter().map(|c| c.compressed_bytes()).sum();
    let mut clients: Vec<CodecClient<'_>> = (0..config.clients)
        .map(|c| CodecClient {
            corpora: &corpora,
            rng: Rng::new(config.seed, c as u64),
            issued: 0,
        })
        .collect();
    let log = drive(
        &mut clients,
        epoch,
        config.sizes.warmup,
        config.window,
        config.span_cap,
        |_| {},
    );
    WorkloadRun {
        log,
        stored_per_user_byte: packed as f64 / raw as f64,
        counts: RunCounts::default(),
        samples: Samples::default(),
        checks: vec![Check {
            what: "codec-records constructs no TieredStore, Wal or Router".into(),
            ok: true,
        }],
        raced_reads: 0,
        stale_reads: 0,
        events: Vec::new(),
        sizes: vec![
            ("corpus_records".into(), config.sizes.corpus_records as f64),
            ("corpus_raw_bytes".into(), raw as f64),
        ],
    }
}

// ---------------------------------------------------------------------------
// Store workloads: shared pieces
// ---------------------------------------------------------------------------

/// A store directory under the run's scratch space, removed on drop.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    /// A fresh, empty directory `scratch/name`.
    pub fn create(scratch: &Path, name: &str) -> StoreDir {
        let dir = scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store directory");
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Start the router every store workload uses and register its tenants.
pub fn start_router(store: &Arc<TieredStore>) -> Router {
    let router = Router::start(
        Arc::clone(store),
        ServeConfig::default().with_shards(ROUTER_SHARDS),
    )
    .expect("start router");
    for t in 0..TENANTS {
        router
            .create_tenant(tenant_name(t), TenantQuota::unlimited())
            .expect("create tenant");
    }
    router
}

/// Run planned compaction jobs until the planner has nothing left.
pub fn drain_compactions(store: &TieredStore) {
    while store.run_pending_compactions().expect("compaction") > 0 {}
}

fn segment_bytes(store: &TieredStore) -> u64 {
    store.segment_stats().iter().map(|s| s.bytes).sum()
}

/// Segment bytes once the store is quiet and fully merged: checkpoint
/// (flush the hot tier; the log is redundant from then on and is not
/// counted), then merge every segment. The full merge is what makes the
/// figure repeat: how many shadowed versions the planner's own jobs have
/// dropped when the window ends moves it by tens of percent from run to
/// run, and so does the fill of the log's active segments.
fn settled_bytes(store: &TieredStore) -> u64 {
    store.checkpoint_wal().expect("checkpoint");
    store.compact().expect("compact");
    segment_bytes(store)
}

fn counter(snapshot: &pbc_obs::Snapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// Counter readings at one edge of the window.
struct Edge {
    tier: TierStats,
    metrics: pbc_obs::Snapshot,
}

impl Edge {
    fn take(store: &TieredStore) -> Edge {
        Edge {
            tier: store.stats(),
            metrics: store.metrics().snapshot(),
        }
    }

    fn delta(&self, before: &Edge) -> RunCounts {
        let (a, b) = (&self.tier, &before.tier);
        let c = |name: &str| counter(&self.metrics, name) - counter(&before.metrics, name);
        let batches = c("pbc_serve_batches_total");
        let acked_writes = c("pbc_serve_puts_total") + c("pbc_serve_deletes_total");
        RunCounts {
            tier: TierStats {
                hot_hits: a.hot_hits - b.hot_hits,
                tombstone_negatives: a.tombstone_negatives - b.tombstone_negatives,
                staging_hits: a.staging_hits - b.staging_hits,
                cold_gets: a.cold_gets - b.cold_gets,
                cold_index_only: a.cold_index_only - b.cold_index_only,
                cold_cache_hits: a.cold_cache_hits - b.cold_cache_hits,
                cold_cache_misses: a.cold_cache_misses - b.cold_cache_misses,
                cold_segments_scanned: a.cold_segments_scanned - b.cold_segments_scanned,
                range_scans: a.range_scans - b.range_scans,
                scan_segments_opened: a.scan_segments_opened - b.scan_segments_opened,
                scan_blocks_decoded: a.scan_blocks_decoded - b.scan_blocks_decoded,
                scan_bytes_decoded: a.scan_bytes_decoded - b.scan_bytes_decoded,
                spills: a.spills - b.spills,
                spilled_entries: a.spilled_entries - b.spilled_entries,
                compactions: a.compactions - b.compactions,
                segments_retired: a.segments_retired - b.segments_retired,
                background_errors: a.background_errors - b.background_errors,
                ..a.clone()
            },
            cache_evictions: c("pbc_tier_cache_evictions_total"),
            cache_invalidations: c("pbc_tier_cache_invalidations_total"),
            wal_appends: c("pbc_wal_appends_total"),
            wal_fsyncs: c("pbc_wal_fsyncs_total"),
            admission_rejections: c("pbc_serve_admission_rejections_total"),
            quota_rejections: c("pbc_serve_quota_rejections_total"),
            acked_writes,
            acked_reads: c("pbc_serve_gets_total") + c("pbc_serve_scans_total"),
            mean_batch: if batches == 0 {
                0.0
            } else {
                acked_writes as f64 / batches as f64
            },
        }
    }
}

/// Sample gauges every 5 ms until `until`. Runs on the driver's own
/// thread, in traced runs only: an untraced run has no sampler.
fn sample_window(store: &TieredStore, router: &Router, epoch: Instant, until: Instant) -> Samples {
    let mut samples = Samples::default();
    let mut last_wal = store.wal_stats().map_or(0, |w| w.bytes);
    let mut newest_segment = store.segment_stats().iter().map(|s| s.id).max();
    while Instant::now() < until {
        let pressure = store.write_pressure();
        let depth = router.queue_depth() as u64;
        let wal = store.wal_stats().map_or(0, |w| w.bytes);
        samples.wal_bytes_appended += wal.saturating_sub(last_wal);
        last_wal = wal;
        // Segment ids only grow, so anything above the newest id already
        // seen was written since the last sample.
        let stats = store.segment_stats();
        for segment in stats.iter().filter(|s| Some(s.id) > newest_segment) {
            samples.segment_bytes_written += segment.bytes;
        }
        newest_segment = stats.iter().map(|s| s.id).max().max(newest_segment);
        samples.queue_depth_max = samples.queue_depth_max.max(depth);
        samples.l0_segments_max = samples.l0_segments_max.max(pressure.l0_segments);
        samples.wal_bytes_max = samples.wal_bytes_max.max(wal);
        samples.series.push((
            (Instant::now() - epoch).as_nanos() as u64,
            depth,
            pressure.l0_segments,
            pressure.memory_bytes,
            wal,
        ));
        std::thread::sleep(Duration::from_millis(5));
    }
    samples
}

/// Drive the window over a live store, taking counter readings at both
/// edges and (when tracing) sampling in between.
fn drive_store<C: Client>(
    config: &RunConfig,
    epoch: Instant,
    store: &TieredStore,
    router: &Router,
    clients: &mut [C],
) -> (WindowLog, RunCounts, Samples) {
    let mut before = None;
    let mut samples = Samples::default();
    let log = drive(
        clients,
        epoch,
        config.sizes.warmup,
        config.window,
        config.span_cap,
        |window_end| {
            before = Some(Edge::take(store));
            if config.span_cap > 0 {
                samples = sample_window(store, router, epoch, window_end);
            }
        },
    );
    let after = Edge::take(store);
    let counts = after.delta(&before.expect("window ran"));
    (log, counts, samples)
}

fn store_events(store: &TieredStore) -> Vec<String> {
    store
        .trace_events()
        .iter()
        .filter(|e| {
            !matches!(
                e.event,
                pbc_obs::Event::ScanOpened { .. } | pbc_obs::Event::ScanClosed { .. }
            )
        })
        .map(|e| format!("[{:>9}us] {}", e.micros, e.event))
        .collect()
}

fn classify<T>(result: Result<T, ServeError>, verify: impl FnOnce(T) -> bool) -> Outcome {
    match result {
        Ok(value) => {
            if verify(value) {
                Outcome::Verified
            } else {
                Outcome::Mismatch
            }
        }
        Err(ServeError::Busy { .. }) => Outcome::Busy,
        Err(_) => Outcome::Error,
    }
}

// ---------------------------------------------------------------------------
// cold-point-reads
// ---------------------------------------------------------------------------

struct ColdReadClient<'a> {
    router: &'a Router,
    values: &'a Corpus,
    zipf: &'a Zipf,
    rng: Rng,
}

impl Client for ColdReadClient<'_> {
    fn step(&mut self) -> Timed {
        let ordinal = self.zipf.ordinal(&mut self.rng);
        let (tenant, key) = (tenant_name(tenant_of(ordinal)), user_key(ordinal));
        let start = Instant::now();
        let result = self.router.get(tenant, &key);
        let end = Instant::now();
        let expected = &self.values.records[value_index(ordinal, 0, self.values.records.len())];
        Timed {
            kind: OpKind::Read,
            start,
            end,
            outcome: classify(result, |v| v.as_deref() == Some(expected.as_slice())),
            user_bytes: 0,
        }
    }
}

/// Preload `keys` ordinals at version 0 straight into the store, under
/// the router's documented namespace layout.
pub fn preload(store: &TieredStore, values: &Corpus, keys: u64) -> u64 {
    let mut user_bytes = 0;
    for ordinal in 0..keys {
        let value = &values.records[value_index(ordinal, 0, values.records.len())];
        store.set(&stored_key(ordinal), value).expect("preload");
        user_bytes += KEY_BYTES + value.len() as u64;
    }
    user_bytes
}

fn run_cold_point_reads(config: &RunConfig, epoch: Instant) -> WorkloadRun {
    let sizes = &config.sizes;
    let values = Corpus::generate(Dataset::Kv2, sizes.value_records);
    let dir = StoreDir::create(&config.scratch, "cold");
    // No WAL: nothing is written after set-up, and the read path never
    // touches one. The watermark is out of reach until the explicit
    // flush, so the preload itself never spills.
    let store = Arc::new(
        TieredStore::open(
            TierConfig::new(&dir.0)
                .with_watermark(u64::MAX)
                .with_cache_capacity(sizes.cold_cache_bytes)
                .with_segment_config(bench_segment_config()),
        )
        .expect("open store"),
    );
    let user_bytes = preload(&store, &values, sizes.cold_keys);
    store.flush_all().expect("flush");
    store.compact().expect("compact");
    let router = start_router(&store);
    let stored = segment_bytes(&store) as f64 / user_bytes as f64;
    let zipf = Zipf::new(sizes.cold_keys, Zipf::THETA);
    let mut clients: Vec<ColdReadClient<'_>> = (0..config.clients)
        .map(|c| ColdReadClient {
            router: &router,
            values: &values,
            zipf: &zipf,
            rng: Rng::new(config.seed, c as u64),
        })
        .collect();
    let (log, counts, samples) = drive_store(config, epoch, &store, &router, &mut clients);
    drop(clients);
    let checks = vec![
        Check {
            what: format!(
                "cold-point-reads: hot tier empty ({} keys) and L0 drained ({} segments)",
                store.hot_len(),
                store.l0_segment_count()
            ),
            ok: store.hot_len() == 0 && store.l0_segment_count() == 0,
        },
        Check {
            what: format!(
                "cold-point-reads: wal.fsyncs == {} and tier.spills == {} and tier.compactions == {}",
                counts.wal_fsyncs, counts.tier.spills, counts.tier.compactions
            ),
            ok: counts.wal_fsyncs == 0 && counts.tier.spills == 0 && counts.tier.compactions == 0,
        },
    ];
    let events = store_events(&store);
    router.shutdown();
    WorkloadRun {
        log,
        stored_per_user_byte: stored,
        counts,
        samples,
        checks,
        raced_reads: 0,
        stale_reads: 0,
        events,
        sizes: vec![
            ("keys".into(), sizes.cold_keys as f64),
            ("user_bytes".into(), user_bytes as f64),
            ("cache_bytes".into(), sizes.cold_cache_bytes as f64),
            ("zipf_theta".into(), Zipf::THETA),
        ],
    }
}

// ---------------------------------------------------------------------------
// durable-writes
// ---------------------------------------------------------------------------

/// Multiplier of the bijection `n -> n * ODD mod 2^26` that turns a
/// counter into a key ordinal: every key is new, and keys arrive in no
/// order a spill or a compaction job could exploit.
const ORDINAL_SCRAMBLE: u64 = 0x9e3_779b1;
const ORDINAL_BITS: u32 = 26;

fn scrambled_ordinal(counter: u64) -> u64 {
    counter.wrapping_mul(ORDINAL_SCRAMBLE) & ((1 << ORDINAL_BITS) - 1)
}

struct DurableWriteClient<'a> {
    router: &'a Router,
    values: &'a Corpus,
    rng: Rng,
    lane: u64,
    lanes: u64,
    /// One entry per key this client wrote, in write order: live or not.
    /// Recorded only for acknowledged writes.
    written: Vec<bool>,
}

impl DurableWriteClient<'_> {
    fn ordinal(&self, nth: u64) -> u64 {
        scrambled_ordinal(nth * self.lanes + self.lane)
    }
}

/// The next operation of a `durable-writes` client that has `written`
/// keys acknowledged: 5 % delete one of them (`Some(which)`), the rest
/// put a new key.
fn durable_op(rng: &mut Rng, written: u64) -> Option<u64> {
    (written > 0 && rng.below(100) < 5).then(|| rng.below(written))
}

impl Client for DurableWriteClient<'_> {
    fn step(&mut self) -> Timed {
        if let Some(nth) = durable_op(&mut self.rng, self.written.len() as u64) {
            let ordinal = self.ordinal(nth);
            let (tenant, key) = (tenant_name(tenant_of(ordinal)), user_key(ordinal));
            let was_live = self.written[nth as usize];
            let start = Instant::now();
            let result = self.router.delete(tenant, &key);
            let end = Instant::now();
            let outcome = classify(result, |existed| existed == was_live);
            if outcome == Outcome::Verified {
                self.written[nth as usize] = false;
            }
            Timed {
                kind: OpKind::Delete,
                start,
                end,
                outcome,
                user_bytes: 0,
            }
        } else {
            let ordinal = self.ordinal(self.written.len() as u64);
            let (tenant, key) = (tenant_name(tenant_of(ordinal)), user_key(ordinal));
            let value = &self.values.records[value_index(ordinal, 0, self.values.records.len())];
            let start = Instant::now();
            let result = self.router.put(tenant, &key, value);
            let end = Instant::now();
            let outcome = classify(result, |_| true);
            if outcome == Outcome::Verified {
                self.written.push(true);
            }
            Timed {
                kind: OpKind::Write,
                start,
                end,
                outcome,
                user_bytes: KEY_BYTES + value.len() as u64,
            }
        }
    }
}

fn durable_config(dir: &Path, sizes: &Sizes) -> TierConfig {
    TierConfig::new(dir)
        .with_watermark(sizes.durable_watermark)
        .with_segment_config(bench_segment_config())
        .with_background_compaction(true)
        .with_wal(
            WalOptions::with_durability(Durability::PerBatch)
                .shards(WAL_SHARDS)
                .segment_bytes(512 * 1024)
                .checkpoint_bytes(2 * 1024 * 1024),
        )
}

fn run_durable_writes(config: &RunConfig, epoch: Instant) -> WorkloadRun {
    let sizes = &config.sizes;
    let values = Corpus::generate(Dataset::Kv2, sizes.value_records);
    let dir = StoreDir::create(&config.scratch, "durable");
    let store = Arc::new(TieredStore::open(durable_config(&dir.0, sizes)).expect("open store"));
    let router = start_router(&store);
    let mut clients: Vec<DurableWriteClient<'_>> = (0..config.clients)
        .map(|c| DurableWriteClient {
            router: &router,
            values: &values,
            rng: Rng::new(config.seed, c as u64),
            lane: c as u64,
            lanes: config.clients as u64,
            written: Vec::new(),
        })
        .collect();
    let (log, counts, samples) = drive_store(config, epoch, &store, &router, &mut clients);
    let reads_in_window = counts.acked_reads;
    let events = store_events(&store);

    // Acked => durable => readable: stop, drop everything without a
    // flush, reopen from disk (the WAL replays what no spill had covered
    // yet), and re-read a sample of the acknowledged writes.
    let acked: Vec<(u64, bool)> = clients
        .iter()
        .flat_map(|c| {
            c.written
                .iter()
                .enumerate()
                .map(|(nth, &live)| (c.ordinal(nth as u64), live))
        })
        .collect();
    drop(clients);
    router.shutdown();
    drop(router);
    drop(store);
    let store = Arc::new(TieredStore::open(durable_config(&dir.0, sizes)).expect("reopen store"));
    let router = start_router(&store);
    let mut rng = Rng::new(config.seed, 0xd0_0d);
    let sample = sizes.durability_sample.min(acked.len());
    let mut unreadable = 0u64;
    for _ in 0..sample {
        let (ordinal, live) = acked[rng.below(acked.len() as u64) as usize];
        let expected = &values.records[value_index(ordinal, 0, values.records.len())];
        let got = router
            .get(tenant_name(tenant_of(ordinal)), &user_key(ordinal))
            .expect("get after reopen");
        if got.as_deref() != live.then_some(expected.as_slice()) {
            unreadable += 1;
        }
    }
    let stored = settled_bytes(&store);
    let live_bytes: u64 = acked
        .iter()
        .filter(|&&(_, live)| live)
        .map(|&(ordinal, _)| {
            KEY_BYTES + values.records[value_index(ordinal, 0, values.records.len())].len() as u64
        })
        .sum();
    router.shutdown();

    // The thresholds are stated for the 24 s window and scale with it.
    let scale = config.window.as_secs_f64() / 24.0;
    let (min_spills, min_compactions) = ((8.0 * scale).ceil() as u64, (3.0 * scale).ceil() as u64);
    let checks = vec![
        Check {
            what: format!(
                "durable-writes: {} spills (>= {min_spills}) and {} compaction jobs (>= {min_compactions}) inside the window",
                counts.tier.spills, counts.tier.compactions
            ),
            ok: counts.tier.spills >= min_spills && counts.tier.compactions >= min_compactions,
        },
        Check {
            what: format!("durable-writes: {reads_in_window} gets or scans issued inside the window"),
            ok: reads_in_window == 0,
        },
        Check {
            what: format!(
                "durable-writes: {unreadable} of {sample} sampled acked writes unreadable after reopen"
            ),
            ok: unreadable == 0 && sample > 0,
        },
    ];
    WorkloadRun {
        log,
        stored_per_user_byte: stored as f64 / live_bytes.max(1) as f64,
        counts,
        samples,
        checks,
        raced_reads: 0,
        stale_reads: 0,
        events,
        sizes: vec![
            ("watermark_bytes".into(), sizes.durable_watermark as f64),
            ("acked_writes".into(), acked.len() as f64),
            ("live_user_bytes".into(), live_bytes as f64),
            ("durability_sample".into(), sample as f64),
        ],
    }
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

const BUSY: u32 = 1;
const DELETED: u32 = 2;

fn version_of(state: u32) -> u32 {
    state >> 2
}

/// How the model rates what a read returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// No write to the key overlapped the read, and it returned the
    /// latest acknowledged value.
    Exact,
    /// A write to the key overlapped the read, and it returned a value
    /// that overlap allows (or nothing).
    Raced,
    /// A write to the key overlapped the read, and it returned a version
    /// acknowledged *before* the latest one. `TierInner::delete` removes
    /// the hot copy before it records the tombstone, so a get in between
    /// falls through to an older cold version. Tolerated and counted, so
    /// the count can go to zero when the engine closes that window.
    Stale,
    /// Anything else: an oracle mismatch.
    No,
}

/// The generator's model of `serve-mixed`: one word per key holding the
/// version of its latest acknowledged write, whether that write was a
/// delete, and whether its owner has another write in flight.
///
/// Every key has one writer (the client its tenant maps to), so the
/// latest acknowledged value is well defined; any client may read it. A
/// read that overlaps a write to the same key is checked against every
/// version the overlap allows instead of one, and counted as raced.
pub struct Oracle {
    states: Vec<AtomicU32>,
}

impl Oracle {
    fn new(keys: u64) -> Oracle {
        // Whole groups of TENANTS keys, so a key's group never leaves the
        // key space when a write moves it to its client's own tenant.
        assert_eq!(keys % TENANTS as u64, 0);
        Oracle {
            states: (0..keys).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    fn load(&self, ordinal: u64) -> u32 {
        self.states[ordinal as usize].load(Ordering::SeqCst)
    }

    fn store(&self, ordinal: u64, state: u32) {
        self.states[ordinal as usize].store(state, Ordering::SeqCst);
    }

    /// Whether `got` is what key `ordinal` may hold, given its state
    /// before and after the read.
    fn admits(
        &self,
        values: &Corpus,
        ordinal: u64,
        before: u32,
        after: u32,
        got: Option<&[u8]>,
    ) -> Admit {
        let value = |version| {
            values.records[value_index(ordinal, version, values.records.len())].as_slice()
        };
        if before == after && before & BUSY == 0 {
            let expected = (before & DELETED == 0).then(|| value(version_of(before)));
            return if got == expected {
                Admit::Exact
            } else {
                Admit::No
            };
        }
        let Some(bytes) = got else {
            return Admit::Raced;
        };
        let overlap = version_of(before)..=version_of(after) + 1;
        if overlap.clone().any(|version| bytes == value(version)) {
            Admit::Raced
        } else if (0..*overlap.start()).any(|version| bytes == value(version)) {
            Admit::Stale
        } else {
            Admit::No
        }
    }

    /// User bytes of every key the model holds live.
    fn live_bytes(&self, values: &Corpus) -> u64 {
        (0..self.states.len() as u64)
            .filter(|&o| self.load(o) & DELETED == 0)
            .map(|o| {
                let version = version_of(self.load(o));
                KEY_BYTES
                    + values.records[value_index(o, version, values.records.len())].len() as u64
            })
            .sum()
    }
}

/// The key nearest to `ordinal` that client `lane` of `lanes` owns: same
/// popularity neighbourhood (its group of [`TENANTS`] keys), tenant moved
/// to one of the client's own. A client owns the tenants whose number is
/// `lane` modulo `lanes`.
fn owned_ordinal(ordinal: u64, lane: u64, lanes: u64) -> u64 {
    let base = ordinal - ordinal % TENANTS as u64;
    let mine = (0..TENANTS as u64)
        .map(|t| (tenant_of(ordinal) as u64 + t) % TENANTS as u64)
        .find(|t| t % lanes == lane)
        .expect("every client owns a tenant");
    base + mine
}

struct MixedClient<'a> {
    router: &'a Router,
    values: &'a Corpus,
    oracle: &'a Oracle,
    zipf: &'a Zipf,
    rng: Rng,
    lane: u64,
    lanes: u64,
    keys: u64,
    raced: u64,
    stale: u64,
    /// Key states read before a scan, reused between scans.
    scan_before: Vec<u32>,
}

impl MixedClient<'_> {
    /// Count a read's rating; whether it passes.
    fn note(&mut self, admit: Admit) -> bool {
        self.raced += (admit == Admit::Raced) as u64;
        self.stale += (admit == Admit::Stale) as u64;
        admit != Admit::No
    }

    fn get(&mut self, ordinal: u64) -> Timed {
        let (tenant, key) = (tenant_name(tenant_of(ordinal)), user_key(ordinal));
        let before = self.oracle.load(ordinal);
        let start = Instant::now();
        let result = self.router.get(tenant, &key);
        let end = Instant::now();
        let after = self.oracle.load(ordinal);
        let outcome = classify(result, |got| {
            let admit = self
                .oracle
                .admits(self.values, ordinal, before, after, got.as_deref());
            self.note(admit)
        });
        Timed {
            kind: OpKind::Read,
            start,
            end,
            outcome,
            user_bytes: 0,
        }
    }

    fn put(&mut self, ordinal: u64) -> Timed {
        let (tenant, key) = (tenant_name(tenant_of(ordinal)), user_key(ordinal));
        let state = self.oracle.load(ordinal);
        let version = version_of(state) + 1;
        let value = &self.values.records[value_index(ordinal, version, self.values.records.len())];
        self.oracle.store(ordinal, state | BUSY);
        let start = Instant::now();
        let result = self.router.put(tenant, &key, value);
        let end = Instant::now();
        let outcome = classify(result, |_| true);
        self.oracle.store(
            ordinal,
            if outcome == Outcome::Verified {
                version << 2
            } else {
                state
            },
        );
        Timed {
            kind: OpKind::Write,
            start,
            end,
            outcome,
            user_bytes: KEY_BYTES + value.len() as u64,
        }
    }

    fn delete(&mut self, ordinal: u64) -> Timed {
        let (tenant, key) = (tenant_name(tenant_of(ordinal)), user_key(ordinal));
        let state = self.oracle.load(ordinal);
        self.oracle.store(ordinal, state | BUSY);
        let start = Instant::now();
        let result = self.router.delete(tenant, &key);
        let end = Instant::now();
        let outcome = classify(result, |existed| existed == (state & DELETED == 0));
        self.oracle.store(
            ordinal,
            if outcome == Outcome::Verified {
                (version_of(state) + 1) << 2 | DELETED
            } else {
                state
            },
        );
        Timed {
            kind: OpKind::Delete,
            start,
            end,
            outcome,
            user_bytes: 0,
        }
    }

    /// Scan [`SCAN_ROWS`] rows of the key's tenant from the key on, and
    /// check them against the model: ascending, inside the tenant, every
    /// value right, and no key the model holds live skipped.
    fn scan(&mut self, ordinal: u64) -> Timed {
        let tenant = tenant_of(ordinal);
        let step = TENANTS as u64;
        // Candidates: the tenant's next keys, with slack for deleted ones.
        let to_end = (self.keys - ordinal).div_ceil(step);
        let candidates = (0..to_end.min(SCAN_ROWS as u64 + 64)).map(|k| ordinal + k * step);
        let reaches_end = to_end <= SCAN_ROWS as u64 + 64;
        let mut states_before = std::mem::take(&mut self.scan_before);
        states_before.clear();
        states_before.extend(candidates.clone().map(|o| self.oracle.load(o)));
        let key = user_key(ordinal);
        let start = Instant::now();
        let result = self.router.scan(tenant_name(tenant), &key, SCAN_ROWS);
        let end = Instant::now();
        let outcome = classify(result, |rows| {
            let mut next_row = 0;
            for (candidate, &before) in candidates.zip(&states_before) {
                if next_row == rows.len() {
                    break;
                }
                let after = self.oracle.load(candidate);
                let (row_key, row_value) = &rows[next_row];
                match ordinal_of(row_key) {
                    Some(o) if o == candidate => {
                        let admit = self.oracle.admits(
                            self.values,
                            candidate,
                            before,
                            after,
                            Some(row_value),
                        );
                        if !self.note(admit) {
                            return false;
                        }
                        next_row += 1;
                    }
                    // The scan skipped this candidate: fine only if the
                    // model does not hold it live throughout.
                    Some(o) if o > candidate => {
                        let stable_live = before == after && before & (BUSY | DELETED) == 0;
                        if stable_live {
                            return false;
                        }
                    }
                    // Out of order, duplicated, or not a key of ours.
                    _ => return false,
                }
            }
            next_row == rows.len() && (rows.len() == SCAN_ROWS || reaches_end)
        });
        self.scan_before = states_before;
        Timed {
            kind: OpKind::Scan,
            start,
            end,
            outcome,
            user_bytes: 0,
        }
    }
}

/// The next operation of a `serve-mixed` client: a zipfian key and a
/// roll of the 80 / 15 / 4 / 1 mix.
fn mixed_op(rng: &mut Rng, zipf: &Zipf) -> (u64, OpKind) {
    let ordinal = zipf.ordinal(rng);
    let kind = match rng.below(100) {
        0..=79 => OpKind::Read,
        80..=94 => OpKind::Write,
        95..=98 => OpKind::Scan,
        _ => OpKind::Delete,
    };
    (ordinal, kind)
}

impl Client for MixedClient<'_> {
    fn step(&mut self) -> Timed {
        let (ordinal, kind) = mixed_op(&mut self.rng, self.zipf);
        match kind {
            OpKind::Read => self.get(ordinal),
            OpKind::Write => self.put(owned_ordinal(ordinal, self.lane, self.lanes)),
            OpKind::Scan => self.scan(ordinal),
            OpKind::Delete => self.delete(owned_ordinal(ordinal, self.lane, self.lanes)),
        }
    }
}

fn run_serve_mixed(config: &RunConfig, epoch: Instant) -> WorkloadRun {
    let sizes = &config.sizes;
    let values = Corpus::generate(Dataset::Kv2, sizes.value_records);
    let dir = StoreDir::create(&config.scratch, "mixed");
    let store = Arc::new(
        TieredStore::open(
            TierConfig::new(&dir.0)
                .with_watermark(sizes.mixed_watermark)
                .with_cache_capacity(sizes.mixed_cache_bytes)
                .with_segment_config(bench_segment_config())
                .with_background_compaction(true)
                .with_wal(
                    WalOptions::with_durability(Durability::Periodic(Duration::from_millis(10)))
                        .shards(WAL_SHARDS),
                ),
        )
        .expect("open store"),
    );
    // The preload crosses the watermark, so about half of it spills and
    // the maintenance thread compacts behind it; let that settle, then
    // touch every key once so the cold half is decoded and cached.
    preload(&store, &values, sizes.mixed_keys);
    drain_compactions(&store);
    for ordinal in 0..sizes.mixed_keys {
        store.get(&stored_key(ordinal)).expect("pre-warm");
    }
    let router = start_router(&store);
    let cold_share = store.stats().cold_records as f64 / sizes.mixed_keys as f64;
    let oracle = Oracle::new(sizes.mixed_keys);
    let zipf = Zipf::new(sizes.mixed_keys, Zipf::THETA);
    let mut clients: Vec<MixedClient<'_>> = (0..config.clients)
        .map(|c| MixedClient {
            router: &router,
            values: &values,
            oracle: &oracle,
            zipf: &zipf,
            rng: Rng::new(config.seed, c as u64),
            lane: c as u64,
            lanes: config.clients as u64,
            keys: sizes.mixed_keys,
            raced: 0,
            stale: 0,
            scan_before: Vec::with_capacity(SCAN_ROWS + 64),
        })
        .collect();
    let (log, counts, samples) = drive_store(config, epoch, &store, &router, &mut clients);
    let raced_reads = clients.iter().map(|c| c.raced).sum();
    let stale_reads = clients.iter().map(|c| c.stale).sum();
    drop(clients);
    let events = store_events(&store);
    let cold_gets = counts.tier.cold_gets.max(1);
    let hit_rate = counts.tier.cold_cache_hits as f64 / cold_gets as f64;
    let checks = vec![Check {
        what: format!(
            "serve-mixed: {hit_rate:.4} of {} cold gets served from the block cache (>= 0.95)",
            counts.tier.cold_gets
        ),
        ok: hit_rate >= 0.95 && counts.tier.cold_gets > 0,
    }];
    router.shutdown();
    let stored = settled_bytes(&store);
    let live_bytes = oracle.live_bytes(&values);
    WorkloadRun {
        log,
        stored_per_user_byte: stored as f64 / live_bytes.max(1) as f64,
        counts,
        samples,
        checks,
        raced_reads,
        stale_reads,
        events,
        sizes: vec![
            ("keys".into(), sizes.mixed_keys as f64),
            ("watermark_bytes".into(), sizes.mixed_watermark as f64),
            ("cache_bytes".into(), sizes.mixed_cache_bytes as f64),
            ("cold_share_after_setup".into(), cold_share),
            ("live_user_bytes".into(), live_bytes as f64),
            ("zipf_theta".into(), Zipf::THETA),
        ],
    }
}

/// Run one workload: set up, warm up, measure, check.
pub fn run(config: &RunConfig, epoch: Instant) -> WorkloadRun {
    match config.workload.as_str() {
        "codec-records" => run_codec_records(config, epoch),
        "cold-point-reads" => run_cold_point_reads(config, epoch),
        "durable-writes" => run_durable_writes(config, epoch),
        "serve-mixed" => run_serve_mixed(config, epoch),
        other => panic!("unknown workload {other}"),
    }
}

#[cfg(test)]
/// FNV-1a over the first `ops` operations client `lane` of `workload`
/// issues with `seed` when every write is acknowledged: which call, on
/// which key or record. Drawn from the same generators the clients use;
/// the self-tests pin with it that a seed fixes the stream.
fn op_stream_hash(workload: &str, seed: u64, lane: u64, ops: usize) -> u64 {
    let mut rng = Rng::new(seed, lane);
    let zipf = Zipf::new(10_000, Zipf::THETA);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut written = 0;
    for n in 0..ops as u64 {
        match workload {
            "codec-records" => {
                let (write, corpus, index) = codec_op(&mut rng, n, 4_000);
                mix(write as u64);
                mix(corpus as u64);
                mix(index as u64);
            }
            "cold-point-reads" => mix(zipf.ordinal(&mut rng)),
            "durable-writes" => match durable_op(&mut rng, written) {
                Some(nth) => mix(nth << 1 | 1),
                None => {
                    mix(scrambled_ordinal(written * 2 + lane) << 1);
                    written += 1;
                }
            },
            "serve-mixed" => {
                let (ordinal, kind) = mixed_op(&mut rng, &zipf);
                mix(ordinal);
                mix(kind as u64);
            }
            other => panic!("unknown workload {other}"),
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_op_stream_per_client() {
        for workload in WORKLOADS {
            for lane in 0..2 {
                assert_eq!(
                    op_stream_hash(workload, 7, lane, 5_000),
                    op_stream_hash(workload, 7, lane, 5_000),
                    "{workload} lane {lane}"
                );
            }
            assert_ne!(
                op_stream_hash(workload, 7, 0, 5_000),
                op_stream_hash(workload, 8, 0, 5_000),
                "{workload}: another seed, another stream"
            );
            assert_ne!(
                op_stream_hash(workload, 7, 0, 5_000),
                op_stream_hash(workload, 7, 1, 5_000),
                "{workload}: clients do not share a stream"
            );
        }
    }

    #[test]
    fn scrambled_ordinals_never_repeat() {
        let mut seen = std::collections::HashSet::new();
        assert!((0..200_000u64).all(|n| seen.insert(scrambled_ordinal(n))));
        assert!(seen.iter().all(|&o| o < 100_000_000), "fits the key format");
    }

    #[test]
    fn oracle_admits_exactly_the_versions_an_overlap_allows() {
        let values = Corpus::generate(Dataset::Kv2, 500);
        let oracle = Oracle::new(8);
        let value = |version| values.records[value_index(3, version, 500)].as_slice();
        // Quiet key at version 0: only that value.
        assert_eq!(
            oracle.admits(&values, 3, 0, 0, Some(value(0))),
            Admit::Exact
        );
        assert_eq!(oracle.admits(&values, 3, 0, 0, Some(value(1))), Admit::No);
        assert_eq!(oracle.admits(&values, 3, 0, 0, None), Admit::No);
        // Deleted at version 2: only absent.
        let gone = 2 << 2 | DELETED;
        assert_eq!(oracle.admits(&values, 3, gone, gone, None), Admit::Exact);
        assert_eq!(
            oracle.admits(&values, 3, gone, gone, Some(value(2))),
            Admit::No
        );
        // A write in flight from version 1: old, new or (a delete) nothing;
        // an earlier version is the engine's known stale read; a later
        // one is a mismatch.
        let busy = 1 << 2 | BUSY;
        assert_eq!(
            oracle.admits(&values, 3, busy, busy, Some(value(1))),
            Admit::Raced
        );
        assert_eq!(
            oracle.admits(&values, 3, busy, busy, Some(value(2))),
            Admit::Raced
        );
        assert_eq!(oracle.admits(&values, 3, busy, busy, None), Admit::Raced);
        assert_eq!(
            oracle.admits(&values, 3, busy, busy, Some(value(0))),
            Admit::Stale
        );
        assert_eq!(
            oracle.admits(&values, 3, busy, busy, Some(value(5))),
            Admit::No
        );
    }

    #[test]
    fn every_client_owns_the_key_it_writes() {
        for lanes in 1..=TENANTS as u64 {
            for lane in 0..lanes {
                for ordinal in 0..1_000 {
                    let owned = owned_ordinal(ordinal, lane, lanes);
                    assert!(owned < 1_000);
                    assert_eq!(tenant_of(owned) as u64 % lanes, lane);
                    assert_eq!(owned / TENANTS as u64, ordinal / TENANTS as u64);
                }
            }
        }
    }
}
