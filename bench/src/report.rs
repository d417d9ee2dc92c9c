//! One run, start to finish: run the workload (and, when tracing, the
//! probe ladder), turn what it measured into the catalogue's metrics, and
//! write the trace file.

use std::path::Path;
use std::time::Instant;

use pbc_json::JsonValue;

use crate::engine::OpKind;
use crate::ladder::run_ladder;
use crate::metrics::{end_to_end, per_layer, MetricDef, MetricSet};
use crate::stats::{median, relative_spread};
use crate::workloads::{self, RunConfig, WorkloadRun, SCAN_ROWS};

/// Spans kept per client in a traced run.
pub const SPAN_CAP: usize = 20_000;

const ALL_KINDS: [OpKind; 4] = [OpKind::Read, OpKind::Write, OpKind::Scan, OpKind::Delete];

/// The outcome of one run, ready to print.
#[derive(Debug)]
pub struct RunReport {
    /// No oracle mismatch, no failed check.
    pub correct: bool,
    /// Operations issued, the warm-up's included.
    pub attempted: u64,
    /// Of those: errors, `Busy` refusals and oracle mismatches.
    pub failed: u64,
    /// The catalogue's metrics, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Everything else worth keeping: sample counts, slices, checks.
    pub detail: JsonValue,
}

/// Build a JSON object from `(key, value)` pairs.
pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(value: f64) -> JsonValue {
    JsonValue::from(value)
}

fn int(value: u64) -> JsonValue {
    JsonValue::from(value as i64)
}

/// How far the median of `values` can be trusted: their own relative
/// spread over the square root of their count. `compare` calls a
/// difference smaller than this unresolved when it is wider than the bound.
fn spread_of_median(values: &[f64]) -> f64 {
    relative_spread(values) / (values.len().max(1) as f64).sqrt()
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn end_to_end_metrics(run: &WorkloadRun) -> MetricSet {
    // Rate and latency are each the median of the six slices' values: a
    // slice the machine disturbed moves neither.
    let mut set = MetricSet::default();
    set.set("setup_s", run.log.setup_s);
    set.set("throughput_ops_s", run.log.throughput());
    set.set(
        "op_p50_us",
        median(&run.log.slice_quantiles_us(&ALL_KINDS, 0.50)),
    );
    set.set("stored_bytes_per_user_byte", run.stored_per_user_byte);
    set.set("peak_rss_mib", peak_rss_mib());
    set
}

/// The per-layer metrics that come from the real concurrent window:
/// counter deltas, sampled gauges, and the per-kind latency split.
fn window_metrics(run: &WorkloadRun) -> MetricSet {
    let (log, counts, samples) = (&run.log, &run.counts, &run.samples);
    let tier = &counts.tier;
    let mut set = MetricSet::default();
    let gets = tier.hot_hits
        + tier.tombstone_negatives
        + tier.staging_hits
        + tier.cold_gets
        + tier.cold_index_only;
    set.set("tier.hot_hit_share", ratio(tier.hot_hits, gets));
    set.set(
        "tier.cache.hit_rate",
        ratio(tier.cold_cache_hits, tier.cold_gets),
    );
    set.set("tier.cache.evictions", counts.cache_evictions as f64);
    set.set(
        "tier.cache.invalidations",
        counts.cache_invalidations as f64,
    );
    set.set(
        "tier.segments_per_cold_get",
        ratio(
            tier.cold_segments_scanned,
            tier.cold_gets + tier.cold_index_only,
        ),
    );
    set.set("tier.spills", tier.spills as f64);
    set.set("tier.compactions", tier.compactions as f64);
    set.set("tier.segments_retired", tier.segments_retired as f64);
    set.set("tier.l0_segments_max", samples.l0_segments_max as f64);
    let user_bytes = log.total(|c| c.user_bytes_written);
    set.set(
        "tier.bytes_written_per_user_byte",
        ratio(
            samples.segment_bytes_written + samples.wal_bytes_appended,
            user_bytes,
        ),
    );
    let scans = log.latency(&[OpKind::Scan]).count();
    set.set(
        "tier.scan_bytes_decoded_per_row",
        ratio(tier.scan_bytes_decoded, scans * SCAN_ROWS as u64),
    );
    set.set("tier.background_errors", tier.background_errors as f64);
    set.set(
        "wal.bytes_per_user_byte",
        ratio(samples.wal_bytes_appended, user_bytes),
    );
    set.set(
        "wal.appends_per_fsync",
        ratio(counts.wal_appends, counts.wal_fsyncs),
    );
    set.set("wal.fsyncs", counts.wal_fsyncs as f64);
    set.set("wal.bytes_max", samples.wal_bytes_max as f64);
    set.set("serve.mean_batch", counts.mean_batch);
    set.set("serve.queue_depth_max", samples.queue_depth_max as f64);
    set.set(
        "serve.busy_share",
        ratio(
            counts.admission_rejections,
            counts.acked_writes + counts.admission_rejections,
        ),
    );
    set.set(
        "serve.quota_reject_share",
        ratio(counts.quota_rejections, log.total(|c| c.measured)),
    );
    let attempted = log.total(|c| c.attempted);
    set.set(
        "serve.client_busy_share",
        ratio(log.total(|c| c.busy), attempted),
    );
    set.set("bench.gen_overhead_share", log.gen_overhead_share());
    set.set("run.throughput_ops_s", log.throughput());
    set.set("run.op_p99_us", log.latency(&ALL_KINDS).quantile_us(0.99));
    let (reads, writes) = (log.latency(&[OpKind::Read]), log.latency(&[OpKind::Write]));
    set.set("run.read_p50_us", reads.quantile_us(0.50));
    set.set("run.read_p99_us", reads.quantile_us(0.99));
    set.set("run.write_p50_us", writes.quantile_us(0.50));
    set.set("run.write_p99_us", writes.quantile_us(0.99));
    set.set(
        "run.scan_p50_us",
        log.latency(&[OpKind::Scan]).quantile_us(0.50),
    );
    set.set(
        "run.failed_ops_share",
        ratio(log.total(|c| c.failed()), attempted),
    );
    set
}

fn detail_json(config: &RunConfig, run: &WorkloadRun, traced: bool, notes: &[String]) -> JsonValue {
    let log = &run.log;
    let samples_of = |kind: OpKind| int(log.latency(&[kind]).count());
    let per_slice = |values: &[f64]| {
        obj(vec![
            (
                "values",
                JsonValue::Array(values.iter().map(|&v| num(v)).collect()),
            ),
            ("spread", num(spread_of_median(values))),
        ])
    };
    obj(vec![
        ("workload", JsonValue::from(config.workload.as_str())),
        ("seed", int(config.seed)),
        ("clients", int(config.clients as u64)),
        ("traced", JsonValue::from(traced)),
        ("window_s", num(config.window.as_secs_f64())),
        ("warmup_s", num(config.sizes.warmup.as_secs_f64())),
        ("setup_s", num(log.setup_s)),
        (
            "slices",
            obj(vec![
                ("throughput_ops_s", per_slice(&log.slice_rates())),
                (
                    "op_p50_us",
                    per_slice(&log.slice_quantiles_us(&ALL_KINDS, 0.50)),
                ),
                (
                    "op_p99_us",
                    per_slice(&log.slice_quantiles_us(&ALL_KINDS, 0.99)),
                ),
            ]),
        ),
        (
            "samples",
            obj(vec![
                ("read", samples_of(OpKind::Read)),
                ("write", samples_of(OpKind::Write)),
                ("scan", samples_of(OpKind::Scan)),
                ("delete", samples_of(OpKind::Delete)),
            ]),
        ),
        ("attempted", int(log.total(|c| c.attempted))),
        ("measured", int(log.total(|c| c.measured))),
        ("busy", int(log.total(|c| c.busy))),
        ("errors", int(log.total(|c| c.errors))),
        ("oracle_mismatches", int(log.total(|c| c.mismatches))),
        ("raced_reads", int(run.raced_reads)),
        ("stale_reads", int(run.stale_reads)),
        (
            "checks",
            JsonValue::Array(
                run.checks
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("what", JsonValue::from(c.what.as_str())),
                            ("ok", JsonValue::from(c.ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sizes",
            JsonValue::Object(
                run.sizes
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v)))
                    .collect(),
            ),
        ),
        (
            "notes",
            JsonValue::Array(notes.iter().map(|n| JsonValue::from(n.as_str())).collect()),
        ),
    ])
}

/// Spans (name, start, end, parent, request id), the sampled series and
/// the store's own spill / compaction events, as one JSON file.
fn write_trace(path: &Path, config: &RunConfig, run: &WorkloadRun) -> std::io::Result<()> {
    let codec_only = config.workload == "codec-records";
    let mut spans = Vec::new();
    for (client, client_log) in run.log.clients.iter().enumerate() {
        // One root span per client; every call it made is a child.
        let root = client as u64 + 1;
        let (first, last) = (
            client_log.spans.first().map_or(0, |s| s.start_ns),
            client_log.spans.last().map_or(0, |s| s.end_ns),
        );
        spans.push(obj(vec![
            ("name", JsonValue::from(format!("client-{client}").as_str())),
            ("id", int(root)),
            ("parent", int(0)),
            ("start_ns", int(first)),
            ("end_ns", int(last)),
        ]));
        for span in &client_log.spans {
            spans.push(obj(vec![
                ("name", JsonValue::from(span.kind.span_name(codec_only))),
                ("parent", int(root)),
                ("request", int(root << 40 | span.seq)),
                ("start_ns", int(span.start_ns)),
                ("end_ns", int(span.end_ns)),
            ]));
        }
    }
    let series = run
        .samples
        .series
        .iter()
        .map(|&(at, depth, l0, hot, wal)| {
            JsonValue::Array(vec![int(at), int(depth), int(l0), int(hot), int(wal)])
        })
        .collect();
    let doc = obj(vec![
        ("workload", JsonValue::from(config.workload.as_str())),
        ("seed", int(config.seed)),
        ("spans_kept_per_client", int(config.span_cap as u64)),
        ("spans", JsonValue::Array(spans)),
        (
            "series_columns",
            JsonValue::from("ns_since_epoch, queue_depth, l0_segments, hot_bytes, wal_bytes"),
        ),
        ("series", JsonValue::Array(series)),
        (
            "store_events",
            JsonValue::Array(
                run.events
                    .iter()
                    .map(|e| JsonValue::from(e.as_str()))
                    .collect(),
            ),
        ),
    ]);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, pbc_json::to_string(&doc))
}

/// Run `config`'s workload once. A traced run also climbs the probe
/// ladder and writes `out_dir/trace-<workload>.json`.
pub fn execute(config: &RunConfig, traced: bool, out_dir: &Path) -> Result<RunReport, String> {
    let epoch = Instant::now();
    let mut notes = Vec::new();
    let run = workloads::run(config, epoch);
    let (defs, set) = if traced {
        let path = out_dir.join(format!("trace-{}.json", config.workload));
        write_trace(&path, config, &run).map_err(|e| format!("write {path:?}: {e}"))?;
        notes.push(format!("trace written to {}", path.display()));
        let ladder = run_ladder(&config.scratch, &config.sizes, config.seed, config.clients);
        notes.extend(ladder.notes);
        notes.extend(ladder.clamped.iter().map(|c| format!("clamped: {c}")));
        let mut set = ladder.metrics;
        set.extend(window_metrics(&run));
        (per_layer(), set)
    } else {
        (end_to_end(), end_to_end_metrics(&run))
    };
    let metrics = set.ordered(&defs)?;
    let log = &run.log;
    let attempted = log.total(|c| c.attempted);
    let correct =
        attempted > 0 && log.total(|c| c.mismatches) == 0 && run.checks.iter().all(|c| c.ok);
    Ok(RunReport {
        correct,
        attempted,
        failed: log.total(|c| c.failed()),
        detail: detail_json(config, &run, traced, &notes),
        metrics,
    })
}
