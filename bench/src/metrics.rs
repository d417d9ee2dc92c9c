//! The metric catalogue: every name the benchmark emits, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a self-test
//! compares the two in both directions); the regression bounds live only
//! there.

use pbc_json::JsonValue;

use crate::gen::CODEC_DATASETS;

/// One metric's definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: String,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

/// The end-to-end metrics, reported by an untraced run of any workload.
///
/// The benchmark contract wants every end-to-end metric on every workload
/// and never zero, so latency is reported over all operations of the
/// window; the per-kind split (`run.read_p50_us`, ...) and the failure
/// share, which is zero by sizing, are per-layer metrics of the traced
/// run. So is the tail (`run.op_p99_us`, `run.read_p99_us`,
/// `run.write_p99_us`): on `durable-writes` p99 lies between two latency
/// modes and does not repeat (see the README), and one workload cannot opt
/// out of an end-to-end metric.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", false),
        def("throughput_ops_s", "1/s", true),
        def("op_p50_us", "us", false),
        def("stored_bytes_per_user_byte", "ratio", false),
        def("peak_rss_mib", "MiB", false),
    ]
}

/// The per-layer metrics, reported by a traced run of any workload.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![def("datagen.records_per_s", "1/s", true)];
    for dataset in CODEC_DATASETS {
        let d = dataset.name();
        defs.push(def(format!("core.train_s.{d}"), "s", false));
        defs.push(def(format!("core.compress_mb_s.{d}"), "MB/s", true));
        defs.push(def(format!("core.decompress_mb_s.{d}"), "MB/s", true));
        defs.push(def(format!("core.ratio.{d}"), "ratio", false));
        defs.push(def(format!("core.outlier_share.{d}"), "share", false));
    }
    let fixed: &[(&str, &'static str, bool)] = &[
        ("codecs.fsst_compress_mb_s", "MB/s", true),
        ("codecs.fsst_decompress_mb_s", "MB/s", true),
        ("codecs.fsst_ratio", "ratio", false),
        ("codecs.zstd_dict_decompress_mb_s", "MB/s", true),
        ("codecs.zstd_dict_ratio", "ratio", false),
        ("store.set_us_p50", "us", false),
        ("store.get_us_p50", "us", false),
        ("store.mem_bytes_per_user_byte", "ratio", false),
        ("archive.build_codec_s", "s", false),
        ("archive.write_mb_s", "MB/s", true),
        ("archive.encode_block_us_p50", "us", false),
        ("archive.file_bytes_per_user_byte", "ratio", false),
        ("archive.open_us", "us", false),
        ("archive.fetch_block_us_p50.pread", "us", false),
        ("archive.fetch_block_us_p50.mmap", "us", false),
        ("archive.decode_block_us_p50", "us", false),
        ("archive.get_us_p50", "us", false),
        ("archive.scan_rows_per_s", "1/s", true),
        ("tier.get_hot_us_p50", "us", false),
        ("tier.get_cached_us_p50", "us", false),
        ("tier.get_miss_us_p50", "us", false),
        ("tier.set_us_p50.nowal", "us", false),
        ("tier.spill_s", "s", false),
        ("tier.spill_mb_s", "MB/s", true),
        ("tier.compact_s", "s", false),
        ("tier.compact_mb_s", "MB/s", true),
        ("tier.scan_rows_per_s", "1/s", true),
        ("tier.reopen_s", "s", false),
        ("tier.hot_hit_share", "share", true),
        ("tier.cache.hit_rate", "share", true),
        ("tier.cache.evictions", "count", false),
        ("tier.cache.invalidations", "count", false),
        ("tier.segments_per_cold_get", "ratio", false),
        ("tier.spills", "count", false),
        ("tier.compactions", "count", false),
        ("tier.segments_retired", "count", false),
        ("tier.l0_segments_max", "count", false),
        ("tier.bytes_written_per_user_byte", "ratio", false),
        ("tier.scan_bytes_decoded_per_row", "B", false),
        ("tier.background_errors", "count", false),
        ("wal.append_us_p50.none", "us", false),
        ("wal.append_us_p50.perbatch", "us", false),
        ("wal.append_us_p50.perbatch.nclients", "us", false),
        ("wal.fsync_us_p50", "us", false),
        ("wal.checkpoint_us", "us", false),
        ("wal.bytes_per_user_byte", "ratio", false),
        ("wal.appends_per_fsync", "ratio", true),
        ("wal.fsyncs", "count", false),
        ("wal.bytes_max", "B", false),
        ("serve.put_overhead_us_p50", "us", false),
        ("serve.get_overhead_us_p50", "us", false),
        ("serve.put_us_p50", "us", false),
        ("serve.get_us_p50", "us", false),
        ("serve.scan_us_p50", "us", false),
        ("serve.delete_us_p50", "us", false),
        ("serve.put_unattributed_us", "us", false),
        ("serve.get_unattributed_us", "us", false),
        ("serve.mean_batch", "ratio", true),
        ("serve.queue_depth_max", "count", false),
        ("serve.busy_share", "share", false),
        ("serve.quota_reject_share", "share", false),
        ("serve.client_busy_share", "share", false),
        ("obs.metrics_overhead_share", "share", false),
        ("bench.gen_overhead_share", "share", false),
        ("bench.trace_overhead_share", "share", false),
        ("bench.ladder_clamped", "count", false),
        ("run.throughput_ops_s", "1/s", true),
        ("run.op_p99_us", "us", false),
        ("run.read_p50_us", "us", false),
        ("run.read_p99_us", "us", false),
        ("run.write_p50_us", "us", false),
        ("run.write_p99_us", "us", false),
        ("run.scan_p50_us", "us", false),
        ("run.failed_ops_share", "share", false),
    ];
    defs.extend(
        fixed
            .iter()
            .map(|&(name, unit, better)| def(name, unit, better)),
    );
    defs
}

/// Values collected during one run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct MetricSet(Vec<(String, f64)>);

impl MetricSet {
    /// Set `name` to `value` (the last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Fold `other` in; its values win.
    pub fn extend(&mut self, other: MetricSet) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    /// The values for exactly `defs`, in their order. Errors name every
    /// metric that is missing, not finite, or not in the catalogue — the
    /// emitted list and the catalogue can then never drift apart.
    pub fn ordered(&self, defs: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        let mut problems = Vec::new();
        let mut out = Vec::with_capacity(defs.len());
        for d in defs {
            match self.get(&d.name) {
                Some(v) if v.is_finite() => out.push((d.clone(), v)),
                Some(v) => problems.push(format!("{} is {v}", d.name)),
                None => problems.push(format!("{} was never measured", d.name)),
            }
        }
        for (name, _) in &self.0 {
            if !defs.iter().any(|d| d.name == *name) {
                problems.push(format!("{name} is not in the catalogue"));
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(problems.join("; "))
        }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the result line.
pub fn metrics_json(values: &[(MetricDef, f64)]) -> JsonValue {
    JsonValue::Object(
        values
            .iter()
            .map(|(d, v)| {
                let entry = JsonValue::Object(vec![
                    ("value".into(), JsonValue::from(*v)),
                    ("unit".into(), JsonValue::from(d.unit)),
                ]);
                (d.name.clone(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        for d in &all {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
    }

    #[test]
    fn ordered_reports_missing_extra_and_non_finite_values() {
        let defs = vec![def("a", "s", false), def("b", "s", false)];
        let mut set = MetricSet::default();
        set.set("a", 1.0);
        set.set("c", 2.0);
        let err = set.ordered(&defs).unwrap_err();
        assert!(err.contains("b was never measured") && err.contains("c is not in"));
        let mut set = MetricSet::default();
        set.set("a", 1.0);
        set.set("b", f64::NAN);
        assert!(set.ordered(&defs).unwrap_err().contains("b is NaN"));
        set.set("b", 3.5);
        let ok = set.ordered(&defs).unwrap();
        assert_eq!(ok[1].1, 3.5);
        assert_eq!(
            pbc_json::to_string(&metrics_json(&ok)),
            r#"{"a":{"value":1.0,"unit":"s"},"b":{"value":3.5,"unit":"s"}}"#
        );
    }
}
