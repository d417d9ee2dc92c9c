//! Single-instance SET/GET workload driver (Table 8).
//!
//! The paper measures "the throughput of both SET and GET commands ... for
//! each single-threaded instance". The driver here loads a record corpus
//! into a [`TierStore`] (measuring SET throughput), then reads keys back in
//! a pseudo-random order (measuring GET throughput), and reports the memory
//! footprint relative to uncompressed storage. A read that fails to
//! decode, misses, or returns the wrong bytes fails the run.
//!
//! Called by `repro table8` (`run_workload` per workload × codec).

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::engine::{StoreError, ValueCodec};
use crate::store::TierStore;

/// Parameters of a workload run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Name shown in reports ("Workload A", "Workload B", ...).
    pub name: String,
    /// Number of GET operations to issue (keys are drawn uniformly from the
    /// loaded key space, with wrap-around if larger than the corpus).
    pub get_ops: usize,
    /// Seed for the access order.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A spec issuing one GET per record.
    pub fn new(name: impl Into<String>, get_ops: usize, seed: u64) -> Self {
        WorkloadSpec {
            name: name.into(),
            get_ops,
            seed,
        }
    }
}

/// Result of one workload run under one value codec.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Codec name ("Uncompressed", "Zstd(dict)", "PBC_F", ...).
    pub codec: &'static str,
    /// Memory usage relative to uncompressed (1.0 = 100%).
    pub memory_ratio: f64,
    /// SET operations per second.
    pub set_qps: f64,
    /// GET operations per second.
    pub get_qps: f64,
    /// Number of records loaded.
    pub records: usize,
}

/// Why a workload run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// GETs were asked of an empty corpus: there is no key to read.
    EmptyCorpus {
        /// The GETs asked for.
        get_ops: usize,
    },
    /// A GET failed to decode its value.
    Store(StoreError),
    /// A GET found nothing under a key the load stored.
    Miss {
        /// Index of the record whose key missed.
        record: usize,
    },
    /// The GETs returned a different number of bytes than the load stored.
    WrongBytes {
        /// Value bytes the GETs should have returned.
        expected: usize,
        /// Value bytes they did return.
        read: usize,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::EmptyCorpus { get_ops } => {
                write!(f, "{get_ops} GETs asked of an empty corpus")
            }
            WorkloadError::Store(e) => write!(f, "GET failed: {e}"),
            WorkloadError::Miss { record } => write!(f, "GET of record {record} missed"),
            WorkloadError::WrongBytes { expected, read } => {
                write!(f, "GETs read {read} value bytes, {expected} were stored")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<StoreError> for WorkloadError {
    fn from(e: StoreError) -> Self {
        WorkloadError::Store(e)
    }
}

/// Run one workload: load all records, then issue GETs, timing both phases.
pub fn run_workload(
    spec: &WorkloadSpec,
    codec: ValueCodec,
    records: &[Vec<u8>],
) -> Result<WorkloadReport, WorkloadError> {
    if records.is_empty() && spec.get_ops > 0 {
        return Err(WorkloadError::EmptyCorpus {
            get_ops: spec.get_ops,
        });
    }
    let store = TierStore::new(codec);
    let keys: Vec<Vec<u8>> = (0..records.len())
        .map(|i| format!("{}:{:010}", spec.name, i).into_bytes())
        .collect();

    let set_start = Instant::now();
    for (key, value) in keys.iter().zip(records.iter()) {
        store.set(key, value);
    }
    let set_elapsed = set_start.elapsed().as_secs_f64();

    // Pseudo-random GET order over the key space.
    let mut order: Vec<usize> = (0..records.len()).collect();
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    order.shuffle(&mut rng);
    let get_start = Instant::now();
    let mut checksum = 0usize;
    for op in 0..spec.get_ops {
        let idx = order[op % order.len()];
        let Some(value) = store.get(&keys[idx])? else {
            return Err(WorkloadError::Miss { record: idx });
        };
        checksum = checksum.wrapping_add(value.len());
    }
    let get_elapsed = get_start.elapsed().as_secs_f64();
    // The checksum also keeps the reads from being optimised away.
    let expected = (0..spec.get_ops)
        .map(|op| records[order[op % order.len()]].len())
        .fold(0usize, usize::wrapping_add);
    if checksum != expected {
        return Err(WorkloadError::WrongBytes {
            expected,
            read: checksum,
        });
    }

    Ok(WorkloadReport {
        workload: spec.name.clone(),
        codec: store.codec().name(),
        memory_ratio: store.memory_usage_ratio(),
        set_qps: if set_elapsed > 0.0 {
            records.len() as f64 / set_elapsed
        } else {
            f64::INFINITY
        },
        get_qps: if get_elapsed > 0.0 {
            spec.get_ops as f64 / get_elapsed
        } else {
            f64::INFINITY
        },
        records: records.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_core::PbcConfig;

    fn corpus(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "cache:user:{:08}:profile={{\"plan\":\"pro\",\"score\":{},\"region\":\"ap-{}\"}}",
                    (i * 12_345_701) % 100_000_000,
                    (i * 37 + 5) % 1000,
                    i % 4
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn workload_reports_throughput_and_memory() {
        let records = corpus(500);
        let spec = WorkloadSpec::new("Workload T", 500, 42);
        let report = run_workload(&spec, ValueCodec::None, &records).unwrap();
        assert_eq!(report.records, 500);
        assert!(report.set_qps > 0.0);
        assert!(report.get_qps > 0.0);
        assert!((report.memory_ratio - 1.0).abs() < 1e-9);
        assert_eq!(report.codec, "Uncompressed");
    }

    #[test]
    fn pbc_workload_reduces_memory_and_still_serves_reads() {
        let records = corpus(800);
        let sample: Vec<&[u8]> = records[..128].iter().map(|r| r.as_slice()).collect();
        let codec = ValueCodec::train_pbc_f(&sample, &PbcConfig::small());
        let spec = WorkloadSpec::new("Workload A", 800, 7);
        let report = run_workload(&spec, codec, &records).unwrap();
        assert!(
            report.memory_ratio < 0.8,
            "memory ratio {:.3}",
            report.memory_ratio
        );
        assert_eq!(report.codec, "PBC_F");
        assert!(report.get_qps > 0.0);
    }

    #[test]
    fn get_ops_can_exceed_corpus_size() {
        let records = corpus(50);
        let spec = WorkloadSpec::new("Wrap", 200, 3);
        let report = run_workload(&spec, ValueCodec::None, &records).unwrap();
        assert!(report.get_qps > 0.0);
    }

    #[test]
    fn gets_over_an_empty_corpus_are_a_typed_error() {
        let spec = WorkloadSpec::new("Empty", 10, 1);
        assert_eq!(
            run_workload(&spec, ValueCodec::None, &[]).unwrap_err(),
            WorkloadError::EmptyCorpus { get_ops: 10 }
        );
        let report = run_workload(&WorkloadSpec::new("Empty", 0, 1), ValueCodec::None, &[]);
        assert_eq!(report.unwrap().records, 0, "no GETs, nothing to read");
    }
}
