//! TierBase-style key-value caching scenario (the paper's Section 7.5 case
//! study): compare memory usage and SET/GET throughput of an in-memory
//! store under no compression, dictionary-trained Zstd, and PBC_F.
//!
//! Run with: `cargo run --release --example kv_cache`

use std::sync::Arc;

use pbc::archive::{RecordCodec, ZstdDict};
use pbc::core::{PbcCompressor, PbcConfig};
use pbc::datagen::Dataset;
use pbc::store::{workload::run_workload, WorkloadSpec};

fn main() {
    // A production-like key-value workload: serialized order objects (KV2).
    let records = Dataset::Kv2.generate(6_000, 7);
    let sample: Vec<&[u8]> = records
        .iter()
        .step_by(25)
        .take(240)
        .map(|r| r.as_slice())
        .collect();

    let pbc_f = PbcCompressor::train_fsst(&sample, &PbcConfig::default());
    let codecs = [
        ("Uncompressed", RecordCodec::Raw),
        (
            "Zstd(dict)",
            RecordCodec::ZstdDict(ZstdDict::train(&sample, 1)),
        ),
        ("PBC_F", RecordCodec::Pbc(Arc::new(pbc_f))),
    ];

    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "codec", "memory %", "SET ops/s", "GET ops/s"
    );
    for (label, codec) in codecs {
        let spec = WorkloadSpec::new("cache-demo", records.len(), 99);
        let report = run_workload(&spec, codec, &records).expect("every GET reads what was SET");
        println!(
            "{:<14} {:>9.1}% {:>12.0} {:>12.0}",
            label,
            report.memory_ratio * 100.0,
            report.set_qps,
            report.get_qps
        );
    }
    println!("\n(memory % is relative to storing the values uncompressed)");
}
