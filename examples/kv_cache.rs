//! TierBase-style key-value caching scenario (the paper's Section 7.5 case
//! study): compare memory usage and SET/GET throughput of an in-memory
//! store under no compression, dictionary-trained Zstd, and PBC_F.
//!
//! Run with: `cargo run --release --example kv_cache`

use pbc::core::PbcConfig;
use pbc::datagen::Dataset;
use pbc::store::{workload::run_workload, ValueCodec, WorkloadSpec};

fn main() {
    // A production-like key-value workload: serialized order objects (KV2).
    let records = Dataset::Kv2.generate(6_000, 7);
    let sample: Vec<&[u8]> = records
        .iter()
        .step_by(25)
        .take(240)
        .map(|r| r.as_slice())
        .collect();

    let codecs = vec![
        ValueCodec::None,
        ValueCodec::train_zstd_dict(&sample, 1),
        ValueCodec::train_pbc_f(&sample, &PbcConfig::default()),
    ];

    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "codec", "memory %", "SET ops/s", "GET ops/s"
    );
    for codec in codecs {
        let spec = WorkloadSpec::new("cache-demo", records.len(), 99);
        let report = run_workload(&spec, codec, &records).expect("every GET reads what was SET");
        println!(
            "{:<14} {:>9.1}% {:>12.0} {:>12.0}",
            report.codec,
            report.memory_ratio * 100.0,
            report.set_qps,
            report.get_qps
        );
    }
    println!("\n(memory % is relative to storing the values uncompressed)");
}
