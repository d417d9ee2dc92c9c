//! Cross-crate integration tests: the full PBC pipeline over the synthetic
//! datasets, dictionary shipping between instances, and the block variants.

use pbc::codecs::traits::RecordCorpusExt;
use pbc::core::{PatternDictionary, PbcBlockCompressor, PbcCompressor, PbcConfig};
use pbc::datagen::{Dataset, DatasetKind};

fn sample_of(records: &[Vec<u8>], n: usize) -> Vec<&[u8]> {
    let step = (records.len() / n.max(1)).max(1);
    records
        .iter()
        .step_by(step)
        .take(n)
        .map(|r| r.as_slice())
        .collect()
}

#[test]
fn pbc_roundtrips_every_dataset_family() {
    for dataset in [
        Dataset::Kv1,
        Dataset::Hdfs,
        Dataset::Cities,
        Dataset::Urls,
        Dataset::Uuid,
    ] {
        let records = dataset.generate(600, 21);
        let sample = sample_of(&records, 200);
        let pbc = PbcCompressor::train(&sample, &PbcConfig::default());
        for record in &records {
            let compressed = pbc.compress(record);
            assert_eq!(
                &pbc.decompress(&compressed).expect("decompression succeeds"),
                record,
                "dataset {}",
                dataset.name()
            );
        }
    }
}

#[test]
fn pbc_compresses_machine_generated_datasets_substantially() {
    // The headline claim of the paper: on machine-generated data (KV and log
    // families) PBC's per-record ratio is well below 0.5.
    for dataset in [Dataset::Kv1, Dataset::Kv3, Dataset::Kv4, Dataset::Apache] {
        let records = dataset.generate(1_000, 33);
        let sample = sample_of(&records, 256);
        let pbc = PbcCompressor::train(&sample, &PbcConfig::default());
        let ratio = pbc.corpus_ratio(&records);
        assert!(
            ratio < 0.55,
            "{}: expected a strong ratio, got {:.3}",
            dataset.name(),
            ratio
        );
    }
}

#[test]
fn uuid_dataset_is_the_known_capacity_boundary() {
    // The paper singles uuid out as near-random data where pattern-based
    // compression saves little; it must still round-trip.
    let records = Dataset::Uuid.generate(800, 5);
    let sample = sample_of(&records, 200);
    let pbc = PbcCompressor::train(&sample, &PbcConfig::default());
    let ratio = pbc.corpus_ratio(&records);
    assert!(ratio > 0.5, "uuid should compress poorly, got {ratio:.3}");
    for record in records.iter().step_by(41) {
        assert_eq!(&pbc.decompress(&pbc.compress(record)).unwrap(), record);
    }
}

#[test]
fn dictionaries_ship_between_instances() {
    // Train on one "instance", serialize the dictionary, decompress on
    // another instance built only from the serialized bytes (the TierBase
    // deployment flow of Section 7.5).
    let records = Dataset::Kv2.generate(800, 9);
    let sample = sample_of(&records, 256);
    let trainer = PbcCompressor::train(&sample, &PbcConfig::default());
    let dictionary_bytes = trainer.dictionary().serialize();

    let compressed: Vec<Vec<u8>> = records.iter().map(|r| trainer.compress(r)).collect();

    let shipped = PatternDictionary::deserialize(&dictionary_bytes).expect("dictionary parses");
    let replica = PbcCompressor::from_dictionary(shipped, &PbcConfig::default());
    for (record, compressed) in records.iter().zip(&compressed) {
        assert_eq!(&replica.decompress(compressed).unwrap(), record);
    }
}

#[test]
fn block_variants_roundtrip_and_beat_per_record_pbc() {
    let records = Dataset::Android.generate(800, 13);
    let sample = sample_of(&records, 256);
    let config = PbcConfig::default();

    let per_record = PbcCompressor::train(&sample, &config);
    let per_record_bytes: usize = records.iter().map(|r| per_record.compress(r).len()).sum();

    let pbc_z = PbcBlockCompressor::zstd(&sample, &config, 3);
    let block = pbc_z.compress_block(&records);
    assert_eq!(pbc_z.decompress_block(&block).unwrap(), records);
    assert!(
        block.len() < per_record_bytes,
        "block-compressed PBC_Z ({}) should be smaller than per-record PBC ({})",
        block.len(),
        per_record_bytes
    );
}

#[test]
fn every_log_dataset_parses_with_the_log_substrate() {
    use pbc::logs::LogReducer;
    for dataset in Dataset::all()
        .into_iter()
        .filter(|d| d.kind() == DatasetKind::Log)
    {
        let records = dataset.generate(300, 17);
        let lines: Vec<String> = records
            .iter()
            .map(|r| String::from_utf8(r.clone()).expect("log lines are UTF-8"))
            .collect();
        let lr = LogReducer::new(4);
        let archive = lr.compress_lines(&lines);
        assert_eq!(
            lr.decompress_lines(&archive).expect("archive decompresses"),
            lines,
            "dataset {}",
            dataset.name()
        );
        assert!(archive.len() < lines.iter().map(|l| l.len() + 1).sum::<usize>());
    }
}

#[test]
fn every_json_dataset_parses_with_the_json_substrate() {
    use pbc::json::{BinPackCodec, IonLikeCodec, JsonValue};
    for dataset in Dataset::all()
        .into_iter()
        .filter(|d| d.kind() == DatasetKind::Json)
    {
        let records = dataset.generate(120, 29);
        let docs: Vec<JsonValue> = records
            .iter()
            .map(|r| {
                pbc::json::parse(std::str::from_utf8(r).expect("UTF-8"))
                    .unwrap_or_else(|e| panic!("{}: {e}", dataset.name()))
            })
            .collect();
        let ion = IonLikeCodec::new();
        let sample: Vec<&JsonValue> = docs.iter().take(60).collect();
        let binpack = BinPackCodec::train(&sample);
        for doc in &docs {
            assert_eq!(
                &ion.decode(&ion.encode(doc)).unwrap(),
                doc,
                "{}",
                dataset.name()
            );
            assert_eq!(
                &binpack.decode(&binpack.encode(doc)).unwrap(),
                doc,
                "{}",
                dataset.name()
            );
        }
    }
}

#[test]
fn retraining_flow_recovers_compression_after_data_drift() {
    // Simulate the production flow: data model changes, outlier rate rises,
    // retraining restores the ratio.
    let old = Dataset::Kv4.generate(800, 3);
    let new = Dataset::Kv5.generate(800, 3);
    let sample_old = sample_of(&old, 200);
    let pbc = PbcCompressor::train(&sample_old, &PbcConfig::default());

    for record in &new {
        let c = pbc.compress(record);
        assert_eq!(&pbc.decompress(&c).unwrap(), record);
    }
    assert!(pbc.should_retrain(), "drifted data must trigger retraining");

    let sample_new = sample_of(&new, 200);
    let retrained = PbcCompressor::train(&sample_new, &PbcConfig::default());
    let old_ratio = pbc.corpus_ratio(&new);
    let new_ratio = retrained.corpus_ratio(&new);
    assert!(
        new_ratio < old_ratio,
        "retrained ratio {new_ratio:.3} should beat stale ratio {old_ratio:.3}"
    );
}

#[test]
fn trained_dictionaries_are_pinned_byte_for_byte() {
    // Training output is part of the segment format's determinism contract:
    // a change to the clustering kernel, its pruning bound or the sampler
    // must leave these four dictionaries exactly as they are (FNV-1a-64 of
    // the serialized dictionary, and its length).
    let config = PbcConfig {
        max_sample_records: 128,
        max_sample_bytes: 24 * 1024,
        target_clusters: 16,
        ..PbcConfig::default()
    };
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    for (dataset, hash, len) in [
        (Dataset::Kv2, 0x9dd6_a889_211c_9b12u64, 2_730usize),
        (Dataset::Hdfs, 0x57d0_ec59_19ab_b565, 2_287),
        (Dataset::Github, 0xea29_844d_576a_b5ef, 13_481),
        (Dataset::Urls, 0x8c8c_0ee1_ae5b_c3da, 922),
    ] {
        let records = dataset.generate(4000, 2023);
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let serialized = PbcCompressor::train(&refs, &config)
            .dictionary()
            .serialize();
        let found = fnv1a(&serialized);
        assert_eq!(
            (serialized.len(), found),
            (len, hash),
            "{}: dictionary {found:x}",
            dataset.name()
        );
    }
}
