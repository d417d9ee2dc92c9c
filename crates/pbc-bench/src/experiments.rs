//! Table experiments (Tables 2–8 of the paper).

use std::time::Instant;

use pbc_codecs::dict::Dictionary;
use pbc_codecs::traits::{Codec, DictCodec, TrainableCodec};
use pbc_codecs::{FsstCodec, Lz4Like, LzmaLike, SnappyLike, ZstdLike};
use pbc_core::{PbcBlockCompressor, PbcCompressor, PbcConfig};
use pbc_datagen::{Dataset, DatasetKind};
use pbc_json::{BinPackCodec, IonLikeCodec, JsonValue};
use pbc_logs::LogReducer;
use pbc_store::{ValueCodec, WorkloadError, WorkloadSpec};

use crate::data::{corpus, corpus_bytes, training_refs, SEED};
use crate::report::{ratio, speed, Table};

/// One method's measurement on one dataset.
#[derive(Debug, Clone)]
pub struct MethodMeasurement {
    /// Method name ("FSST", "Zstd(dict)", "PBC", ...).
    pub method: String,
    /// Compression ratio (compressed / raw; smaller is better).
    pub ratio: f64,
    /// Compression speed in MB/s of raw input.
    pub comp_mb_s: f64,
    /// Decompression speed in MB/s of raw output.
    pub decomp_mb_s: f64,
}

/// All methods' measurements on one dataset.
#[derive(Debug, Clone)]
pub struct DatasetRow {
    /// Dataset name.
    pub dataset: String,
    /// Per-method measurements.
    pub methods: Vec<MethodMeasurement>,
}

impl DatasetRow {
    /// Look a method's measurement up by name.
    pub fn method(&self, name: &str) -> Option<&MethodMeasurement> {
        self.methods.iter().find(|m| m.method == name)
    }
}

/// A per-record codec under measurement: `(name, compress, decompress)`.
type RecordMethod<'a> = (
    String,
    Box<dyn Fn(&[u8]) -> Vec<u8> + 'a>,
    Box<dyn Fn(&[u8]) -> Vec<u8> + 'a>,
);

/// Measure a set of per-record methods over a corpus.
fn measure_record_methods(
    records: &[Vec<u8>],
    methods: Vec<RecordMethod<'_>>,
) -> Vec<MethodMeasurement> {
    let raw_bytes = corpus_bytes(records);
    methods
        .into_iter()
        .map(|(name, compress, decompress)| {
            let start = Instant::now();
            let compressed: Vec<Vec<u8>> = records.iter().map(|r| compress(r)).collect();
            let comp_secs = start.elapsed().as_secs_f64();
            let compressed_bytes: usize = compressed.iter().map(|c| c.len()).sum();

            let start = Instant::now();
            let mut restored_bytes = 0usize;
            for c in &compressed {
                restored_bytes += decompress(c).len();
            }
            let decomp_secs = start.elapsed().as_secs_f64();
            assert_eq!(restored_bytes, raw_bytes, "{name}: lossy round trip");

            MethodMeasurement {
                method: name,
                ratio: compressed_bytes as f64 / raw_bytes as f64,
                comp_mb_s: raw_bytes as f64 / 1e6 / comp_secs.max(1e-9),
                decomp_mb_s: raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9),
            }
        })
        .collect()
}

/// Table 2: dataset statistics (name, kind, records generated, average
/// record length vs the paper's).
pub fn table2(scale: f64) -> Table {
    let mut table = Table::new(
        "Table 2: dataset statistics (synthetic stand-ins)",
        &[
            "dataset",
            "kind",
            "records",
            "avg len",
            "paper avg len",
            "paper count",
        ],
    );
    for dataset in Dataset::all() {
        let records = corpus(dataset, scale);
        let avg = corpus_bytes(&records) as f64 / records.len() as f64;
        table.push_row(vec![
            dataset.name().to_string(),
            format!("{:?}", dataset.kind()),
            records.len().to_string(),
            format!("{avg:.1}"),
            format!("{:.1}", dataset.paper_avg_len()),
            dataset.paper_record_count().to_string(),
        ]);
    }
    table
}

/// Table 3: line-by-line (per-record) compression for FSST, LZ4(dict),
/// Zstd(dict), PBC and PBC_F.
pub fn table3(scale: f64, datasets: &[Dataset]) -> Vec<DatasetRow> {
    datasets
        .iter()
        .map(|&dataset| {
            let records = corpus(dataset, scale);
            let sample = training_refs(&records, 256);

            // Offline training (excluded from timing, as in the paper).
            let fsst = FsstCodec::train(&sample);
            let dict = Dictionary::train(&sample, 4096);
            let lz4 = Lz4Like::new();
            let zstd = ZstdLike::new(1);
            let config = PbcConfig::default();
            let pbc = PbcCompressor::train(&sample, &config);
            let pbc_f = PbcCompressor::train_fsst(&sample, &config);

            let methods: Vec<RecordMethod<'_>> = vec![
                (
                    "FSST".to_string(),
                    Box::new(|r: &[u8]| fsst.encode(r)),
                    Box::new(|c: &[u8]| fsst.decode(c).expect("fsst roundtrip")),
                ),
                (
                    "LZ4(dict)".to_string(),
                    Box::new(|r: &[u8]| lz4.compress_with_dict(r, dict.as_bytes())),
                    Box::new(|c: &[u8]| {
                        lz4.decompress_with_dict(c, dict.as_bytes())
                            .expect("lz4 roundtrip")
                    }),
                ),
                (
                    "Zstd(dict)".to_string(),
                    Box::new(|r: &[u8]| zstd.compress_with_dict(r, dict.as_bytes())),
                    Box::new(|c: &[u8]| {
                        zstd.decompress_with_dict(c, dict.as_bytes())
                            .expect("zstd roundtrip")
                    }),
                ),
                (
                    "PBC".to_string(),
                    Box::new(|r: &[u8]| pbc.compress(r)),
                    Box::new(|c: &[u8]| pbc.decompress(c).expect("pbc roundtrip")),
                ),
                (
                    "PBC_F".to_string(),
                    Box::new(|r: &[u8]| pbc_f.compress(r)),
                    Box::new(|c: &[u8]| pbc_f.decompress(c).expect("pbc_f roundtrip")),
                ),
            ];
            DatasetRow {
                dataset: dataset.name().to_string(),
                methods: measure_record_methods(&records, methods),
            }
        })
        .collect()
}

/// Table 4: file (whole-corpus) compression for Snappy, LZMA, LZ4, Zstd,
/// PBC_Z and PBC_L.
pub fn table4(scale: f64, datasets: &[Dataset]) -> Vec<DatasetRow> {
    datasets
        .iter()
        .map(|&dataset| {
            let records = corpus(dataset, scale);
            let sample = training_refs(&records, 256);
            let file: Vec<u8> = records.join(&b'\n');
            let raw_bytes = file.len();

            let block_codecs: Vec<(&str, Box<dyn Codec>)> = vec![
                ("Snappy", Box::new(SnappyLike::new())),
                ("LZMA", Box::new(LzmaLike::new(6))),
                ("LZ4", Box::new(Lz4Like::new())),
                ("Zstd", Box::new(ZstdLike::new(3))),
            ];
            let mut methods: Vec<MethodMeasurement> = block_codecs
                .into_iter()
                .map(|(name, codec)| {
                    let start = Instant::now();
                    let compressed = codec.compress(&file);
                    let comp_secs = start.elapsed().as_secs_f64();
                    let start = Instant::now();
                    let restored = codec.decompress(&compressed).expect("block roundtrip");
                    let decomp_secs = start.elapsed().as_secs_f64();
                    assert_eq!(restored.len(), raw_bytes);
                    MethodMeasurement {
                        method: name.to_string(),
                        ratio: compressed.len() as f64 / raw_bytes as f64,
                        comp_mb_s: raw_bytes as f64 / 1e6 / comp_secs.max(1e-9),
                        decomp_mb_s: raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9),
                    }
                })
                .collect();

            // PBC_Z / PBC_L: per-record PBC then a block backend over the
            // concatenated output.
            let config = PbcConfig::default();
            for (name, block) in [
                ("PBC_Z", PbcBlockCompressor::zstd(&sample, &config, 3)),
                ("PBC_L", PbcBlockCompressor::lzma(&sample, &config, 6)),
            ] {
                let start = Instant::now();
                let compressed = block.compress_block(&records);
                let comp_secs = start.elapsed().as_secs_f64();
                let start = Instant::now();
                let restored = block
                    .decompress_block(&compressed)
                    .expect("pbc block roundtrip");
                let decomp_secs = start.elapsed().as_secs_f64();
                assert_eq!(restored.len(), records.len());
                methods.push(MethodMeasurement {
                    method: name.to_string(),
                    ratio: compressed.len() as f64 / raw_bytes as f64,
                    comp_mb_s: raw_bytes as f64 / 1e6 / comp_secs.max(1e-9),
                    decomp_mb_s: raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9),
                });
            }

            DatasetRow {
                dataset: dataset.name().to_string(),
                methods,
            }
        })
        .collect()
}

/// Table 5: log compression — LogReducer vs PBC_L averaged over the log
/// datasets (ratio, compression and decompression speed in MB/s).
pub fn table5(scale: f64) -> Vec<MethodMeasurement> {
    let log_datasets: Vec<Dataset> = Dataset::all()
        .into_iter()
        .filter(|d| d.kind() == DatasetKind::Log)
        .collect();
    let mut totals: Vec<(String, f64, f64, f64)> = vec![
        ("LogReducer".to_string(), 0.0, 0.0, 0.0),
        ("PBC_L".to_string(), 0.0, 0.0, 0.0),
    ];
    for &dataset in &log_datasets {
        let records = corpus(dataset, scale);
        let lines: Vec<String> = records
            .iter()
            .map(|r| String::from_utf8_lossy(r).into_owned())
            .collect();
        let raw_bytes: usize = lines.iter().map(|l| l.len() + 1).sum();

        // LogReducer.
        let lr = LogReducer::new(6);
        let start = Instant::now();
        let archive = lr.compress_lines(&lines);
        let comp_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let restored = lr.decompress_lines(&archive).expect("logreducer roundtrip");
        let decomp_secs = start.elapsed().as_secs_f64();
        assert_eq!(restored.len(), lines.len());
        totals[0].1 += archive.len() as f64 / raw_bytes as f64;
        totals[0].2 += raw_bytes as f64 / 1e6 / comp_secs.max(1e-9);
        totals[0].3 += raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9);

        // PBC_L (LZMA backend at the paper's level 9).
        let sample = training_refs(&records, 256);
        let block = PbcBlockCompressor::lzma(&sample, &PbcConfig::default(), 9);
        let start = Instant::now();
        let compressed = block.compress_block(&records);
        let comp_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let restored = block
            .decompress_block(&compressed)
            .expect("pbc_l roundtrip");
        let decomp_secs = start.elapsed().as_secs_f64();
        assert_eq!(restored.len(), records.len());
        totals[1].1 += compressed.len() as f64 / raw_bytes as f64;
        totals[1].2 += raw_bytes as f64 / 1e6 / comp_secs.max(1e-9);
        totals[1].3 += raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9);
    }
    let n = log_datasets.len() as f64;
    totals
        .into_iter()
        .map(|(method, r, c, d)| MethodMeasurement {
            method,
            ratio: r / n,
            comp_mb_s: c / n,
            decomp_mb_s: d / n,
        })
        .collect()
}

/// Parsed JSON corpus of a dataset (documents plus their text sizes).
fn json_corpus(dataset: Dataset, scale: f64) -> (Vec<JsonValue>, Vec<Vec<u8>>) {
    let records = corpus(dataset, scale);
    let docs: Vec<JsonValue> = records
        .iter()
        .map(|r| {
            pbc_json::parse(std::str::from_utf8(r).expect("generator emits UTF-8 JSON"))
                .expect("generator emits valid JSON")
        })
        .collect();
    (docs, records)
}

/// Table 6: JSON compression, averaged over the JSON datasets.
/// Record compression: Ion-B, BP-D, PBC, PBC_F. File compression:
/// Ion-B+LZMA, BP-D+LZMA, PBC_L.
pub fn table6(scale: f64) -> Vec<MethodMeasurement> {
    let json_datasets: Vec<Dataset> = Dataset::all()
        .into_iter()
        .filter(|d| d.kind() == DatasetKind::Json)
        .collect();
    let method_names = [
        "Ion-B",
        "BP-D",
        "PBC",
        "PBC_F",
        "Ion-B+LZMA",
        "BP-D+LZMA",
        "PBC_L",
    ];
    let mut sums: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); method_names.len()];

    for &dataset in &json_datasets {
        let (docs, records) = json_corpus(dataset, scale);
        let raw_bytes = corpus_bytes(&records);
        let sample_docs: Vec<&JsonValue> = docs.iter().take(128).collect();
        let sample = training_refs(&records, 256);

        let ion = IonLikeCodec::new();
        let binpack = BinPackCodec::train(&sample_docs);
        let config = PbcConfig::default();
        let pbc = PbcCompressor::train(&sample, &config);
        let pbc_f = PbcCompressor::train_fsst(&sample, &config);

        // --- Record compression (per document). ---
        let record_results = [
            run_json_record(&docs, |d| ion.encode(d), |b| ion.decode(b).expect("ion")),
            run_json_record(
                &docs,
                |d| binpack.encode(d),
                |b| binpack.decode(b).expect("bp"),
            ),
            run_bytes_record(
                &records,
                |r| pbc.compress(r),
                |b| pbc.decompress(b).expect("pbc"),
            ),
            run_bytes_record(
                &records,
                |r| pbc_f.compress(r),
                |b| pbc_f.decompress(b).expect("pbc_f"),
            ),
        ];
        for (idx, (compressed_bytes, comp_secs, decomp_secs)) in
            record_results.into_iter().enumerate()
        {
            sums[idx].0 += compressed_bytes as f64 / raw_bytes as f64;
            sums[idx].1 += raw_bytes as f64 / 1e6 / comp_secs.max(1e-9);
            sums[idx].2 += raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9);
        }

        // --- File compression (serialized corpus + LZMA / PBC_L). ---
        let lzma = LzmaLike::new(6);
        for (idx, encoded_corpus) in [
            (
                4usize,
                docs.iter().flat_map(|d| ion.encode(d)).collect::<Vec<u8>>(),
            ),
            (
                5,
                docs.iter()
                    .flat_map(|d| binpack.encode(d))
                    .collect::<Vec<u8>>(),
            ),
        ] {
            let start = Instant::now();
            let compressed = lzma.compress(&encoded_corpus);
            let comp_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let restored = lzma.decompress(&compressed).expect("lzma roundtrip");
            let decomp_secs = start.elapsed().as_secs_f64();
            assert_eq!(restored.len(), encoded_corpus.len());
            sums[idx].0 += compressed.len() as f64 / raw_bytes as f64;
            sums[idx].1 += raw_bytes as f64 / 1e6 / comp_secs.max(1e-9);
            sums[idx].2 += raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9);
        }
        let block = PbcBlockCompressor::lzma(&sample, &config, 6);
        let start = Instant::now();
        let compressed = block.compress_block(&records);
        let comp_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let restored = block
            .decompress_block(&compressed)
            .expect("pbc_l roundtrip");
        let decomp_secs = start.elapsed().as_secs_f64();
        assert_eq!(restored.len(), records.len());
        sums[6].0 += compressed.len() as f64 / raw_bytes as f64;
        sums[6].1 += raw_bytes as f64 / 1e6 / comp_secs.max(1e-9);
        sums[6].2 += raw_bytes as f64 / 1e6 / decomp_secs.max(1e-9);
    }

    let n = json_datasets.len() as f64;
    method_names
        .iter()
        .zip(sums)
        .map(|(name, (r, c, d))| MethodMeasurement {
            method: name.to_string(),
            ratio: r / n,
            comp_mb_s: c / n,
            decomp_mb_s: d / n,
        })
        .collect()
}

fn run_json_record(
    docs: &[JsonValue],
    encode: impl Fn(&JsonValue) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> JsonValue,
) -> (usize, f64, f64) {
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = docs.iter().map(&encode).collect();
    let comp_secs = start.elapsed().as_secs_f64();
    let bytes: usize = encoded.iter().map(|e| e.len()).sum();
    let start = Instant::now();
    let mut decoded = 0usize;
    for e in &encoded {
        decoded += usize::from(!matches!(decode(e), JsonValue::Null));
    }
    let decomp_secs = start.elapsed().as_secs_f64();
    assert_eq!(decoded, docs.len());
    (bytes, comp_secs, decomp_secs)
}

fn run_bytes_record(
    records: &[Vec<u8>],
    encode: impl Fn(&[u8]) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Vec<u8>,
) -> (usize, f64, f64) {
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = records.iter().map(|r| encode(r)).collect();
    let comp_secs = start.elapsed().as_secs_f64();
    let bytes: usize = encoded.iter().map(|e| e.len()).sum();
    let start = Instant::now();
    let mut restored = 0usize;
    for e in &encoded {
        restored += decode(e).len();
    }
    let decomp_secs = start.elapsed().as_secs_f64();
    assert_eq!(restored, corpus_bytes(records));
    (bytes, comp_secs, decomp_secs)
}

/// Table 7: per-dataset file-compression ratio, BP-D+LZMA vs PBC_L, on
/// cities / github / unece.
pub fn table7(scale: f64) -> Vec<(String, f64, f64)> {
    [Dataset::Cities, Dataset::Github, Dataset::Unece]
        .into_iter()
        .map(|dataset| {
            let (docs, records) = json_corpus(dataset, scale);
            let raw_bytes = corpus_bytes(&records);
            let sample_docs: Vec<&JsonValue> = docs.iter().take(128).collect();
            let sample = training_refs(&records, 256);
            let lzma = LzmaLike::new(6);

            let binpack = BinPackCodec::train(&sample_docs);
            let bp_corpus: Vec<u8> = docs.iter().flat_map(|d| binpack.encode(d)).collect();
            let bp_ratio = lzma.compress(&bp_corpus).len() as f64 / raw_bytes as f64;

            let block = PbcBlockCompressor::lzma(&sample, &PbcConfig::default(), 6);
            let pbc_ratio = block.compress_block(&records).len() as f64 / raw_bytes as f64;

            (dataset.name().to_string(), bp_ratio, pbc_ratio)
        })
        .collect()
}

/// One row of Table 8.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Workload name.
    pub workload: String,
    /// Codec name.
    pub codec: &'static str,
    /// Memory usage relative to uncompressed (percent).
    pub memory_pct: f64,
    /// SET throughput (ops/s).
    pub set_qps: f64,
    /// GET throughput (ops/s).
    pub get_qps: f64,
}

/// Table 8: production case study. Workload A uses KV2-shaped values,
/// workload B uses KV3-shaped values; each runs under Uncompressed,
/// dictionary-Zstd and PBC_F. A GET that fails, misses or reads wrong
/// bytes fails the table.
pub fn table8(scale: f64) -> Result<Vec<Table8Row>, WorkloadError> {
    let workloads = [("Workload A", Dataset::Kv2), ("Workload B", Dataset::Kv3)];
    let mut rows = Vec::new();
    for (name, dataset) in workloads {
        let records = corpus(dataset, scale);
        let sample = training_refs(&records, 256);
        let codecs = [
            ValueCodec::None,
            ValueCodec::train_zstd_dict(&sample, 1),
            ValueCodec::train_pbc_f(&sample, &PbcConfig::default()),
        ];
        for codec in codecs {
            let spec = WorkloadSpec::new(name, records.len(), SEED);
            let report = pbc_store::workload::run_workload(&spec, codec, &records)?;
            rows.push(Table8Row {
                workload: name.to_string(),
                codec: report.codec,
                memory_pct: report.memory_ratio * 100.0,
                set_qps: report.set_qps,
                get_qps: report.get_qps,
            });
        }
    }
    Ok(rows)
}

/// Render Table 3/4-style rows as a text table.
pub fn render_dataset_rows(title: &str, rows: &[DatasetRow]) -> Table {
    let mut headers = vec!["dataset".to_string()];
    if let Some(first) = rows.first() {
        for m in &first.methods {
            headers.push(format!("{} ratio", m.method));
            headers.push(format!("{} comp MB/s", m.method));
            headers.push(format!("{} dec MB/s", m.method));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    for row in rows {
        let mut cells = vec![row.dataset.clone()];
        for m in &row.methods {
            cells.push(ratio(m.ratio));
            cells.push(speed(m.comp_mb_s));
            cells.push(speed(m.decomp_mb_s));
        }
        table.push_row(cells);
    }
    table
}

/// Render method-averaged measurements (Tables 5 and 6).
pub fn render_method_table(title: &str, methods: &[MethodMeasurement]) -> Table {
    let mut table = Table::new(title, &["method", "comp ratio", "comp MB/s", "decomp MB/s"]);
    for m in methods {
        table.push_row(vec![
            m.method.clone(),
            ratio(m.ratio),
            speed(m.comp_mb_s),
            speed(m.decomp_mb_s),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_datasets() {
        let t = table2(0.05);
        assert_eq!(t.rows.len(), 16);
        assert!(t.render().contains("unece"));
    }

    #[test]
    fn table3_shape_holds_on_a_small_dataset() {
        let rows = table3(0.05, &[Dataset::Kv1]);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.methods.len(), 5);
        let pbc = row.method("PBC").unwrap();
        let zstd = row.method("Zstd(dict)").unwrap();
        // The headline claim: PBC's per-record ratio beats dictionary Zstd.
        assert!(
            pbc.ratio < zstd.ratio,
            "PBC {} should beat Zstd(dict) {}",
            pbc.ratio,
            zstd.ratio
        );
        assert!(pbc.ratio < 0.6);
    }

    #[test]
    fn table8_reports_all_rows() {
        let rows = table8(0.03).unwrap();
        assert_eq!(rows.len(), 6);
        let pbc_a = rows
            .iter()
            .find(|r| r.workload == "Workload A" && r.codec == "PBC_F")
            .unwrap();
        let raw_a = rows
            .iter()
            .find(|r| r.workload == "Workload A" && r.codec == "Uncompressed")
            .unwrap();
        assert!(pbc_a.memory_pct < raw_a.memory_pct);
    }
}
