//! Figure experiments (Figures 5–9 of the paper).

use std::sync::Arc;
use std::time::Instant;

use pbc_archive::codec::serialized_len;
use pbc_archive::{BlockCodec, Entry};
use pbc_codecs::traits::TrainableCodec;
use pbc_codecs::{FsstCodec, ZstdLike};
use pbc_core::clustering::{cluster_records, ClusteringConfig};
use pbc_core::{Criterion, PbcCompressor, PbcConfig};
use pbc_datagen::Dataset;

use crate::data::{ablation_datasets, corpus, corpus_bytes, training_refs};
use crate::experiments::{table3, table4};
use crate::report::{ratio, Table};

/// One point of Figure 5: a method at a block size.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Dataset name.
    pub dataset: String,
    /// Method name ("FSST", "PBC_F", "Zstd").
    pub method: &'static str,
    /// Records per block. Zstd compresses a block as a unit; the
    /// per-record methods frame each record inside it, so their ratio does
    /// not depend on it but their lookups walk the frames before theirs.
    pub block_size: usize,
    /// Compression ratio at this block size.
    pub ratio: f64,
    /// Random lookups served per second.
    pub lookups_per_sec: f64,
}

/// Figure 5: random-access performance, measured on the archive's block
/// codecs. The corpus is cut into blocks of 4⁰..4⁷ keyless records, each
/// compressed with [`BlockCodec::compress_block`]; a lookup is the
/// [`BlockCodec::entry_at`] call a segment reader makes once it has fetched
/// the block. Plain Zstd decompresses the whole block per lookup, while
/// FSST and PBC_F decode only the requested record. 1% of records are
/// looked up at random: once untimed, each compared with its original,
/// then timed.
pub fn fig5(scale: f64) -> Vec<Fig5Point> {
    let mut points = Vec::new();
    for dataset in [Dataset::Kv2, Dataset::Unece] {
        let records = corpus(dataset, scale);
        let raw = corpus_bytes(&records);
        let sample = training_refs(&records, 256);
        let lookups: Vec<usize> = (0..records.len().div_ceil(100).max(16))
            .map(|i| (i * 977 + 13) % records.len())
            .collect();
        let methods = [
            (
                "FSST",
                BlockCodec::Fsst {
                    codec: FsstCodec::train(&sample),
                },
            ),
            (
                "PBC_F",
                BlockCodec::Pbc {
                    compressor: Arc::new(PbcCompressor::train_fsst(&sample, &PbcConfig::default())),
                    fsst: true,
                },
            ),
            (
                "Zstd",
                BlockCodec::Zstd {
                    codec: ZstdLike::new(1),
                    dictionary: Arc::default(),
                },
            ),
        ];
        for (method, codec) in &methods {
            for exp in 0..=7u32 {
                let block_size = 4usize.pow(exp);
                // (compressed block, record count, serialized length)
                let blocks: Vec<(Vec<u8>, usize, usize)> = records
                    .chunks(block_size)
                    .map(|chunk| {
                        let entries: Vec<Entry> =
                            chunk.iter().map(|r| (Vec::new(), r.clone())).collect();
                        let block = codec.compress_block(&entries);
                        (block, entries.len(), serialized_len(&entries))
                    })
                    .collect();
                let lookup = |idx: usize| {
                    let (block, count, raw_len) = &blocks[idx / block_size];
                    let (_, value) = codec
                        .entry_at(block, idx % block_size, *count, *raw_len)
                        .unwrap_or_else(|e| panic!("{method} lookup of record {idx}: {e}"));
                    value
                };
                for &idx in &lookups {
                    assert!(
                        lookup(idx) == records[idx],
                        "{method} at block size {block_size} returned a wrong record {idx}"
                    );
                }
                let start = Instant::now();
                let mut bytes = 0usize;
                for &idx in &lookups {
                    bytes += lookup(idx).len();
                }
                let secs = start.elapsed().as_secs_f64();
                std::hint::black_box(bytes);
                let compressed: usize = blocks.iter().map(|(block, ..)| block.len()).sum();
                points.push(Fig5Point {
                    dataset: dataset.name().to_string(),
                    method,
                    block_size,
                    ratio: compressed as f64 / raw as f64,
                    lookups_per_sec: lookups.len() as f64 / secs.max(1e-9),
                });
            }
        }
    }
    points
}

/// One point of Figure 6: a method's average ratio and speeds.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Method name.
    pub method: String,
    /// Whether this is a PBC variant (plotted as triangles in the paper).
    pub is_pbc: bool,
    /// Average compression ratio across datasets.
    pub ratio: f64,
    /// Average compression speed (MB/s).
    pub comp_mb_s: f64,
    /// Average decompression speed (MB/s).
    pub decomp_mb_s: f64,
}

/// Figure 6: Pareto view. Averages every method of Tables 3 and 4 over a
/// set of datasets (defaults to a representative subset for runtime).
pub fn fig6(scale: f64, datasets: &[Dataset]) -> Vec<Fig6Point> {
    let mut sums: std::collections::BTreeMap<String, (f64, f64, f64, usize)> =
        std::collections::BTreeMap::new();
    for rows in [table3(scale, datasets), table4(scale, datasets)] {
        for row in rows {
            for m in row.methods {
                let entry = sums.entry(m.method.clone()).or_insert((0.0, 0.0, 0.0, 0));
                entry.0 += m.ratio;
                entry.1 += m.comp_mb_s;
                entry.2 += m.decomp_mb_s;
                entry.3 += 1;
            }
        }
    }
    sums.into_iter()
        .map(|(method, (r, c, d, n))| Fig6Point {
            is_pbc: method.starts_with("PBC"),
            ratio: r / n as f64,
            comp_mb_s: c / n as f64,
            decomp_mb_s: d / n as f64,
            method,
        })
        .collect()
}

/// Whether a point is on the Pareto frontier of (ratio ↓, speed ↑).
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .map(|&(ratio_a, speed_a)| {
            !points.iter().any(|&(ratio_b, speed_b)| {
                (ratio_b < ratio_a && speed_b >= speed_a)
                    || (ratio_b <= ratio_a && speed_b > speed_a)
            })
        })
        .collect()
}

/// One bar of Figure 7: compression ratio of PBC under a clustering
/// criterion.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Dataset name.
    pub dataset: String,
    /// Criterion name ("ED-based", "Entropy-based", "EL-based").
    pub criterion: &'static str,
    /// Resulting per-record compression ratio.
    pub ratio: f64,
}

/// Figure 7: effect of the clustering criterion. Runs the full PBC pipeline
/// with edit-distance-, entropy- and encoding-length-based clustering and
/// reports the per-record compression ratio on each ablation dataset.
pub fn fig7(scale: f64) -> Vec<Fig7Point> {
    let criteria = [
        (Criterion::EditDistance, "ED-based"),
        (Criterion::Entropy, "Entropy-based"),
        (Criterion::EncodingLength, "EL-based"),
    ];
    let mut points = Vec::new();
    for dataset in ablation_datasets() {
        let records = corpus(dataset, scale);
        let sample = training_refs(&records, 192);
        let raw = corpus_bytes(&records);
        for (criterion, name) in criteria {
            let config = PbcConfig {
                criterion,
                ..PbcConfig::default()
            };
            let pbc = PbcCompressor::train(&sample, &config);
            let compressed: usize = records.iter().map(|r| pbc.compress(r).len()).sum();
            points.push(Fig7Point {
                dataset: dataset.name().to_string(),
                criterion: name,
                ratio: compressed as f64 / raw as f64,
            });
        }
    }
    points
}

/// One bar of Figure 8: pattern-extraction time with or without pruning.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Dataset name.
    pub dataset: String,
    /// "Naive" or "1-gram pruning".
    pub variant: &'static str,
    /// Wall-clock training (clustering) time in seconds.
    pub seconds: f64,
    /// Number of exact distance evaluations performed.
    pub exact_evaluations: usize,
}

/// Figure 8: running time of pattern extraction, naive vs 1-gram pruning.
pub fn fig8(scale: f64) -> Vec<Fig8Point> {
    let mut points = Vec::new();
    for dataset in ablation_datasets() {
        let records = corpus(dataset, scale);
        let samples: Vec<Vec<u8>> = training_refs(&records, 192)
            .into_iter()
            .map(|r| r.to_vec())
            .collect();
        for (pruning, variant) in [(false, "Naive"), (true, "1-gram pruning")] {
            let config = ClusteringConfig {
                use_onegram_pruning: pruning,
                ..ClusteringConfig::default()
            };
            let start = Instant::now();
            let result = cluster_records(&samples, &config);
            let seconds = start.elapsed().as_secs_f64();
            points.push(Fig8Point {
                dataset: dataset.name().to_string(),
                variant,
                seconds,
                exact_evaluations: result.exact_evaluations,
            });
        }
    }
    points
}

/// One point of Figure 9: a sweep value and the resulting ratio.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Dataset name.
    pub dataset: String,
    /// Sweep parameter value (training bytes for 9a, pattern-budget bytes
    /// for 9b).
    pub parameter: usize,
    /// Resulting per-record compression ratio.
    pub ratio: f64,
}

/// Figure 9(a): compression ratio as a function of training-sample size.
pub fn fig9a(scale: f64) -> Vec<Fig9Point> {
    let sample_counts = [16usize, 32, 64, 128, 256, 512];
    let mut points = Vec::new();
    for dataset in [Dataset::Kv1, Dataset::Kv2] {
        let records = corpus(dataset, scale);
        let raw = corpus_bytes(&records);
        for &count in &sample_counts {
            let config = PbcConfig {
                max_sample_records: count,
                max_sample_bytes: usize::MAX,
                ..PbcConfig::default()
            };
            let sample = training_refs(&records, count);
            let training_bytes: usize = sample.iter().map(|r| r.len()).sum();
            let pbc = PbcCompressor::train(&sample, &config);
            let compressed: usize = records.iter().map(|r| pbc.compress(r).len()).sum();
            points.push(Fig9Point {
                dataset: dataset.name().to_string(),
                parameter: training_bytes,
                ratio: compressed as f64 / raw as f64,
            });
        }
    }
    points
}

/// Figure 9(b): compression ratio as a function of the pattern-dictionary
/// size budget.
pub fn fig9b(scale: f64) -> Vec<Fig9Point> {
    let budgets = [128usize, 256, 512, 1024, 2048, 4096];
    let mut points = Vec::new();
    for dataset in [Dataset::Kv1, Dataset::Kv2] {
        let records = corpus(dataset, scale);
        let raw = corpus_bytes(&records);
        let sample = training_refs(&records, 256);
        for &budget in &budgets {
            let config = PbcConfig {
                pattern_budget_bytes: Some(budget),
                ..PbcConfig::default()
            };
            let pbc = PbcCompressor::train(&sample, &config);
            let compressed: usize = records.iter().map(|r| pbc.compress(r).len()).sum();
            points.push(Fig9Point {
                dataset: dataset.name().to_string(),
                parameter: budget,
                ratio: compressed as f64 / raw as f64,
            });
        }
    }
    points
}

/// Render Figure 5 points as a table.
pub fn render_fig5(points: &[Fig5Point]) -> Table {
    let mut table = Table::new(
        "Figure 5: random access (ratio and lookup speed vs block size)",
        &["dataset", "method", "block size", "comp ratio", "lookups/s"],
    );
    for p in points {
        table.push_row(vec![
            p.dataset.clone(),
            p.method.to_string(),
            p.block_size.to_string(),
            ratio(p.ratio),
            format!("{:.0}", p.lookups_per_sec),
        ]);
    }
    table
}

/// Render Figure 7 points as a table.
pub fn render_fig7(points: &[Fig7Point]) -> Table {
    let mut table = Table::new(
        "Figure 7: effect of clustering criteria (compression ratio)",
        &["dataset", "ED-based", "Entropy-based", "EL-based"],
    );
    for dataset in ablation_datasets() {
        let cells: Vec<String> = ["ED-based", "Entropy-based", "EL-based"]
            .iter()
            .map(|c| {
                points
                    .iter()
                    .find(|p| p.dataset == dataset.name() && &p.criterion == c)
                    .map(|p| ratio(p.ratio))
                    .unwrap_or_else(|| "-".to_string())
            })
            .collect();
        table.push_row(vec![
            dataset.name().to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_frontier_identifies_dominant_points() {
        // (ratio, speed): lower ratio and higher speed are better.
        let points = vec![(0.2, 100.0), (0.3, 50.0), (0.1, 10.0), (0.25, 100.0)];
        let frontier = pareto_frontier(&points);
        assert_eq!(frontier, vec![true, false, true, false]);
    }

    #[test]
    fn fig5_block_codecs_trade_lookups_for_ratio_and_per_record_ones_do_not() {
        let points = fig5(0.02);
        let block_sizes: Vec<usize> = (0..=7u32).map(|exp| 4usize.pow(exp)).collect();
        for dataset in ["kv2", "unece"] {
            let at = |method: &str, block_size: usize| {
                points
                    .iter()
                    .find(|p| {
                        p.dataset == dataset && p.method == method && p.block_size == block_size
                    })
                    .unwrap_or_else(|| panic!("{dataset} {method} at {block_size}"))
            };
            for method in ["FSST", "PBC_F"] {
                let ratio = at(method, 1).ratio;
                for &block_size in &block_sizes {
                    assert_eq!(
                        at(method, block_size).ratio,
                        ratio,
                        "{dataset} {method}: the per-record ratio is the same at every block size"
                    );
                }
            }
            let (zstd_small, zstd_large) = (at("Zstd", 1), at("Zstd", 4usize.pow(7)));
            assert!(zstd_large.ratio < zstd_small.ratio, "{dataset}");
            assert!(
                zstd_large.lookups_per_sec < zstd_small.lookups_per_sec,
                "{dataset}"
            );
            for &block_size in block_sizes.iter().filter(|&&b| b >= 64) {
                let zstd = at("Zstd", block_size).lookups_per_sec;
                for method in ["FSST", "PBC_F"] {
                    let per_record = at(method, block_size).lookups_per_sec;
                    assert!(
                        per_record > zstd,
                        "{dataset} at {block_size}: {method} {per_record:.0}/s vs Zstd {zstd:.0}/s"
                    );
                }
            }
        }
    }

    #[test]
    fn fig9a_ratio_does_not_degrade_with_more_training_data() {
        let points = fig9a(0.03);
        let kv1: Vec<&Fig9Point> = points.iter().filter(|p| p.dataset == "kv1").collect();
        assert!(kv1.len() >= 4);
        let first = kv1.first().unwrap().ratio;
        let last = kv1.last().unwrap().ratio;
        assert!(
            last <= first + 0.05,
            "ratio with max sample ({last}) should not be worse than with min sample ({first})"
        );
    }
}
