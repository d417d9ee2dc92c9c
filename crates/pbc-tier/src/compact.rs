//! Segment merging: k-way merge with shadow and tombstone elimination,
//! split into sorted, non-overlapping output partitions.
//!
//! Overlapping segments accumulate as shards spill: a hot key that is
//! written, spilled, rewritten and spilled again exists in two segments,
//! and a deleted key leaves a tombstone shadowing an older value.
//! [`merge_segments`] streams the input segments (newest first) through a
//! k-way merge that keeps only the newest version of each key and writes
//! the survivors to fresh segments. With `split_bytes` set, the sorted
//! output stream rolls to a new file whenever the current one's estimated
//! serialized payload reaches the boundary — producing the pairwise
//! non-overlapping L1 partitions true leveling needs. Output files are
//! allocated lazily through the `next_output` callback, so ids are only
//! burned for partitions that actually materialize; on error every file
//! this merge created is removed before returning.
//!
//! Tombstone handling depends on what lies *below* the inputs. A leveled
//! job includes every segment that could hold an older version of its
//! keys, so it passes `drop_tombstones = true` and the output is
//! tombstone-free (L1 never stores tombstones). A merge over a run with
//! older data still beneath it must keep its tombstones
//! (`drop_tombstones = false`) — each one may still be the only thing
//! standing between a read and a resurrected old version. Kept tombstones
//! are written via [`SegmentWriter::append_flagged`], so each output's
//! footer records its dead-entry count for the next planning round.

use std::path::PathBuf;

use pbc_archive::{
    entry_size_estimate, select_codec_over_blocks, spread_sample_indices, BlockCodec, CodecSpec,
    Entry, Scan, SegmentConfig, SegmentReader, SegmentSummary, SegmentWriter, WriterObs,
};

use crate::error::Result;
use crate::store::is_tombstone;

/// One materialized output partition of a merge.
#[derive(Debug, Clone)]
pub struct MergeOutput {
    /// Segment id the `next_output` callback allocated for this partition.
    pub id: u64,
    /// File name relative to the store directory.
    pub file_name: String,
    /// Full path the partition was written to.
    pub path: PathBuf,
    /// Writer summary (record counts, byte totals, codec).
    pub summary: SegmentSummary,
    /// Tombstones carried into this partition (0 whenever
    /// `drop_tombstones` was set).
    pub tombstones_kept: u64,
}

/// What a merge pass produced.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// Live entries written across all output partitions.
    pub live_entries: u64,
    /// Entries dropped because a newer segment shadowed them.
    pub shadowed_dropped: u64,
    /// Tombstones dropped (only when `drop_tombstones` was set).
    pub tombstones_dropped: u64,
    /// Tombstones carried into the outputs.
    pub tombstones_kept: u64,
    /// Output partitions, ascending by key range (the merge emits keys in
    /// sorted order, so consecutive outputs cover disjoint, increasing
    /// ranges). Empty when nothing survived.
    pub outputs: Vec<MergeOutput>,
    /// The codec retrained on the merged corpus — callers reuse it for
    /// subsequent spills. Absent when the caller supplied a codec (no
    /// retraining ran) or the inputs were empty.
    pub codec: Option<BlockCodec>,
}

/// An output partition currently being written.
struct OpenOutput {
    id: u64,
    file_name: String,
    path: PathBuf,
    writer: SegmentWriter,
    tombstones_kept: u64,
    /// Estimated serialized payload written so far (the writer's own
    /// per-entry estimate, so the split boundary tracks real blocks).
    estimated_bytes: u64,
}

/// Train a codec for the merged output by sampling up to
/// `config.auto_sample_blocks` blocks spread across the *combined* block
/// count of all inputs — genuinely across the corpus, unlike the streaming
/// writer which can only sample its buffered window.
fn retrained_codec(readers: &[&SegmentReader], config: &SegmentConfig) -> Result<CodecSpec> {
    let total_blocks: usize = readers.iter().map(|r| r.block_count()).sum();
    if total_blocks == 0 {
        return Ok(CodecSpec::Raw);
    }
    let ordinals = spread_sample_indices(total_blocks, config.auto_sample_blocks.max(1));
    let mut samples: Vec<Vec<Entry>> = Vec::with_capacity(ordinals.len());
    for ordinal in ordinals {
        // Map the global block ordinal onto (reader, local block).
        let mut remaining = ordinal;
        for reader in readers {
            if remaining < reader.block_count() {
                samples.push(reader.read_block(remaining)?.to_entries());
                break;
            }
            remaining -= reader.block_count();
        }
    }
    let refs: Vec<&[Entry]> = samples.iter().map(|b| b.as_slice()).collect();
    Ok(CodecSpec::Pretrained(select_codec_over_blocks(&refs)))
}

/// Merge `readers` (newest first) into fresh segments allocated by
/// `next_output`.
///
/// Output keys are unique and ascending across the whole output sequence;
/// values keep their tombstone marker encoding. With `drop_tombstones`
/// every surviving record is live; without it, tombstones survive too
/// (flagged in the output footers). When nothing survives, no file is
/// written and `outputs` is empty.
///
/// `split_bytes` bounds each output partition's estimated serialized
/// payload; `None` writes a single output regardless of size.
///
/// `codec` controls training cost: `Some(spec)` writes the outputs with
/// that codec and trains nothing (`outcome.codec` stays `None`); `None`
/// retrains by sampling blocks across all inputs and reports the trained
/// codec for the caller to reuse. Retraining runs full candidate
/// selection — seconds of CPU for PBC pattern extraction — so callers
/// reserve it for large, stable runs and reuse a shared codec for small
/// incremental jobs, where the per-block raw fallback bounds any drift.
///
/// `writer_obs` is cloned into every output writer so block-encode
/// counters and latency land in the caller's metrics; pass
/// [`WriterObs::noop`] when nothing is collecting.
#[allow(clippy::too_many_arguments)]
pub fn merge_segments(
    readers: &[&SegmentReader],
    config: &SegmentConfig,
    drop_tombstones: bool,
    codec: Option<CodecSpec>,
    split_bytes: Option<u64>,
    writer_obs: &WriterObs,
    next_output: &mut dyn FnMut() -> (u64, String, PathBuf),
) -> Result<MergeOutcome> {
    let mut outputs: Vec<MergeOutput> = Vec::new();
    let mut open: Option<OpenOutput> = None;
    let result = merge_into(
        readers,
        config,
        drop_tombstones,
        codec,
        split_bytes,
        writer_obs,
        next_output,
        &mut outputs,
        &mut open,
    );
    match result {
        Ok(outcome) => Ok(outcome),
        Err(e) => {
            // Every file this merge created is unreachable (no manifest
            // names it); remove them all so a failed job leaves no debris.
            for output in &outputs {
                // pbc-allow(drop-result): failed-merge cleanup; the outputs are unreachable debris no manifest names
                let _ = std::fs::remove_file(&output.path);
            }
            if let Some(open) = open {
                // pbc-allow(drop-result): failed-merge cleanup; the open partition is unreachable debris
                let _ = std::fs::remove_file(&open.path);
            }
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn merge_into(
    readers: &[&SegmentReader],
    config: &SegmentConfig,
    drop_tombstones: bool,
    codec: Option<CodecSpec>,
    split_bytes: Option<u64>,
    writer_obs: &WriterObs,
    next_output: &mut dyn FnMut() -> (u64, String, PathBuf),
    outputs: &mut Vec<MergeOutput>,
    open: &mut Option<OpenOutput>,
) -> Result<MergeOutcome> {
    let (codec_spec, retrained) = match codec {
        Some(spec) => (spec, None),
        None => {
            let spec = retrained_codec(readers, config)?;
            let trained = match &spec {
                CodecSpec::Pretrained(codec) => Some(codec.clone()),
                _ => None,
            };
            (spec, trained)
        }
    };
    // Each input is a cursor over flat decoded blocks; heads are compared
    // and written as borrowed slices, so a shadowed or dropped row is never
    // copied out of its block.
    let mut sources: Vec<Scan<'_>> = readers.iter().map(|reader| reader.scan()).collect();
    for source in &mut sources {
        source.advance()?;
    }

    let mut outcome = MergeOutcome {
        live_entries: 0,
        shadowed_dropped: 0,
        tombstones_dropped: 0,
        tombstones_kept: 0,
        outputs: Vec::new(),
        codec: retrained,
    };
    // The round's key, copied once into a reused buffer so the holders can
    // be stepped while it is compared against.
    let mut min_key: Vec<u8> = Vec::new();
    // Each round: smallest key still pending; the newest source holding it
    // (lowest rank — the comparison is strict, so the first holder stays)
    // wins, every other holder is shadowed.
    loop {
        let mut winner: Option<(usize, &[u8], &[u8])> = None;
        for (i, source) in sources.iter().enumerate() {
            if let Some((key, value)) = source.current() {
                if winner.is_none_or(|(_, best, _)| key < best) {
                    winner = Some((i, key, value));
                }
            }
        }
        let Some((winner, key, value)) = winner else {
            break;
        };
        min_key.clear();
        min_key.extend_from_slice(key);
        let tombstone = is_tombstone(value);
        if tombstone && drop_tombstones {
            outcome.tombstones_dropped += 1;
        } else {
            // Roll to a new partition once the boundary is reached; the key
            // stream is sorted, so consecutive outputs cover disjoint ranges.
            if split_bytes.is_some_and(|limit| {
                open.as_ref()
                    .is_some_and(|current| current.estimated_bytes >= limit)
            }) {
                if let Some(finished) = open.take() {
                    outputs.push(finish_or_remove(finished)?);
                }
            }
            let current = match open.as_mut() {
                Some(current) => current,
                None => {
                    let (id, file_name, path) = next_output();
                    let writer = SegmentWriter::create_with_obs(
                        &path,
                        SegmentConfig {
                            codec: codec_spec.clone(),
                            ..config.clone()
                        },
                        writer_obs.clone(),
                    )?;
                    open.insert(OpenOutput {
                        id,
                        file_name,
                        path,
                        writer,
                        tombstones_kept: 0,
                        estimated_bytes: 0,
                    })
                }
            };
            current.estimated_bytes += entry_size_estimate(key.len(), value.len()) as u64;
            if tombstone {
                current.writer.append_flagged(key, value)?;
                current.tombstones_kept += 1;
                outcome.tombstones_kept += 1;
            } else {
                current.writer.append(key, value)?;
                outcome.live_entries += 1;
            }
        }
        for (i, source) in sources.iter_mut().enumerate() {
            if source.current().is_some_and(|(k, _)| k == min_key) {
                outcome.shadowed_dropped += u64::from(i != winner);
                source.advance()?;
            }
        }
    }
    if let Some(finished) = open.take() {
        outputs.push(finish_or_remove(finished)?);
    }
    outcome.outputs = std::mem::take(outputs);
    Ok(outcome)
}

/// Finish one output partition; a finish failure removes the partial file
/// (its `OpenOutput` is consumed, so the outer cleanup cannot see it).
fn finish_or_remove(open: OpenOutput) -> Result<MergeOutput> {
    let OpenOutput {
        id,
        file_name,
        path,
        writer,
        tombstones_kept,
        ..
    } = open;
    match writer.finish() {
        Ok(summary) => Ok(MergeOutput {
            id,
            file_name,
            path,
            summary,
            tombstones_kept,
        }),
        Err(e) => {
            // pbc-allow(drop-result): failed-partition cleanup; no manifest names the file
            let _ = std::fs::remove_file(&path);
            Err(e.into())
        }
    }
}
