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
//! Tombstones are dropped: a leveled job includes every segment that could
//! hold an older version of its keys, so no tombstone has anything left
//! to shadow and L1 never stores one.

use std::path::PathBuf;

use pbc_archive::{
    entry_size_estimate, BlockCodec, CodecSpec, Scan, SegmentConfig, SegmentReader, SegmentSummary,
    SegmentWriter, WriterObs,
};

use crate::codec::retrained_codec;
use crate::commit::{is_tombstone, UncommittedFiles};
use crate::error::Result;

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
}

/// What a merge pass produced.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// Live entries written across all output partitions.
    pub live_entries: u64,
    /// Entries dropped because a newer segment shadowed them.
    pub shadowed_dropped: u64,
    /// Tombstones dropped.
    pub tombstones_dropped: u64,
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
    /// Estimated serialized payload written so far (the writer's own
    /// per-entry estimate, so the split boundary tracks real blocks).
    estimated_bytes: u64,
}

impl OpenOutput {
    fn finish(self) -> Result<MergeOutput> {
        Ok(MergeOutput {
            id: self.id,
            file_name: self.file_name,
            path: self.path,
            summary: self.writer.finish()?,
        })
    }
}

/// Merge `readers` (newest first) into fresh segments allocated by
/// `next_output`.
///
/// Output keys are unique and ascending across the whole output sequence,
/// and every one is live: tombstones are dropped, so `readers` must
/// include every segment that could hold an older version of their keys.
/// Values keep their live-marker encoding. When nothing survives, no file
/// is written and `outputs` is empty.
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
pub fn merge_segments(
    readers: &[&SegmentReader],
    config: &SegmentConfig,
    codec: Option<CodecSpec>,
    split_bytes: Option<u64>,
    writer_obs: &WriterObs,
    next_output: &mut dyn FnMut() -> (u64, String, PathBuf),
) -> Result<MergeOutcome> {
    // Every file this merge creates is unreachable (no manifest names it)
    // until the caller commits; an error below removes them all.
    let mut created = UncommittedFiles::default();
    let mut open: Option<OpenOutput> = None;
    let (codec_spec, retrained) = match codec {
        Some(spec) => (spec, None),
        None => match retrained_codec(readers, config)? {
            Some(codec) => (CodecSpec::Pretrained(codec.clone()), Some(codec)),
            None => (CodecSpec::Raw, None),
        },
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
        if is_tombstone(value) {
            outcome.tombstones_dropped += 1;
        } else {
            // Roll to a new partition once the boundary is reached; the key
            // stream is sorted, so consecutive outputs cover disjoint ranges.
            if split_bytes.is_some_and(|limit| {
                open.as_ref()
                    .is_some_and(|current| current.estimated_bytes >= limit)
            }) {
                if let Some(finished) = open.take() {
                    outcome.outputs.push(finished.finish()?);
                }
            }
            let current = match open.as_mut() {
                Some(current) => current,
                None => {
                    let (id, file_name, path) = next_output();
                    created.push(path.clone());
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
                        estimated_bytes: 0,
                    })
                }
            };
            current.estimated_bytes += entry_size_estimate(key.len(), value.len()) as u64;
            current.writer.append(key, value)?;
            outcome.live_entries += 1;
        }
        for (i, source) in sources.iter_mut().enumerate() {
            if source.current().is_some_and(|(k, _)| k == min_key) {
                outcome.shadowed_dropped += u64::from(i != winner);
                source.advance()?;
            }
        }
    }
    if let Some(finished) = open {
        outcome.outputs.push(finished.finish()?);
    }
    created.disarm();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::encode_live;
    use crate::test_support::temp_dir;

    #[test]
    fn a_failed_merge_removes_every_output_it_created() {
        let (dir, _guard) = temp_dir("merge-cleanup");
        let input = dir.join("input.seg");
        let mut writer = SegmentWriter::create(&input, SegmentConfig::default()).unwrap();
        for i in 0..200u32 {
            let value = encode_live(format!("value-{i:04}-padding-padding").as_bytes());
            writer
                .append(format!("key:{i:04}").as_bytes(), &value)
                .unwrap();
        }
        writer.finish().unwrap();
        let reader = SegmentReader::open(&input).unwrap();

        // The first output lands in `dir`; the second is handed a path
        // under a directory that does not exist, so its create fails.
        let mut next_id = 0u64;
        let mut next_output = || {
            next_id += 1;
            let name = format!("seg-{next_id:06}.seg");
            let parent = if next_id == 1 {
                dir.clone()
            } else {
                dir.join("missing")
            };
            (next_id, name.clone(), parent.join(name))
        };
        let result = merge_segments(
            &[&reader],
            &SegmentConfig::default(),
            Some(CodecSpec::Raw),
            Some(1024), // several partitions' worth of input
            &WriterObs::noop(),
            &mut next_output,
        );
        assert!(result.is_err(), "the second partition cannot be created");
        assert!(next_id >= 2, "the merge reached its second output");
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("seg-"))
            .collect();
        assert!(leftovers.is_empty(), "outputs left behind: {leftovers:?}");
    }
}
