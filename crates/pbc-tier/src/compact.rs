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
//! One merge, one codec: the first output is written with the spec the
//! caller configured (under [`CodecSpec::Auto`] its writer selects and
//! trains one), and every later output reuses the codec the first
//! committed to, as [`CodecSpec::Pretrained`].
//!
//! Tombstones are dropped: a leveled job includes every segment that could
//! hold an older version of its keys, so no tombstone has anything left
//! to shadow and L1 never stores one.

use std::path::PathBuf;

use pbc_archive::{
    entry_size_estimate, CodecSpec, Scan, SegmentConfig, SegmentReader, SegmentSummary,
    SegmentWriter, WriterObs,
};

use crate::commit::{is_tombstone, UncommittedFiles};
use crate::error::Result;

/// One materialized output partition of a merge.
#[derive(Debug, Clone)]
pub struct MergeOutput {
    /// Segment id the `next_output` callback allocated for this partition.
    pub id: u64,
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
    /// ranges). Empty when nothing survived. All share the first one's
    /// codec ([`SegmentSummary::block_codec`]).
    pub outputs: Vec<MergeOutput>,
}

/// An output partition currently being written.
struct OpenOutput {
    id: u64,
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
/// `config.codec` is the spec the first output is written with; later
/// outputs write the codec it committed to (see the [module docs](self)).
/// Pass [`CodecSpec::Pretrained`] to train nothing.
///
/// `writer_obs` is cloned into every output writer so block-encode
/// counters and latency land in the caller's metrics; pass
/// [`WriterObs::noop`] when nothing is collecting.
pub fn merge_segments(
    readers: &[&SegmentReader],
    config: &SegmentConfig,
    split_bytes: Option<u64>,
    writer_obs: &WriterObs,
    next_output: &mut dyn FnMut() -> (u64, PathBuf),
) -> Result<MergeOutcome> {
    // Every file this merge creates is unreachable (no manifest names it)
    // until the caller commits; an error below removes them all.
    let mut created = UncommittedFiles::default();
    let mut open: Option<OpenOutput> = None;
    let mut config = config.clone();
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
                    let finished = finished.finish()?;
                    config.codec = CodecSpec::Pretrained(finished.summary.block_codec.clone());
                    outcome.outputs.push(finished);
                }
            }
            let current = match open.as_mut() {
                Some(current) => current,
                None => {
                    let (id, path) = next_output();
                    created.push(path.clone());
                    let writer =
                        SegmentWriter::create_with_obs(&path, config.clone(), writer_obs.clone())?;
                    open.insert(OpenOutput {
                        id,
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
            (next_id, parent.join(name))
        };
        let result = merge_segments(
            &[&reader],
            &SegmentConfig::with_codec(CodecSpec::Raw),
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
