//! The shared spill codec. Owns which block codec a spill or a job writes
//! with: first-spill selection, the "retrain only on majority rewrites"
//! rule, the post-job refresh and the sampling a retrain runs on.

use parking_lot::Mutex;
use pbc_archive::{
    entry_size_estimate, select_codec_over_blocks, spread_sample_indices, BlockCodec, CodecSpec,
    Entry, SegmentConfig, SegmentReader,
};

use crate::commit::{encode_live, encode_tombstone};
use crate::config::TierConfig;
use crate::error::Result;
use crate::store::Staging;

/// The trained codec spills reuse (when [`TierConfig::reuse_spill_codec`]
/// is on): selected on the first spill, refreshed by every
/// majority-rewrite compaction job.
#[derive(Default)]
pub(crate) struct SpillCodec {
    shared: Mutex<Option<BlockCodec>>,
}

impl SpillCodec {
    /// The codec spill segments are written with. With codec reuse on,
    /// select once over sample blocks of the first spill's (marker-encoded)
    /// data and pin it; otherwise defer to the configured `SegmentConfig`.
    pub(crate) fn for_spill(&self, config: &TierConfig, merged: &Staging) -> CodecSpec {
        if !config.reuse_spill_codec {
            return config.segment.codec.clone();
        }
        let mut cached = self.shared.lock();
        if let Some(codec) = cached.as_ref() {
            return CodecSpec::Pretrained(codec.clone());
        }
        // Pass 1: the block boundaries the writer will produce, computed
        // with the writer's own rule (entry_size_estimate + block_is_full)
        // so sampling stays aligned with real blocks — the +1 is the
        // tombstone-marker byte prepended to every stored value.
        let mut block_starts = vec![0usize];
        let mut current_bytes = 0usize;
        let mut current_records = 0usize;
        for (n, (key, value)) in merged.iter().enumerate() {
            let stored_len = 1 + value.as_ref().map_or(0, |v| v.len());
            current_bytes += entry_size_estimate(key.len(), stored_len);
            current_records += 1;
            if config.segment.block_is_full(current_records, current_bytes) {
                block_starts.push(n + 1);
                current_bytes = 0;
                current_records = 0;
            }
        }
        if block_starts.len() > 1 && block_starts.last() == Some(&merged.len()) {
            block_starts.pop();
        }
        // Pass 2: materialize only the sampled blocks, in one walk over
        // the map (sampled indices are sorted, so each entry belongs to at
        // most the "current" sampled range).
        let sampled =
            spread_sample_indices(block_starts.len(), config.segment.auto_sample_blocks.max(1));
        let ranges: Vec<(usize, usize)> = sampled
            .iter()
            .map(|&b| {
                (
                    block_starts[b],
                    block_starts.get(b + 1).copied().unwrap_or(merged.len()),
                )
            })
            .collect();
        let mut sample_blocks: Vec<Vec<Entry>> = ranges.iter().map(|_| Vec::new()).collect();
        let mut range_idx = 0usize;
        for (n, (key, value)) in merged.iter().enumerate() {
            while range_idx < ranges.len() && n >= ranges[range_idx].1 {
                range_idx += 1;
            }
            let Some(&(start, _)) = ranges.get(range_idx) else {
                break;
            };
            if n >= start {
                let stored = match value {
                    Some(value) => encode_live(value),
                    None => encode_tombstone(),
                };
                sample_blocks[range_idx].push((key.clone(), stored));
            }
        }
        let sample_refs: Vec<&[Entry]> = sample_blocks.iter().map(|b| b.as_slice()).collect();
        let codec = select_codec_over_blocks(&sample_refs);
        *cached = Some(codec.clone());
        CodecSpec::Pretrained(codec)
    }

    /// The codec a job merging `run_records` of the tier's `total_records`
    /// writes with; `None` means the job retrains on its own inputs.
    ///
    /// Retraining policy (the LeCo flow: retrain lightweight codecs on
    /// stable, merged runs): full candidate selection costs seconds of
    /// CPU, so only jobs rewriting the majority of cold records — big,
    /// stable runs that are representative of the corpus — retrain and
    /// refresh the shared spill codec. Small incremental jobs reuse the
    /// shared codec; their per-block raw fallback bounds any drift until
    /// the next big merge retrains.
    pub(crate) fn for_job(
        &self,
        config: &TierConfig,
        run_records: u64,
        total_records: u64,
    ) -> Option<CodecSpec> {
        self.shared
            .lock()
            .clone()
            .filter(|_| config.reuse_spill_codec && run_records * 2 < total_records)
            .map(CodecSpec::Pretrained)
    }

    /// A committed job retrained on its merged run: future spills reuse
    /// the fresher codec (per job, not per full rewrite).
    pub(crate) fn refresh(&self, retrained: Option<&BlockCodec>) {
        if let Some(codec) = retrained {
            *self.shared.lock() = Some(codec.clone());
        }
    }
}

/// Train a codec for a merged output by sampling up to
/// `config.auto_sample_blocks` blocks spread across the *combined* block
/// count of all inputs — genuinely across the corpus, unlike the streaming
/// writer which can only sample its buffered window. `None` when the
/// inputs hold no block to train on.
pub(crate) fn retrained_codec(
    readers: &[&SegmentReader],
    config: &SegmentConfig,
) -> Result<Option<BlockCodec>> {
    let total_blocks: usize = readers.iter().map(|r| r.block_count()).sum();
    if total_blocks == 0 {
        return Ok(None);
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
    Ok(Some(select_codec_over_blocks(&refs)))
}
