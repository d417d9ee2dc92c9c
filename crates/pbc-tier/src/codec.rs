//! The tier's codec memory. Which blocks train a codec is the segment
//! writer's decision (its [`CodecSpec::Auto`] window); the tier decides
//! only *whether* a write trains, and remembers the codec the last
//! training write committed to so that every other spill and job reuses
//! it — the paper's "train once, ship the trained codec to every writer"
//! flow.
//!
//! A write trains on the first spill, and in any job that rewrites the
//! majority of cold records: the LeCo flow, retraining on big, stable
//! merged runs. Full candidate selection costs seconds of CPU, so small
//! incremental jobs reuse the remembered codec, and the per-block raw
//! fallback bounds any drift until the next big job retrains.

use parking_lot::Mutex;
use pbc_archive::{BlockCodec, CodecSpec, SegmentConfig};

/// The codec spills and jobs write with once one is remembered.
pub(crate) struct TierCodec {
    current: Mutex<Option<BlockCodec>>,
}

impl TierCodec {
    /// A [`CodecSpec::Pretrained`] segment spec is remembered from the
    /// start; any other spec leaves the first spill to select one.
    pub(crate) fn new(segment: &SegmentConfig) -> Self {
        let current = match &segment.codec {
            CodecSpec::Pretrained(codec) => Some(codec.clone()),
            _ => None,
        };
        TierCodec {
            current: Mutex::new(current),
        }
    }

    /// The spec a spill writes with: the remembered codec, or `Auto` when
    /// none is remembered yet.
    pub(crate) fn spill_spec(&self) -> CodecSpec {
        match &*self.current.lock() {
            Some(codec) => CodecSpec::Pretrained(codec.clone()),
            None => CodecSpec::Auto,
        }
    }

    /// The spec a job merging `run_records` of the tier's `total_records`
    /// writes with: `Auto` when it rewrites the majority of them, else the
    /// spill's.
    pub(crate) fn job_spec(&self, run_records: u64, total_records: u64) -> CodecSpec {
        if run_records * 2 >= total_records {
            CodecSpec::Auto
        } else {
            self.spill_spec()
        }
    }

    /// A write with `spec` committed to `committed`: remember it if the
    /// write trained it. Called once the segment set holding that write has
    /// committed.
    pub(crate) fn adopt(&self, spec: &CodecSpec, committed: &BlockCodec) {
        if matches!(spec, CodecSpec::Auto) {
            *self.current.lock() = Some(committed.clone());
        }
    }
}
