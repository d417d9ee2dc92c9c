//! Block-wise vs per-record storage for the random-access experiment
//! (Figure 5).
//!
//! Existing key-value systems compress values in data blocks: to read one
//! record the whole block must be decompressed. [`BlockStore`] models that
//! path for an arbitrary block codec (Zstd-like in the experiment), while
//! [`PerRecordStore`] models the per-record path (FSST or PBC/PBC_F), where
//! a lookup touches exactly one compressed record.
//!
//! Called by `repro fig5` (both store shapes).

use pbc_codecs::traits::Codec;
use pbc_codecs::varint;

use crate::engine::StoreError;

/// Records packed into fixed-size blocks, each block compressed as a unit.
pub struct BlockStore {
    /// Compressed blocks.
    blocks: Vec<Vec<u8>>,
    /// Records per block.
    block_size: usize,
    /// Total number of records.
    count: usize,
    codec: Box<dyn Codec + Send + Sync>,
    raw_bytes: usize,
}

impl BlockStore {
    /// Build a block store over `records` with `block_size` records per
    /// block, compressing each block with `codec`.
    pub fn build(
        records: &[Vec<u8>],
        block_size: usize,
        codec: Box<dyn Codec + Send + Sync>,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let mut blocks = Vec::new();
        for chunk in records.chunks(block_size) {
            let mut packed = Vec::new();
            varint::write_usize(&mut packed, chunk.len());
            for rec in chunk {
                varint::write_usize(&mut packed, rec.len());
                packed.extend_from_slice(rec);
            }
            blocks.push(codec.compress(&packed));
        }
        BlockStore {
            blocks,
            block_size,
            count: records.len(),
            codec,
            raw_bytes: records.iter().map(|r| r.len()).sum(),
        }
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Compression ratio (compressed / raw).
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 1.0;
        }
        self.compressed_bytes() as f64 / self.raw_bytes as f64
    }

    /// Random access: fetch record `index`, decompressing its whole block —
    /// the cost the paper's Figure 5 measures.
    pub fn lookup(&self, index: usize) -> Result<Vec<u8>, StoreError> {
        if index >= self.count {
            return Err(StoreError::ValueCorrupt {
                reason: format!("index {index} out of range"),
            });
        }
        let block_idx = index / self.block_size;
        let within = index % self.block_size;
        let packed = self
            .codec
            .decompress(&self.blocks[block_idx])
            .map_err(|e| StoreError::ValueCorrupt {
                reason: e.to_string(),
            })?;
        let (count, mut pos) = varint::read_usize(&packed, 0).map_err(to_store_err)?;
        if within >= count {
            return Err(StoreError::ValueCorrupt {
                reason: "record missing from block".to_string(),
            });
        }
        for i in 0..=within {
            let (len, p) = varint::read_usize(&packed, pos).map_err(to_store_err)?;
            pos = p;
            if pos + len > packed.len() {
                return Err(StoreError::ValueCorrupt {
                    reason: "block payload truncated".to_string(),
                });
            }
            if i == within {
                return Ok(packed[pos..pos + len].to_vec());
            }
            pos += len;
        }
        unreachable!("loop always returns at i == within");
    }
}

fn to_store_err(e: pbc_codecs::CodecError) -> StoreError {
    StoreError::ValueCorrupt {
        reason: e.to_string(),
    }
}

/// Records compressed individually: random access touches one record.
pub struct PerRecordStore {
    records: Vec<Vec<u8>>,
    codec: Box<dyn Codec + Send + Sync>,
    raw_bytes: usize,
}

impl PerRecordStore {
    /// Compress every record individually with `codec`.
    pub fn build(records: &[Vec<u8>], codec: Box<dyn Codec + Send + Sync>) -> Self {
        let compressed: Vec<Vec<u8>> = records.iter().map(|r| codec.compress(r)).collect();
        PerRecordStore {
            records: compressed,
            codec,
            raw_bytes: records.iter().map(|r| r.len()).sum(),
        }
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.records.iter().map(|r| r.len()).sum()
    }

    /// Compression ratio (compressed / raw).
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 1.0;
        }
        self.compressed_bytes() as f64 / self.raw_bytes as f64
    }

    /// Random access: decompress exactly one record.
    pub fn lookup(&self, index: usize) -> Result<Vec<u8>, StoreError> {
        let stored = self
            .records
            .get(index)
            .ok_or_else(|| StoreError::ValueCorrupt {
                reason: format!("index {index} out of range"),
            })?;
        self.codec.decompress(stored).map_err(to_store_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_codecs::zstdlike::ZstdLike;
    use pbc_core::{PbcCompressor, PbcConfig};

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                // Spread the numeric fields over their whole digit range so
                // the training sample is representative of later records.
                format!(
                    "{{\"order_id\":\"ORD2023{:08}\",\"user_id\":{},\"status\":\"PAID\",\"amount\":{}}}",
                    (i * 12_345_701) % 100_000_000,
                    20_000_000 + (i * 7_919_993) % 79_000_000,
                    (i * 137 + 11) % 100_000
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn block_store_lookup_returns_original_records() {
        let recs = records(100);
        for block_size in [1usize, 4, 16, 64] {
            let store = BlockStore::build(&recs, block_size, Box::new(ZstdLike::new(3)));
            assert_eq!(store.len(), 100);
            for idx in [0usize, 1, 17, 63, 99] {
                assert_eq!(
                    store.lookup(idx).unwrap(),
                    recs[idx],
                    "block_size {block_size}"
                );
            }
            assert!(store.lookup(100).is_err());
        }
    }

    #[test]
    fn larger_blocks_improve_block_compression_ratio() {
        let recs = records(256);
        let small = BlockStore::build(&recs, 1, Box::new(ZstdLike::new(3)));
        let large = BlockStore::build(&recs, 64, Box::new(ZstdLike::new(3)));
        assert!(
            large.ratio() < small.ratio(),
            "64-record blocks ({:.3}) should compress better than 1-record blocks ({:.3})",
            large.ratio(),
            small.ratio()
        );
    }

    #[test]
    fn per_record_store_with_pbc_has_stable_ratio_and_fast_path() {
        let recs = records(300);
        let sample: Vec<&[u8]> = recs[..100].iter().map(|r| r.as_slice()).collect();
        let pbc = PbcCompressor::train_fsst(&sample, &PbcConfig::small());
        let store = PerRecordStore::build(&recs, Box::new(pbc));
        assert_eq!(store.len(), 300);
        assert!(store.ratio() < 0.6, "ratio {:.3}", store.ratio());
        for idx in [0usize, 123, 299] {
            assert_eq!(store.lookup(idx).unwrap(), recs[idx]);
        }
        assert!(store.lookup(300).is_err());
    }

    #[test]
    fn empty_stores_are_well_behaved() {
        let store = BlockStore::build(&[], 8, Box::new(ZstdLike::new(1)));
        assert!(store.is_empty());
        assert_eq!(store.ratio(), 1.0);
        let store = PerRecordStore::build(&[], Box::new(ZstdLike::new(1)));
        assert!(store.is_empty());
        assert_eq!(store.ratio(), 1.0);
    }
}
