//! Block-compressed PBC variants: `PBC_Z` (Zstd-like backend) and `PBC_L`
//! (LZMA-like backend).
//!
//! Section 5.2 / Section 7.2.3: PBC is orthogonal to block compression —
//! after records are individually pattern-compressed, the concatenated
//! output can be passed to a dictionary compressor to squeeze the remaining
//! redundancy (at the price of losing per-record random access, exactly like
//! the paper's `PBC_Z` / `PBC_L` file-compression variants).

use pbc_codecs::traits::Codec;
use pbc_codecs::varint;
use pbc_codecs::{LzmaLike, ZstdLike};

use crate::compressor::PbcCompressor;
use crate::config::PbcConfig;
use crate::error::{PbcError, Result};

/// A PBC compressor whose per-record output is additionally block-compressed
/// by a general-purpose backend.
pub struct PbcBlockCompressor {
    pbc: PbcCompressor,
    backend: Box<dyn Codec + Send + Sync>,
    name: &'static str,
}

impl PbcBlockCompressor {
    /// `PBC_Z`: PBC followed by the Zstd-like codec.
    pub fn zstd(samples: &[&[u8]], config: &PbcConfig, level: i32) -> Self {
        PbcBlockCompressor {
            pbc: PbcCompressor::train(samples, config),
            backend: Box::new(ZstdLike::new(level)),
            name: "PBC_Z",
        }
    }

    /// `PBC_L`: PBC followed by the LZMA-like codec.
    pub fn lzma(samples: &[&[u8]], config: &PbcConfig, level: i32) -> Self {
        PbcBlockCompressor {
            pbc: PbcCompressor::train(samples, config),
            backend: Box::new(LzmaLike::new(level)),
            name: "PBC_L",
        }
    }

    /// Wrap an already-trained PBC compressor with an arbitrary backend.
    pub fn with_backend(
        pbc: PbcCompressor,
        backend: Box<dyn Codec + Send + Sync>,
        name: &'static str,
    ) -> Self {
        PbcBlockCompressor { pbc, backend, name }
    }

    /// Variant name for benchmark tables ("PBC_Z", "PBC_L", ...).
    pub fn variant_name(&self) -> &'static str {
        self.name
    }

    /// Access the inner per-record compressor.
    pub fn inner(&self) -> &PbcCompressor {
        &self.pbc
    }

    /// Compress a whole block (file) of records: each record is
    /// pattern-compressed, length-prefixed, concatenated, and the result is
    /// block-compressed by the backend.
    pub fn compress_block(&self, records: &[Vec<u8>]) -> Vec<u8> {
        let mut intermediate = Vec::new();
        varint::write_usize(&mut intermediate, records.len());
        for rec in records {
            let compressed = self.pbc.compress(rec);
            varint::write_usize(&mut intermediate, compressed.len());
            intermediate.extend_from_slice(&compressed);
        }
        self.backend.compress(&intermediate)
    }

    /// Decompress a block produced by [`Self::compress_block`], returning
    /// the original records.
    pub fn decompress_block(&self, block: &[u8]) -> Result<Vec<Vec<u8>>> {
        let intermediate = self.backend.decompress(block)?;
        let (count, mut pos) = varint::read_usize(&intermediate, 0)?;
        if count > intermediate.len() {
            return Err(PbcError::CorruptDictionary {
                reason: format!("implausible record count {count} in block"),
            });
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let (len, p) = varint::read_usize(&intermediate, pos)?;
            let end = p
                .checked_add(len)
                .filter(|&end| end <= intermediate.len())
                .ok_or(PbcError::Truncated {
                    context: "block record payload",
                })?;
            records.push(self.pbc.decompress(&intermediate[p..end])?);
            pos = end;
        }
        Ok(records)
    }

    /// Block compression ratio over a record set (compressed / raw).
    pub fn block_ratio(&self, records: &[Vec<u8>]) -> f64 {
        let raw: usize = records.iter().map(|r| r.len()).sum();
        if raw == 0 {
            return 1.0;
        }
        self.compress_block(records).len() as f64 / raw as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_records(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "2023-06-13 10:{:02}:{:02} INFO dfs.DataNode$PacketResponder: Received block blk_{} of size {} from /10.0.{}.{}",
                    (i / 60) % 60,
                    i % 60,
                    5_000_000 + i * 97,
                    67_108_864 - (i % 4096),
                    i % 256,
                    (i * 7) % 256
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn block_roundtrip_zstd_backend() {
        let records = log_records(200);
        let refs: Vec<&[u8]> = records[..80].iter().map(|r| r.as_slice()).collect();
        let codec = PbcBlockCompressor::zstd(&refs, &PbcConfig::small(), 3);
        assert_eq!(codec.variant_name(), "PBC_Z");
        let block = codec.compress_block(&records);
        let restored = codec.decompress_block(&block).unwrap();
        assert_eq!(restored, records);
    }

    #[test]
    fn block_roundtrip_lzma_backend() {
        let records = log_records(150);
        let refs: Vec<&[u8]> = records[..80].iter().map(|r| r.as_slice()).collect();
        let codec = PbcBlockCompressor::lzma(&refs, &PbcConfig::small(), 6);
        assert_eq!(codec.variant_name(), "PBC_L");
        let block = codec.compress_block(&records);
        let restored = codec.decompress_block(&block).unwrap();
        assert_eq!(restored, records);
    }

    #[test]
    fn block_variants_compress_tighter_than_per_record_pbc() {
        let records = log_records(300);
        let refs: Vec<&[u8]> = records[..100].iter().map(|r| r.as_slice()).collect();
        let config = PbcConfig::small();
        let block = PbcBlockCompressor::zstd(&refs, &config, 3);
        let per_record = PbcCompressor::train(&refs, &config);

        let raw: usize = records.iter().map(|r| r.len()).sum();
        let per_record_total: usize = records.iter().map(|r| per_record.compress(r).len()).sum();
        let block_total = block.compress_block(&records).len();
        assert!(
            block_total < per_record_total,
            "block {} vs per-record {} (raw {})",
            block_total,
            per_record_total,
            raw
        );
        assert!(block.block_ratio(&records) < 0.5);
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        let records = log_records(50);
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let codec = PbcBlockCompressor::zstd(&refs, &PbcConfig::small(), 3);
        let mut block = codec.compress_block(&records);
        block.truncate(block.len() / 2);
        assert!(codec.decompress_block(&block).is_err());
        assert!(codec.decompress_block(&[1, 2, 3]).is_err());
    }

    #[test]
    fn empty_block_roundtrips() {
        let records = log_records(30);
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let codec = PbcBlockCompressor::zstd(&refs, &PbcConfig::small(), 3);
        let block = codec.compress_block(&[]);
        assert!(codec.decompress_block(&block).unwrap().is_empty());
        assert_eq!(codec.block_ratio(&[]), 1.0);
    }
}
