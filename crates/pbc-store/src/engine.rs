//! Value codecs for the store: the compression options of Table 8.

use std::fmt;
use std::sync::Arc;

use pbc_codecs::dict::Dictionary;
use pbc_codecs::traits::DictCodec;
use pbc_codecs::zstdlike::ZstdLike;
use pbc_core::{PbcCompressor, PbcConfig};

/// Errors surfaced by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A stored value failed to decompress (corruption or codec mismatch).
    ValueCorrupt {
        /// Description of the failure.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ValueCorrupt { reason } => write!(f, "stored value corrupt: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// How values are compressed inside the store.
#[derive(Clone)]
pub enum ValueCodec {
    /// Store raw bytes (the "Uncompressed" row of Table 8).
    None,
    /// Per-record Zstd-like compression with an offline-trained dictionary
    /// (TierBase's previous solution, the "Zstd" row of Table 8).
    ZstdDict {
        /// The codec (level fixed at training time).
        codec: ZstdLike,
        /// The trained dictionary shared by all records of the workload.
        dictionary: Arc<Vec<u8>>,
    },
    /// Per-record PBC (plain or `PBC_F` depending on how the compressor was
    /// trained) — the paper's integration.
    Pbc(Arc<PbcCompressor>),
}

impl fmt::Debug for ValueCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueCodec::None => write!(f, "ValueCodec::None"),
            ValueCodec::ZstdDict { dictionary, .. } => {
                write!(f, "ValueCodec::ZstdDict({} dict bytes)", dictionary.len())
            }
            ValueCodec::Pbc(pbc) => write!(f, "ValueCodec::Pbc({})", pbc.variant_name()),
        }
    }
}

impl ValueCodec {
    /// Train the dictionary-Zstd codec on sampled values (the paper's
    /// "sample data for a target workload and train a workload-specific
    /// dictionary ... offline" flow).
    pub fn train_zstd_dict(samples: &[&[u8]], level: i32) -> Self {
        let dict = Dictionary::train_default(samples);
        ValueCodec::ZstdDict {
            codec: ZstdLike::new(level),
            dictionary: Arc::new(dict.as_bytes().to_vec()),
        }
    }

    /// Train the `PBC_F` codec on sampled values.
    pub fn train_pbc_f(samples: &[&[u8]], config: &PbcConfig) -> Self {
        ValueCodec::Pbc(Arc::new(PbcCompressor::train_fsst(samples, config)))
    }

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ValueCodec::None => "Uncompressed",
            ValueCodec::ZstdDict { .. } => "Zstd(dict)",
            ValueCodec::Pbc(pbc) => pbc.variant_name(),
        }
    }

    /// Encode a value for storage.
    pub fn encode(&self, value: &[u8]) -> Vec<u8> {
        match self {
            ValueCodec::None => value.to_vec(),
            ValueCodec::ZstdDict { codec, dictionary } => {
                codec.compress_with_dict(value, dictionary)
            }
            ValueCodec::Pbc(pbc) => pbc.compress(value),
        }
    }

    /// Decode a stored value.
    pub fn decode(&self, stored: &[u8]) -> Result<Vec<u8>, StoreError> {
        match self {
            ValueCodec::None => Ok(stored.to_vec()),
            ValueCodec::ZstdDict { codec, dictionary } => codec
                .decompress_with_dict(stored, dictionary)
                .map_err(|e| StoreError::ValueCorrupt {
                    reason: e.to_string(),
                }),
            ValueCodec::Pbc(pbc) => pbc
                .decompress(stored)
                .map_err(|e| StoreError::ValueCorrupt {
                    reason: e.to_string(),
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"order_id\":\"ORD2023{:010}\",\"user_id\":{},\"status\":\"PAID\",\"amount_cents\":{}}}",
                    (i as u64 * 1_234_567_891) % 10_000_000_000,
                    10_000_000 + (i * 9_700_417) % 89_999_999,
                    100 + (i * 7_103) % 5_000_000
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn all_codecs_roundtrip() {
        let values = sample_values(200);
        let refs: Vec<&[u8]> = values[..100].iter().map(|v| v.as_slice()).collect();
        let codecs = [
            ValueCodec::None,
            ValueCodec::train_zstd_dict(&refs, 3),
            ValueCodec::Pbc(Arc::new(PbcCompressor::train(&refs, &PbcConfig::small()))),
            ValueCodec::train_pbc_f(&refs, &PbcConfig::small()),
        ];
        for codec in &codecs {
            for v in &values {
                let stored = codec.encode(v);
                assert_eq!(&codec.decode(&stored).unwrap(), v, "{}", codec.name());
            }
        }
    }

    #[test]
    fn compressed_codecs_reduce_stored_bytes() {
        let values = sample_values(300);
        let refs: Vec<&[u8]> = values[..100].iter().map(|v| v.as_slice()).collect();
        let raw: usize = values.iter().map(|v| v.len()).sum();
        let zstd = ValueCodec::train_zstd_dict(&refs, 3);
        let pbc = ValueCodec::train_pbc_f(&refs, &PbcConfig::small());
        let zstd_total: usize = values.iter().map(|v| zstd.encode(v).len()).sum();
        let pbc_total: usize = values.iter().map(|v| pbc.encode(v).len()).sum();
        assert!(zstd_total < raw);
        assert!(pbc_total < raw);
        assert!(
            pbc_total < zstd_total,
            "PBC_F ({pbc_total}) should beat dictionary Zstd ({zstd_total}) on templated values"
        );
    }

    #[test]
    fn names_distinguish_the_table8_rows() {
        let values = sample_values(50);
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        assert_eq!(ValueCodec::None.name(), "Uncompressed");
        assert_eq!(ValueCodec::train_zstd_dict(&refs, 3).name(), "Zstd(dict)");
        assert_eq!(
            ValueCodec::train_pbc_f(&refs, &PbcConfig::small()).name(),
            "PBC_F"
        );
    }

    #[test]
    fn corrupt_values_are_reported_not_panicking() {
        let values = sample_values(60);
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        let codec = ValueCodec::train_zstd_dict(&refs, 3);
        assert!(codec.decode(&[0xff, 0x13, 0x88]).is_err());
    }
}
