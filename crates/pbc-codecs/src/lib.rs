//! # pbc-codecs
//!
//! From-scratch implementations of the baseline compressors the PBC paper
//! (SIGMOD 2023, "High-Ratio Compression for Machine-Generated Data")
//! evaluates against, plus the coding primitives shared by the PBC core
//! crate.
//!
//! The crate intentionally contains no third-party compression dependencies:
//! every codec is implemented here so the reproduction is self-contained and
//! so the benchmark harness compares *algorithm classes* rather than binary
//! artifacts.
//!
//! ## Codec inventory
//!
//! | Module | Stands in for | Algorithm class |
//! |---|---|---|
//! | [`lz4like`] | LZ4 | LZ77 hash-chain matching, byte-oriented token format, no entropy stage |
//! | [`snappylike`] | Snappy | LZ77 with Snappy-style tag bytes |
//! | [`zstdlike`] | Zstandard | LZ77 (large window) + canonical Huffman entropy stage, compression levels, offline dictionary training |
//! | [`lzmalike`] | LZMA | LZ77 + adaptive binary range coder with context modelling |
//! | [`fsst`] | FSST | Trained static symbol table (≤255 symbols of 1–8 bytes), per-string random access |
//! | [`huffman`] | — | Canonical Huffman coder used by `zstdlike` and available as a residual encoder |
//! | [`range_coder`] | — | Adaptive binary range coder used by `lzmalike` |
//! | [`dict`] | `zstd --train` | Sample-based dictionary training for short-record compression |
//!
//! ## Primitives
//!
//! [`varint`] (LEB128), [`bitstream`] (MSB-first bit IO), [`lz77`]
//! (hash-chain match finder) are shared by the codecs and re-used by
//! `pbc-core` field encoders. [`crc`] is the CRC-32 every stored format
//! of the workspace checksums with.
//!
//! ## Quick example
//!
//! ```
//! use pbc_codecs::{Codec, zstdlike::ZstdLike};
//!
//! let codec = ZstdLike::new(3);
//! let data = b"machine-generated machine-generated machine-generated data".to_vec();
//! let compressed = codec.compress(&data);
//! assert!(compressed.len() < data.len());
//! assert_eq!(codec.decompress(&compressed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

pub mod bitstream;
pub mod crc;
pub mod dict;
pub mod error;
pub mod fsst;
pub mod huffman;
pub mod lz4like;
pub mod lz77;
pub mod lzmalike;
pub mod range_coder;
pub mod snappylike;
pub mod traits;
pub mod varint;
pub mod zstdlike;

pub use dict::Dictionary;
pub use error::{CodecError, Result};
pub use fsst::FsstCodec;
pub use lz4like::Lz4Like;
pub use lzmalike::LzmaLike;
pub use snappylike::SnappyLike;
pub use traits::{Codec, DictCodec, RecordCorpusExt, TrainableCodec};
pub use zstdlike::ZstdLike;
