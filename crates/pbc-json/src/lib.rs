//! # pbc-json — JSON substrate and JSON-specialised compression baselines
//!
//! The PBC paper compares against JSON-specific serialisation formats
//! (Section 7.4.2): *Amazon Ion* in its binary form ("Ion-B") and
//! *JSON BinPack* in its schema-driven mode ("BP-D"). This crate provides
//! the substrate needed to reproduce those experiments without third-party
//! dependencies:
//!
//! * [`value`] / [`parser`] / [`writer`] — a small JSON document model,
//!   parser and serializer;
//! * [`ionlike`] — a compact, schema-less binary encoding in the spirit of
//!   Amazon Ion's binary format (type tags + varint lengths);
//! * [`schema`] + [`binpack`] — schema inference over sample documents and a
//!   schema-driven encoding in the spirit of JSON BinPack's schema-driven
//!   mode (field order fixed by the schema, keys never serialized, enum and
//!   integer specialisations).
//!
//! All encoders work per record (document), which is what the paper's
//! record-compression experiment (Table 6, left half) measures; file-level
//! numbers are obtained by the benchmark harness by concatenating encoded
//! records and applying a block compressor.

#![forbid(unsafe_code)]

pub mod binpack;
pub mod error;
pub mod ionlike;
pub mod parser;
pub mod schema;
pub mod value;
pub mod writer;

pub use binpack::BinPackCodec;
pub use error::{JsonError, Result};
pub use ionlike::IonLikeCodec;
pub use parser::parse;
pub use schema::Schema;
pub use value::{JsonValue, Number};
pub use writer::to_string;
