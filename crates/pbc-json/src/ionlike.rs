//! Ion-like binary JSON encoding ("Ion-B" in the paper's Table 6).
//!
//! A schema-less, self-describing binary serialisation in the spirit of
//! Amazon Ion's binary format: every value carries a one-byte type tag,
//! lengths and integers are varint/zig-zag coded, and object keys are
//! written through a per-document symbol table so repeated keys inside one
//! document cost one byte after their first occurrence. Like the real
//! Ion binary format (and unlike PBC), cross-document redundancy is not
//! exploited — which is exactly the gap Table 6 demonstrates.
//!
//! Called by `repro table6` (the Ion-B rows).

use pbc_codecs::varint;

use crate::error::{JsonError, Result};
use crate::value::{JsonValue, Number};

/// Type tags of the binary format.
mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const STRING: u8 = 5;
    pub const ARRAY: u8 = 6;
    pub const OBJECT: u8 = 7;
    /// Key reference into the per-document symbol table.
    pub const KEY_REF: u8 = 8;
    /// Inline key definition (added to the symbol table).
    pub const KEY_DEF: u8 = 9;
}

/// Encoder/decoder for the Ion-like format.
#[derive(Debug, Clone, Default)]
pub struct IonLikeCodec;

impl IonLikeCodec {
    /// Create the codec.
    pub fn new() -> Self {
        IonLikeCodec
    }

    /// Encode one JSON document.
    pub fn encode(&self, value: &JsonValue) -> Vec<u8> {
        let mut out = Vec::new();
        let mut symbols: Vec<String> = Vec::new();
        encode_value(value, &mut out, &mut symbols);
        out
    }

    /// Decode a document produced by [`IonLikeCodec::encode`].
    pub fn decode(&self, input: &[u8]) -> Result<JsonValue> {
        let mut symbols: Vec<String> = Vec::new();
        let (value, pos) = decode_value(input, 0, &mut symbols, 0)?;
        if pos != input.len() {
            return Err(JsonError::corrupt("trailing bytes after document"));
        }
        Ok(value)
    }

    /// Encode JSON text directly (parse + encode), as the benchmark harness
    /// does for the record-compression experiment.
    pub fn encode_text(&self, text: &str) -> Result<Vec<u8>> {
        Ok(self.encode(&crate::parser::parse(text)?))
    }
}

fn encode_value(value: &JsonValue, out: &mut Vec<u8>, symbols: &mut Vec<String>) {
    match value {
        JsonValue::Null => out.push(tag::NULL),
        JsonValue::Bool(false) => out.push(tag::FALSE),
        JsonValue::Bool(true) => out.push(tag::TRUE),
        JsonValue::Number(Number::Int(i)) => {
            out.push(tag::INT);
            varint::write_i64(out, *i);
        }
        JsonValue::Number(Number::Float(f)) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        JsonValue::String(s) => {
            out.push(tag::STRING);
            varint::write_usize(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        JsonValue::Array(items) => {
            out.push(tag::ARRAY);
            varint::write_usize(out, items.len());
            for item in items {
                encode_value(item, out, symbols);
            }
        }
        JsonValue::Object(members) => {
            out.push(tag::OBJECT);
            varint::write_usize(out, members.len());
            for (key, val) in members {
                match symbols.iter().position(|s| s == key) {
                    Some(idx) => {
                        out.push(tag::KEY_REF);
                        varint::write_usize(out, idx);
                    }
                    None => {
                        out.push(tag::KEY_DEF);
                        varint::write_usize(out, key.len());
                        out.extend_from_slice(key.as_bytes());
                        symbols.push(key.clone());
                    }
                }
                encode_value(val, out, symbols);
            }
        }
    }
}

/// Depth guard against adversarially nested payloads.
const MAX_DEPTH: usize = 128;

fn decode_value(
    input: &[u8],
    pos: usize,
    symbols: &mut Vec<String>,
    depth: usize,
) -> Result<(JsonValue, usize)> {
    if depth > MAX_DEPTH {
        return Err(JsonError::corrupt("nesting too deep"));
    }
    let t = *input
        .get(pos)
        .ok_or_else(|| JsonError::corrupt("missing type tag"))?;
    let pos = pos + 1;
    match t {
        tag::NULL => Ok((JsonValue::Null, pos)),
        tag::FALSE => Ok((JsonValue::Bool(false), pos)),
        tag::TRUE => Ok((JsonValue::Bool(true), pos)),
        tag::INT => {
            let (v, pos) = varint::read_i64(input, pos)?;
            Ok((JsonValue::Number(Number::Int(v)), pos))
        }
        tag::FLOAT => {
            if pos + 8 > input.len() {
                return Err(JsonError::corrupt("truncated float"));
            }
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&input[pos..pos + 8]);
            Ok((
                JsonValue::Number(Number::Float(f64::from_le_bytes(bytes))),
                pos + 8,
            ))
        }
        tag::STRING => {
            let (len, pos) = varint::read_usize(input, pos)?;
            let (s, pos) = read_str(input, pos, len)?;
            Ok((JsonValue::String(s), pos))
        }
        tag::ARRAY => {
            let (count, mut pos) = varint::read_usize(input, pos)?;
            if count > input.len() {
                return Err(JsonError::corrupt("implausible array length"));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let (v, p) = decode_value(input, pos, symbols, depth + 1)?;
                items.push(v);
                pos = p;
            }
            Ok((JsonValue::Array(items), pos))
        }
        tag::OBJECT => {
            let (count, mut pos) = varint::read_usize(input, pos)?;
            if count > input.len() {
                return Err(JsonError::corrupt("implausible object length"));
            }
            let mut members = Vec::with_capacity(count);
            for _ in 0..count {
                let key_tag = *input
                    .get(pos)
                    .ok_or_else(|| JsonError::corrupt("missing key tag"))?;
                pos += 1;
                let key = match key_tag {
                    tag::KEY_REF => {
                        let (idx, p) = varint::read_usize(input, pos)?;
                        pos = p;
                        symbols
                            .get(idx)
                            .ok_or_else(|| JsonError::corrupt("symbol reference out of range"))?
                            .clone()
                    }
                    tag::KEY_DEF => {
                        let (len, p) = varint::read_usize(input, pos)?;
                        let (s, p) = read_str(input, p, len)?;
                        pos = p;
                        symbols.push(s.clone());
                        s
                    }
                    other => return Err(JsonError::corrupt(format!("unexpected key tag {other}"))),
                };
                let (v, p) = decode_value(input, pos, symbols, depth + 1)?;
                pos = p;
                members.push((key, v));
            }
            Ok((JsonValue::Object(members), pos))
        }
        other => Err(JsonError::corrupt(format!("unknown type tag {other}"))),
    }
}

fn read_str(input: &[u8], pos: usize, len: usize) -> Result<(String, usize)> {
    if pos + len > input.len() {
        return Err(JsonError::corrupt("truncated string"));
    }
    let s = std::str::from_utf8(&input[pos..pos + len])
        .map_err(|_| JsonError::corrupt("invalid UTF-8 in string"))?
        .to_string();
    Ok((s, pos + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(text: &str) -> usize {
        let codec = IonLikeCodec::new();
        let doc = parse(text).unwrap();
        let encoded = codec.encode(&doc);
        assert_eq!(codec.decode(&encoded).unwrap(), doc, "roundtrip of {text}");
        encoded.len()
    }

    #[test]
    fn roundtrips_scalars_and_containers() {
        roundtrip("null");
        roundtrip("true");
        roundtrip("-12345");
        roundtrip("3.75");
        roundtrip("\"hello world\"");
        roundtrip("[1, 2, 3, [4, 5], {\"a\": null}]");
        roundtrip("{}");
        roundtrip("[]");
    }

    #[test]
    fn encoding_is_smaller_than_text_for_typical_records() {
        let text = r#"{"symbol": "IBM", "side": "B", "quantity": 100, "price": 50.25, "timestamp": 1639574096}"#;
        let size = roundtrip(text);
        assert!(
            size < text.len(),
            "binary ({size}) should be smaller than text ({})",
            text.len()
        );
    }

    #[test]
    fn repeated_keys_within_a_document_use_the_symbol_table() {
        // An array of objects with identical keys: keys are written once.
        let many = format!(
            "[{}]",
            (0..20)
                .map(|i| format!(
                    r#"{{"latitude": {i}.5, "longitude": -{i}.25, "population": {i}}}"#
                ))
                .collect::<Vec<_>>()
                .join(",")
        );
        let few = r#"[{"latitude": 0.5, "longitude": -0.25, "population": 0}]"#;
        let codec = IonLikeCodec::new();
        let many_size = codec.encode(&parse(&many).unwrap()).len();
        let few_size = codec.encode(&parse(few).unwrap()).len();
        // 20 objects must cost much less than 20× one object.
        assert!(many_size < few_size * 12, "many={many_size} few={few_size}");
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let codec = IonLikeCodec::new();
        assert!(codec.decode(&[]).is_err());
        assert!(codec.decode(&[200]).is_err());
        assert!(codec.decode(&[tag::STRING, 10, b'a']).is_err());
        let doc = parse(r#"{"a": [1, 2, 3]}"#).unwrap();
        let mut enc = codec.encode(&doc);
        enc.truncate(enc.len() - 2);
        assert!(codec.decode(&enc).is_err());
        // Trailing garbage.
        let mut enc = codec.encode(&doc);
        enc.push(0);
        assert!(codec.decode(&enc).is_err());
    }

    #[test]
    fn encode_text_parses_and_encodes() {
        let codec = IonLikeCodec::new();
        assert!(codec.encode_text(r#"{"ok": true}"#).is_ok());
        assert!(codec.encode_text("not json").is_err());
    }

    #[test]
    fn unicode_strings_roundtrip() {
        roundtrip(r#"{"city": "München", "emoji": "🗜️", "cjk": "機械生成データ"}"#);
    }
}
