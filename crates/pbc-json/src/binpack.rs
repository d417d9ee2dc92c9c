//! Schema-driven binary JSON encoding ("BP-D" in the paper's Tables 6–7),
//! in the spirit of JSON BinPack's schema-driven mode.
//!
//! The codec is trained on sample documents: it infers a [`Schema`] and then
//! encodes each document *against* that schema — object keys are never
//! serialized (the schema fixes the field order), enum strings become small
//! integers, integers are zig-zag varints, optional fields cost one presence
//! bit (byte). Documents that do not conform to the schema are embedded via
//! the schema-less Ion-like encoding behind an escape marker, mirroring how
//! a schema-driven serializer must handle out-of-schema data.
//!
//! This reproduces the behaviour the paper highlights in Section 7.4.2: the
//! schema captures co-occurrence at the *key* level, but not among values —
//! which is why PBC can beat it on datasets like `github` despite having no
//! schema knowledge at all.
//!
//! Called by `repro table6` and `repro table7` (the BP-D rows).

use pbc_codecs::varint;

use crate::error::{JsonError, Result};
use crate::ionlike::IonLikeCodec;
use crate::schema::Schema;
use crate::value::{JsonValue, Number};

/// Marker written before a document that does not conform to the schema.
const ESCAPE_MARKER: u8 = 0xfe;
/// Marker written before a conforming document.
const CONFORMING_MARKER: u8 = 0xff;

/// A trained, schema-driven codec.
#[derive(Debug, Clone)]
pub struct BinPackCodec {
    schema: Schema,
    fallback: IonLikeCodec,
}

impl BinPackCodec {
    /// Train the codec by inferring a schema from sample documents.
    pub fn train(samples: &[&JsonValue]) -> Self {
        BinPackCodec {
            schema: Schema::infer(samples),
            fallback: IonLikeCodec::new(),
        }
    }

    /// Build a codec from an explicit schema (the "application-provided
    /// schema" setting of the paper).
    pub fn with_schema(schema: Schema) -> Self {
        BinPackCodec {
            schema,
            fallback: IonLikeCodec::new(),
        }
    }

    /// The schema driving this codec.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Encode one document.
    pub fn encode(&self, doc: &JsonValue) -> Vec<u8> {
        let mut out = Vec::new();
        if self.schema.matches(doc) {
            out.push(CONFORMING_MARKER);
            encode_with_schema(&self.schema, doc, &mut out);
        } else {
            out.push(ESCAPE_MARKER);
            out.extend_from_slice(&self.fallback.encode(doc));
        }
        out
    }

    /// Decode a document produced by [`BinPackCodec::encode`].
    pub fn decode(&self, input: &[u8]) -> Result<JsonValue> {
        match input.first() {
            Some(&CONFORMING_MARKER) => {
                let (value, pos) = decode_with_schema(&self.schema, input, 1)?;
                if pos != input.len() {
                    return Err(JsonError::corrupt("trailing bytes after document"));
                }
                Ok(value)
            }
            Some(&ESCAPE_MARKER) => self.fallback.decode(&input[1..]),
            Some(other) => Err(JsonError::corrupt(format!(
                "unknown document marker {other:#x}"
            ))),
            None => Err(JsonError::corrupt("empty payload")),
        }
    }
}

fn encode_with_schema(schema: &Schema, value: &JsonValue, out: &mut Vec<u8>) {
    match (schema, value) {
        (Schema::Null, _) => {}
        (Schema::Bool, JsonValue::Bool(b)) => out.push(u8::from(*b)),
        (Schema::Int, JsonValue::Number(Number::Int(i))) => {
            varint::write_i64(out, *i);
        }
        (Schema::Float, JsonValue::Number(n)) => {
            out.extend_from_slice(&n.as_f64().to_le_bytes());
        }
        (Schema::Enum(options), JsonValue::String(s)) => {
            match options.iter().position(|o| o == s) {
                Some(idx) => {
                    varint::write_usize(out, idx + 1);
                }
                None => {
                    // Out-of-enumeration value: 0 marker followed by the raw
                    // string.
                    varint::write_usize(out, 0);
                    write_string(s, out);
                }
            }
        }
        (Schema::String, JsonValue::String(s)) => write_string(s, out),
        (Schema::Array(elem), JsonValue::Array(items)) => {
            varint::write_usize(out, items.len());
            for item in items {
                encode_with_schema(elem, item, out);
            }
        }
        (Schema::Object(fields), JsonValue::Object(members)) => {
            for field in fields {
                let found = members
                    .iter()
                    .find(|(k, _)| k == &field.key)
                    .map(|(_, v)| v);
                // The decoder reads a presence byte exactly when the field is
                // optional or its schema is Null; mirror that here.
                let has_presence = field.optional || matches!(field.schema, Schema::Null);
                if has_presence {
                    match found {
                        None => {
                            out.push(0);
                            continue;
                        }
                        Some(JsonValue::Null) => {
                            // Presence byte 2 = explicit null.
                            out.push(2);
                            continue;
                        }
                        Some(_) => out.push(1),
                    }
                }
                // pbc-allow(panic): matches() verified required fields before packing
                let v = found.expect("matches() guarantees required fields are present");
                encode_with_schema(&field.schema, v, out);
            }
        }
        (Schema::Any, v) => {
            // Self-describing fallback for `Any` nodes.
            let encoded = IonLikeCodec::new().encode(v);
            varint::write_usize(out, encoded.len());
            out.extend_from_slice(&encoded);
        }
        // `matches()` guarantees the pairs above; anything else is a bug in
        // the caller, encoded defensively as Any.
        (_, v) => {
            let encoded = IonLikeCodec::new().encode(v);
            varint::write_usize(out, encoded.len());
            out.extend_from_slice(&encoded);
        }
    }
}

fn write_string(s: &str, out: &mut Vec<u8>) {
    varint::write_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn read_string(input: &[u8], pos: usize) -> Result<(String, usize)> {
    let (len, pos) = varint::read_usize(input, pos)?;
    if pos + len > input.len() {
        return Err(JsonError::corrupt("truncated string"));
    }
    let s = std::str::from_utf8(&input[pos..pos + len])
        .map_err(|_| JsonError::corrupt("invalid UTF-8"))?
        .to_string();
    Ok((s, pos + len))
}

fn decode_with_schema(schema: &Schema, input: &[u8], pos: usize) -> Result<(JsonValue, usize)> {
    match schema {
        Schema::Null => Ok((JsonValue::Null, pos)),
        Schema::Bool => {
            let b = *input
                .get(pos)
                .ok_or_else(|| JsonError::corrupt("truncated bool"))?;
            Ok((JsonValue::Bool(b != 0), pos + 1))
        }
        Schema::Int => {
            let (v, pos) = varint::read_i64(input, pos)?;
            Ok((JsonValue::Number(Number::Int(v)), pos))
        }
        Schema::Float => {
            if pos + 8 > input.len() {
                return Err(JsonError::corrupt("truncated float"));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&input[pos..pos + 8]);
            Ok((
                JsonValue::Number(Number::Float(f64::from_le_bytes(b))),
                pos + 8,
            ))
        }
        Schema::Enum(options) => {
            let (idx, pos) = varint::read_usize(input, pos)?;
            if idx == 0 {
                let (s, pos) = read_string(input, pos)?;
                Ok((JsonValue::String(s), pos))
            } else {
                let s = options
                    .get(idx - 1)
                    .ok_or_else(|| JsonError::corrupt("enum index out of range"))?;
                Ok((JsonValue::String(s.clone()), pos))
            }
        }
        Schema::String => {
            let (s, pos) = read_string(input, pos)?;
            Ok((JsonValue::String(s), pos))
        }
        Schema::Array(elem) => {
            let (count, mut pos) = varint::read_usize(input, pos)?;
            if count > input.len() {
                return Err(JsonError::corrupt("implausible array length"));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let (v, p) = decode_with_schema(elem, input, pos)?;
                items.push(v);
                pos = p;
            }
            Ok((JsonValue::Array(items), pos))
        }
        Schema::Object(fields) => {
            let mut members = Vec::with_capacity(fields.len());
            let mut pos = pos;
            for field in fields {
                let presence = if field.optional || matches!(field.schema, Schema::Null) {
                    let b = *input
                        .get(pos)
                        .ok_or_else(|| JsonError::corrupt("truncated presence byte"))?;
                    pos += 1;
                    b
                } else {
                    // Required non-null fields have no presence byte unless
                    // the value was null at encode time; peek is impossible,
                    // so required fields always encode the value directly.
                    1
                };
                match presence {
                    0 => continue,
                    2 => members.push((field.key.clone(), JsonValue::Null)),
                    _ => {
                        let (v, p) = decode_with_schema(&field.schema, input, pos)?;
                        pos = p;
                        members.push((field.key.clone(), v));
                    }
                }
            }
            Ok((JsonValue::Object(members), pos))
        }
        Schema::Any => {
            let (len, pos) = varint::read_usize(input, pos)?;
            if pos + len > input.len() {
                return Err(JsonError::corrupt("truncated Any payload"));
            }
            let v = IonLikeCodec::new().decode(&input[pos..pos + len])?;
            Ok((v, pos + len))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::Field;

    fn trade_docs(n: usize) -> Vec<JsonValue> {
        (0..n)
            .map(|i| {
                parse(&format!(
                    r#"{{"symbol": "{}", "side": "{}", "quantity": {}, "price": {}.5, "timestamp": 16395740{:02}}}"#,
                    ["IBM", "AAPL", "MSFT"][i % 3],
                    if i % 2 == 0 { "B" } else { "S" },
                    100 + i,
                    50 + (i % 9),
                    i % 100
                ))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn conforming_documents_roundtrip() {
        let docs = trade_docs(50);
        let refs: Vec<&JsonValue> = docs.iter().collect();
        let codec = BinPackCodec::train(&refs[..30]);
        for d in &docs {
            let enc = codec.encode(d);
            assert_eq!(&codec.decode(&enc).unwrap(), d);
        }
    }

    #[test]
    fn schema_driven_encoding_is_much_smaller_than_text_and_ion() {
        let docs = trade_docs(40);
        let refs: Vec<&JsonValue> = docs.iter().collect();
        let codec = BinPackCodec::train(&refs[..20]);
        let ion = IonLikeCodec::new();
        let doc = &docs[35];
        let text_len = crate::writer::to_string(doc).len();
        let ion_len = ion.encode(doc).len();
        let bp_len = codec.encode(doc).len();
        assert!(
            bp_len < ion_len,
            "BP-D {bp_len} should beat Ion-B {ion_len}"
        );
        assert!(
            bp_len * 3 < text_len,
            "BP-D {bp_len} should be ≲ a third of text {text_len}"
        );
    }

    #[test]
    fn non_conforming_documents_fall_back_and_roundtrip() {
        let docs = trade_docs(20);
        let refs: Vec<&JsonValue> = docs.iter().collect();
        let codec = BinPackCodec::train(&refs);
        let other = parse(r#"{"completely": ["different", "structure"], "n": 1}"#).unwrap();
        let enc = codec.encode(&other);
        assert_eq!(enc[0], ESCAPE_MARKER);
        assert_eq!(codec.decode(&enc).unwrap(), other);
    }

    #[test]
    fn optional_and_null_fields_roundtrip() {
        let samples = vec![
            parse(r#"{"name": "a", "region": "EU", "note": "x"}"#).unwrap(),
            parse(r#"{"name": "b", "region": "EU"}"#).unwrap(),
            parse(r#"{"name": "c", "region": "US", "note": null}"#).unwrap(),
        ];
        let refs: Vec<&JsonValue> = samples.iter().collect();
        let codec = BinPackCodec::train(&refs);
        for d in &samples {
            let enc = codec.encode(d);
            assert_eq!(&codec.decode(&enc).unwrap(), d, "doc {d}");
        }
    }

    #[test]
    fn explicit_schema_constructor_is_usable() {
        let schema = Schema::Object(vec![
            Field {
                key: "id".into(),
                schema: Schema::Int,
                optional: false,
            },
            Field {
                key: "tag".into(),
                schema: Schema::String,
                optional: false,
            },
        ]);
        let codec = BinPackCodec::with_schema(schema);
        let doc = parse(r#"{"id": 9, "tag": "ok"}"#).unwrap();
        assert_eq!(codec.decode(&codec.encode(&doc)).unwrap(), doc);
        assert!(matches!(codec.schema(), Schema::Object(_)));
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let docs = trade_docs(10);
        let refs: Vec<&JsonValue> = docs.iter().collect();
        let codec = BinPackCodec::train(&refs);
        assert!(codec.decode(&[]).is_err());
        assert!(codec.decode(&[0x33, 1, 2]).is_err());
        let mut enc = codec.encode(&docs[0]);
        enc.truncate(enc.len() - 3);
        assert!(codec.decode(&enc).is_err());
    }

    #[test]
    fn nested_array_of_objects_roundtrips() {
        let samples: Vec<JsonValue> = (0..5)
            .map(|i| {
                parse(&format!(
                    r#"{{"repo": "r{i}", "events": [{{"type": "push", "n": {i}}}, {{"type": "fork", "n": 0}}]}}"#
                ))
                .unwrap()
            })
            .collect();
        let refs: Vec<&JsonValue> = samples.iter().collect();
        let codec = BinPackCodec::train(&refs);
        for d in &samples {
            assert_eq!(&codec.decode(&codec.encode(d)).unwrap(), d);
        }
    }
}
