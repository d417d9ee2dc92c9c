//! JSON schema inference for the schema-driven BinPack-like codec.
//!
//! JSON BinPack's schema-driven mode ("BP-D" in the paper) relies on an
//! application-provided JSON Schema. Machine-generated JSON from one
//! application follows a stable schema, so we infer an equivalent structure
//! from sample documents: a fixed, ordered field list for objects, element
//! schemas for arrays, enumerations for low-cardinality strings, and
//! specialised integer/float/boolean leaves.
//!
//! Reached only through [`crate::binpack`]'s training, so by `repro table6`
//! and `repro table7`.

use std::collections::BTreeSet;

use crate::value::{JsonValue, Number};

/// Maximum number of distinct string values before a field stops being
/// treated as an enumeration.
const MAX_ENUM_VALUES: usize = 16;

/// An inferred schema node.
#[derive(Debug, Clone, PartialEq)]
pub enum Schema {
    /// `null` only.
    Null,
    /// Boolean.
    Bool,
    /// Integer (i64).
    Int,
    /// Float (or a mix of int and float).
    Float,
    /// Free-form string.
    String,
    /// Low-cardinality string with the observed value set.
    Enum(Vec<String>),
    /// Array with a homogeneous element schema.
    Array(Box<Schema>),
    /// Object with a fixed, ordered field list. `optional` marks fields that
    /// were missing in some samples.
    Object(Vec<Field>),
    /// Anything: the fallback when samples disagree structurally.
    Any,
}

/// One object field in an inferred schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Member key.
    pub key: String,
    /// Value schema.
    pub schema: Schema,
    /// Whether some sample documents lacked this member.
    pub optional: bool,
}

impl Schema {
    /// Infer a schema from sample documents.
    pub fn infer(samples: &[&JsonValue]) -> Schema {
        if samples.is_empty() {
            return Schema::Any;
        }
        infer_values(samples)
    }

    /// Whether a document structurally conforms to this schema (strings not
    /// in an enumeration still conform; enums fall back to plain strings at
    /// encode time).
    pub fn matches(&self, value: &JsonValue) -> bool {
        match (self, value) {
            (Schema::Any, _) => true,
            (Schema::Null, JsonValue::Null) => true,
            (Schema::Bool, JsonValue::Bool(_)) => true,
            (Schema::Int, JsonValue::Number(Number::Int(_))) => true,
            (Schema::Float, JsonValue::Number(_)) => true,
            (Schema::String | Schema::Enum(_), JsonValue::String(_)) => true,
            (Schema::Array(elem), JsonValue::Array(items)) => items.iter().all(|i| elem.matches(i)),
            (Schema::Object(fields), JsonValue::Object(members)) => {
                // Every member must be a known field, and every required
                // field must be present.
                members.iter().all(|(k, v)| {
                    fields
                        .iter()
                        .find(|f| &f.key == k)
                        .is_some_and(|f| f.schema.matches(v))
                }) && fields
                    .iter()
                    .all(|f| f.optional || members.iter().any(|(k, _)| k == &f.key))
            }
            _ => false,
        }
    }
}

fn infer_values(values: &[&JsonValue]) -> Schema {
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
    for v in values {
        kinds.insert(v.type_name());
    }
    // Null mixed with another single kind: keep the other kind (the codec
    // writes a presence marker for nullable values).
    let non_null: Vec<&&JsonValue> = values
        .iter()
        .filter(|v| !matches!(v, JsonValue::Null))
        .collect();
    if non_null.is_empty() {
        return Schema::Null;
    }
    let mut non_null_kinds: BTreeSet<&'static str> = BTreeSet::new();
    for v in &non_null {
        non_null_kinds.insert(v.type_name());
    }
    match non_null_kinds.len() {
        1 => {}
        2 if non_null_kinds.contains("int") && non_null_kinds.contains("float") => {
            return Schema::Float;
        }
        _ => return Schema::Any,
    }
    // pbc-allow(panic): the match arm above established the set is non-empty
    match *non_null_kinds.iter().next().expect("one kind") {
        "bool" => Schema::Bool,
        "int" => Schema::Int,
        "float" => Schema::Float,
        "string" => {
            let mut distinct: Vec<String> = Vec::new();
            for v in &non_null {
                if let JsonValue::String(s) = v {
                    if !distinct.contains(s) {
                        distinct.push(s.clone());
                        if distinct.len() > MAX_ENUM_VALUES {
                            return Schema::String;
                        }
                    }
                }
            }
            // Only treat as an enumeration if values repeat (otherwise it is
            // an open-ended identifier field).
            if distinct.len() < non_null.len() {
                distinct.sort();
                Schema::Enum(distinct)
            } else {
                Schema::String
            }
        }
        "array" => {
            let mut elems: Vec<&JsonValue> = Vec::new();
            for v in &non_null {
                if let JsonValue::Array(items) = v {
                    elems.extend(items.iter());
                }
            }
            if elems.is_empty() {
                Schema::Array(Box::new(Schema::Any))
            } else {
                Schema::Array(Box::new(infer_values(&elems)))
            }
        }
        "object" => {
            // Union of keys in first-seen order; a field is optional if any
            // sample lacks it.
            let mut order: Vec<String> = Vec::new();
            for v in &non_null {
                if let JsonValue::Object(members) = v {
                    for (k, _) in members {
                        if !order.contains(k) {
                            order.push(k.clone());
                        }
                    }
                }
            }
            let fields = order
                .into_iter()
                .map(|key| {
                    let mut present = 0usize;
                    let mut values: Vec<&JsonValue> = Vec::new();
                    for v in &non_null {
                        if let JsonValue::Object(members) = v {
                            if let Some((_, val)) = members.iter().find(|(k, _)| k == &key) {
                                present += 1;
                                values.push(val);
                            }
                        }
                    }
                    Field {
                        schema: infer_values(&values),
                        optional: present < non_null.len(),
                        key,
                    }
                })
                .collect();
            Schema::Object(fields)
        }
        "null" => Schema::Null,
        _ => Schema::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn docs(texts: &[&str]) -> Vec<JsonValue> {
        texts.iter().map(|t| parse(t).unwrap()).collect()
    }

    #[test]
    fn infers_flat_object_schema_with_types() {
        let samples = docs(&[
            r#"{"symbol": "IBM", "side": "B", "quantity": 100, "price": 50.25}"#,
            r#"{"symbol": "AAPL", "side": "S", "quantity": 220, "price": 171.5}"#,
            r#"{"symbol": "IBM", "side": "B", "quantity": 99, "price": 49.0}"#,
        ]);
        let refs: Vec<&JsonValue> = samples.iter().collect();
        let schema = Schema::infer(&refs);
        let Schema::Object(fields) = &schema else {
            panic!("expected object schema")
        };
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[0].key, "symbol");
        assert!(matches!(fields[0].schema, Schema::Enum(_)));
        assert!(matches!(fields[2].schema, Schema::Int));
        assert!(matches!(fields[3].schema, Schema::Float));
        assert!(fields.iter().all(|f| !f.optional));
        for d in &samples {
            assert!(schema.matches(d));
        }
    }

    #[test]
    fn optional_fields_and_nested_objects() {
        let samples = docs(&[
            r#"{"name": "Berlin", "geo": {"lat": 52.5, "lon": 13.4}, "capital": true}"#,
            r#"{"name": "Lyon", "geo": {"lat": 45.7, "lon": 4.8}}"#,
        ]);
        let refs: Vec<&JsonValue> = samples.iter().collect();
        let schema = Schema::infer(&refs);
        let Schema::Object(fields) = &schema else {
            panic!()
        };
        let capital = fields.iter().find(|f| f.key == "capital").unwrap();
        assert!(capital.optional);
        let geo = fields.iter().find(|f| f.key == "geo").unwrap();
        assert!(matches!(geo.schema, Schema::Object(_)));
        for d in &samples {
            assert!(schema.matches(d));
        }
    }

    #[test]
    fn arrays_and_mixed_numbers() {
        let samples = docs(&[r#"{"values": [1, 2, 3.5], "tags": ["a", "b"]}"#]);
        let refs: Vec<&JsonValue> = samples.iter().collect();
        let schema = Schema::infer(&refs);
        let Schema::Object(fields) = &schema else {
            panic!()
        };
        assert!(matches!(&fields[0].schema, Schema::Array(e) if **e == Schema::Float));
        assert!(matches!(&fields[1].schema, Schema::Array(_)));
    }

    #[test]
    fn high_cardinality_strings_are_not_enums() {
        let samples: Vec<JsonValue> = (0..40)
            .map(|i| parse(&format!(r#"{{"id": "user-{i}"}}"#)).unwrap())
            .collect();
        let refs: Vec<&JsonValue> = samples.iter().collect();
        let Schema::Object(fields) = Schema::infer(&refs) else {
            panic!()
        };
        assert_eq!(fields[0].schema, Schema::String);
    }

    #[test]
    fn structurally_inconsistent_samples_fall_back_to_any() {
        let samples = docs(&[r#"{"a": 1}"#, r#"[1, 2, 3]"#]);
        let refs: Vec<&JsonValue> = samples.iter().collect();
        assert_eq!(Schema::infer(&refs), Schema::Any);
        assert!(Schema::Any.matches(&samples[0]));
    }

    #[test]
    fn matches_rejects_unknown_members_and_missing_required_fields() {
        let samples = docs(&[r#"{"a": 1, "b": "x"}"#, r#"{"a": 2, "b": "y"}"#]);
        let refs: Vec<&JsonValue> = samples.iter().collect();
        let schema = Schema::infer(&refs);
        assert!(
            !schema.matches(&parse(r#"{"a": 1}"#).unwrap()),
            "missing required b"
        );
        assert!(
            !schema.matches(&parse(r#"{"a": 1, "b": "x", "c": 2}"#).unwrap()),
            "unknown member c"
        );
        assert!(!schema.matches(&parse(r#"{"a": "not int", "b": "x"}"#).unwrap()));
    }

    #[test]
    fn empty_sample_set_is_any() {
        assert_eq!(Schema::infer(&[]), Schema::Any);
    }
}
