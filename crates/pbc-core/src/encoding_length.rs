//! Encoding length (Definitions 1–2 of the paper) computed on actual
//! records.
//!
//! The clustering loop estimates encoding-length *increments* from the
//! clusters' wildcard sequences alone (see [`crate::dp`]); this module
//! computes the real thing — the number of bytes needed to store a set of
//! records under a given pattern and encoder assignment — which is used by
//! the ablation criteria, the entropy analysis, and tests that validate the
//! clustering heuristic against ground truth.

use crate::cluster::{Cluster, PatElem};
use crate::encoders::{infer_encoder, FieldEncoder};
use crate::matching::match_structure;
use crate::pattern::{Pattern, Segment};

/// Convert a cluster's wildcard sequence into a [`Pattern`] whose fields all
/// use the `VARCHAR` encoder (the monotonic encoder the clustering model
/// assumes, Section 6 "we only consider the VARCHAR encoding").
pub fn pattern_from_cs(cs: &[PatElem]) -> Pattern {
    let mut segments = Vec::new();
    let mut literal = Vec::new();
    for e in cs {
        match e {
            PatElem::Lit(b) => literal.push(*b),
            PatElem::Gap => {
                if !literal.is_empty() {
                    segments.push(Segment::Literal(std::mem::take(&mut literal)));
                }
                segments.push(Segment::Field(FieldEncoder::Varchar));
            }
        }
    }
    if !literal.is_empty() {
        segments.push(Segment::Literal(literal));
    }
    Pattern::new(segments)
}

/// Convert a cluster's wildcard sequence into a pattern with *inferred*
/// field encoders: each field's encoder is the cheapest one accepting every
/// member's residual value (Definition 2's optimal encoding function).
///
/// Records that do not structurally match (which cannot happen for genuine
/// cluster members, but can for capped sequences) fall back to `VARCHAR`.
pub fn pattern_with_inferred_encoders(cs: &[PatElem], members: &[&[u8]]) -> Pattern {
    let base = pattern_from_cs(cs);
    let field_count = base.field_count();
    if field_count == 0 {
        return base;
    }
    // Collect the residual values per field across all members.
    let mut per_field: Vec<Vec<Vec<u8>>> = vec![Vec::new(); field_count];
    for &record in members {
        if let Some(m) = match_structure(&base, record) {
            for (k, &(s, e)) in m.field_spans.iter().enumerate() {
                per_field[k].push(record[s..e].to_vec());
            }
        }
    }
    // Rebuild the pattern: fields whose observed values are all empty are
    // alignment artefacts (every member is fully covered by the surrounding
    // literals), so they are dropped — keeping them would force future
    // records to have nothing at that position. The remaining fields get the
    // cheapest encoder accepting all observed values.
    let mut segments = Vec::with_capacity(base.segments().len());
    let mut field_idx = 0usize;
    for seg in base.segments() {
        match seg {
            Segment::Literal(l) => segments.push(Segment::Literal(l.clone())),
            Segment::Field(_) => {
                let values = &per_field[field_idx];
                field_idx += 1;
                let all_empty = !values.is_empty() && values.iter().all(|v| v.is_empty());
                if all_empty {
                    continue;
                }
                let encoder = if values.is_empty() {
                    FieldEncoder::Varchar
                } else {
                    let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
                    infer_encoder(&refs)
                };
                segments.push(Segment::Field(encoder));
            }
        }
    }
    Pattern::new(segments)
}

/// Encoding length of one record under a pattern (Definition 1 for a single
/// string): the summed encoded size of its residual field values. Returns
/// `None` if the record does not match the pattern structurally.
pub fn record_encoding_length(pattern: &Pattern, record: &[u8]) -> Option<usize> {
    let m = match_structure(pattern, record)?;
    let encoders = pattern.field_encoders();
    let mut total = 0usize;
    for (enc, &(s, e)) in encoders.iter().zip(m.field_spans.iter()) {
        let value = &record[s..e];
        if enc.accepts(value) {
            total += enc.encoded_len(value);
        } else {
            // Fall back to the VARCHAR cost for values the specialised
            // encoder rejects (the compressor would treat the record as an
            // outlier; for EL accounting the generic cost is the fair
            // stand-in).
            total += FieldEncoder::Varchar.encoded_len(value);
        }
    }
    Some(total)
}

/// Encoding length of a set of records under a pattern (Definition 1):
/// `EL(S, p, f) = Σᵢ f(rᵢ)`. Records that do not match are charged their
/// raw length plus a one-byte marker (they would be stored as outliers).
pub fn set_encoding_length(pattern: &Pattern, records: &[&[u8]]) -> usize {
    records
        .iter()
        .map(|r| record_encoding_length(pattern, r).unwrap_or(r.len() + 1))
        .sum()
}

/// Encoding length of a cluster under the VARCHAR-only model used during
/// clustering; convenience wrapper combining [`pattern_from_cs`] and
/// [`set_encoding_length`].
pub fn cluster_encoding_length(cluster: &Cluster, samples: &[Vec<u8>]) -> usize {
    let pattern = pattern_from_cs(&cluster.cs);
    let members: Vec<&[u8]> = cluster
        .members
        .iter()
        .map(|&i| samples[i].as_slice())
        .collect();
    set_encoding_length(&pattern, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn pattern_from_cs_translates_gaps_to_varchar_fields() {
        let cs = Cluster::cs_from_str("ab3*2");
        let p = pattern_from_cs(&cs);
        assert_eq!(p.display(), "ab3*<VARCHAR>2");
        assert_eq!(p.field_count(), 1);
    }

    #[test]
    fn record_encoding_length_counts_varchar_headers() {
        let p = pattern_from_cs(&Cluster::cs_from_str("ab*cd*"));
        // Residuals: "XY" (2+1 header) and "" (0+1 header) → 4 bytes.
        assert_eq!(record_encoding_length(&p, b"abXYcd"), Some(4));
        // Non-matching record.
        assert_eq!(record_encoding_length(&p, b"zzzz"), None);
    }

    #[test]
    fn inferred_encoders_match_figure2() {
        let cs = Cluster::cs_from_str("V5company_charging-100-*accenter*ac*counting_log_*202*");
        let records: Vec<&[u8]> = vec![
            b"V5company_charging-100-57accenter20ac_accounting_log_202123050",
            b"V5company_charging-100-72accenter11ac_accounting_log_202204181",
            b"V5company_charging-100-15accenter42accounting_log_id202205420",
            b"V5company_charging-100-46accenter32ac_accounting_log_202204381",
        ];
        let p = pattern_with_inferred_encoders(&cs, &records);
        let encoders = p.field_encoders();
        assert_eq!(encoders.len(), 5);
        assert_eq!(
            encoders[0],
            FieldEncoder::Int {
                digits: 2,
                bytes: 1
            }
        );
        assert_eq!(
            encoders[1],
            FieldEncoder::Int {
                digits: 2,
                bytes: 1
            }
        );
        assert_eq!(encoders[2], FieldEncoder::Varchar);
        assert_eq!(encoders[3], FieldEncoder::Varchar);
        assert_eq!(
            encoders[4],
            FieldEncoder::Int {
                digits: 6,
                bytes: 3
            }
        );
        // All records still match with the constrained encoders.
        for r in &records {
            assert!(crate::matching::match_record(&p, r).is_some());
        }
    }

    #[test]
    fn set_encoding_length_is_smaller_for_better_patterns() {
        let records: Vec<&[u8]> = vec![
            b"user=alice action=login",
            b"user=bob action=login",
            b"user=carol action=login",
        ];
        let good = pattern_from_cs(&Cluster::cs_from_str("user=* action=login"));
        let poor = pattern_from_cs(&Cluster::cs_from_str("user=*"));
        assert!(set_encoding_length(&good, &records) < set_encoding_length(&poor, &records));
    }

    #[test]
    fn unmatched_records_are_charged_raw_length() {
        let p = pattern_from_cs(&Cluster::cs_from_str("prefix-*"));
        let records: Vec<&[u8]> = vec![b"prefix-1", b"other"];
        // "prefix-1": residual "1" → 2 bytes; "other": 5 + 1 = 6 bytes.
        assert_eq!(set_encoding_length(&p, &records), 8);
    }

    #[test]
    fn cluster_encoding_length_uses_member_indices() {
        let samples = vec![
            b"item-001-ok".to_vec(),
            b"item-002-ok".to_vec(),
            b"unrelated".to_vec(),
        ];
        let cluster = Cluster::new(Cluster::cs_from_str("item-00*-ok"), vec![0, 1], 2);
        // Each member's residual is one digit → 2 bytes each with the header.
        assert_eq!(cluster_encoding_length(&cluster, &samples), 4);
    }
}
