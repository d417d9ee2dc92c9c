//! The PBC compressor: per-record, random-access compression with an
//! offline-trained pattern dictionary (Figure 1(b)/(c)).
//!
//! A compressed record is:
//!
//! ```text
//! varint pattern_id           (0 = outlier)
//! if outlier:   raw record bytes
//! otherwise:    encoded field values in pattern order
//! ```
//!
//! Residual mode [`ResidualMode::Fsst`] corresponds to the paper's `PBC_F`
//! variant: variable-length residual values (and outlier payloads) are
//! additionally passed through a trained FSST symbol table, trading a little
//! speed for a better ratio while keeping per-record random access.

use std::cell::RefCell;

use pbc_codecs::fsst::FsstCodec;
use pbc_codecs::traits::{Codec, TrainableCodec};
use pbc_codecs::varint;

use crate::config::PbcConfig;
use crate::dictionary::{PatternDictionary, OUTLIER_ID};
use crate::encoders::FieldEncoder;
use crate::error::{PbcError, Result};
use crate::extraction::{extract_from_samples, ExtractionReport};
use crate::multimatch::MultiMatcher;
use crate::pattern::{Pattern, Segment};
use crate::stats::{CompressionStats, StatsSnapshot};

/// Most bytes a thread's encode buffer keeps between calls: plenty for
/// records, while one huge outlier does not pin its high-water mark.
const RETAINED_ENCODE_BYTES: usize = 1 << 16;

thread_local! {
    /// Where [`PbcCompressor::compress`] encodes before copying out.
    static ENCODE_BUFFER: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// How residual values are serialized.
#[derive(Debug, Clone)]
pub enum ResidualMode {
    /// Field encoders only (the plain `PBC` variant).
    Plain,
    /// Field encoders, with variable-length values passed through a trained
    /// FSST symbol table (`PBC_F`).
    Fsst(FsstCodec),
}

impl ResidualMode {
    fn is_fsst(&self) -> bool {
        matches!(self, ResidualMode::Fsst(_))
    }
}

/// A trained PBC compressor (pattern dictionary + matcher + residual mode).
#[derive(Debug)]
pub struct PbcCompressor {
    dictionary: PatternDictionary,
    matcher: MultiMatcher,
    residual: ResidualMode,
    config: PbcConfig,
    stats: CompressionStats,
    report: Option<ExtractionReport>,
}

impl PbcCompressor {
    /// Train the plain `PBC` compressor from sample records.
    pub fn train(samples: &[&[u8]], config: &PbcConfig) -> Self {
        Self::train_with_mode(samples, config, false)
    }

    /// Train the `PBC_F` compressor: identical pattern extraction, plus an
    /// FSST symbol table trained on the residual values of the sample.
    pub fn train_fsst(samples: &[&[u8]], config: &PbcConfig) -> Self {
        Self::train_with_mode(samples, config, true)
    }

    fn train_with_mode(samples: &[&[u8]], config: &PbcConfig, fsst: bool) -> Self {
        let sampled = crate::sampling::sample_records(
            samples,
            config.max_sample_records,
            config.max_sample_bytes,
            config.sample_seed,
        );
        let (dictionary, report) = extract_from_samples(&sampled, config);
        let matcher = MultiMatcher::new(&dictionary);

        let residual = if fsst {
            // Train FSST on the residual values the patterns leave behind
            // (falling back to whole records where nothing matches).
            let mut residual_samples: Vec<Vec<u8>> = Vec::new();
            for record in &sampled {
                match matcher.best_match(record) {
                    Some((_, m)) => {
                        for &(s, e) in &m.field_spans {
                            if e > s {
                                residual_samples.push(record[s..e].to_vec());
                            }
                        }
                    }
                    None => residual_samples.push(record.clone()),
                }
            }
            let refs: Vec<&[u8]> = residual_samples.iter().map(|r| r.as_slice()).collect();
            ResidualMode::Fsst(FsstCodec::train(&refs))
        } else {
            ResidualMode::Plain
        };

        PbcCompressor {
            dictionary,
            matcher,
            residual,
            config: config.clone(),
            stats: CompressionStats::new(),
            report: Some(report),
        }
    }

    /// Build a compressor from an existing pattern dictionary (e.g. one
    /// shipped to a TierBase instance) without re-running extraction.
    pub fn from_dictionary(dictionary: PatternDictionary, config: &PbcConfig) -> Self {
        let matcher = MultiMatcher::new(&dictionary);
        PbcCompressor {
            dictionary,
            matcher,
            residual: ResidualMode::Plain,
            config: config.clone(),
            stats: CompressionStats::new(),
            report: None,
        }
    }

    /// Switch to the FSST residual mode with an already-trained symbol table.
    pub fn with_fsst(mut self, fsst: FsstCodec) -> Self {
        self.residual = ResidualMode::Fsst(fsst);
        self
    }

    /// The trained pattern dictionary.
    pub fn dictionary(&self) -> &PatternDictionary {
        &self.dictionary
    }

    /// The extraction report, if this compressor was trained (rather than
    /// built from an existing dictionary).
    pub fn extraction_report(&self) -> Option<&ExtractionReport> {
        self.report.as_ref()
    }

    /// The FSST symbol table used for residuals, if this is a `PBC_F`
    /// compressor. Lets containers (e.g. `pbc-archive` segments) serialize
    /// the full trained state next to the pattern dictionary.
    pub fn residual_fsst(&self) -> Option<&FsstCodec> {
        match &self.residual {
            ResidualMode::Fsst(fsst) => Some(fsst),
            ResidualMode::Plain => None,
        }
    }

    /// Name used in benchmark tables.
    pub fn variant_name(&self) -> &'static str {
        if self.residual.is_fsst() {
            "PBC_F"
        } else {
            "PBC"
        }
    }

    /// Compress one record. Records matching no pattern (or violating a
    /// field-encoder constraint) are stored as outliers in raw form.
    pub fn compress(&self, record: &[u8]) -> Vec<u8> {
        // Encode into the thread's buffer and return an exact-size copy: the
        // output is allocated once and carries no slack.
        ENCODE_BUFFER.with_borrow_mut(|out| {
            out.clear();
            let outlier = self.encode_record(record, out);
            self.stats.record(record.len(), out.len(), outlier);
            let compressed = out.to_vec();
            if out.capacity() > RETAINED_ENCODE_BYTES {
                *out = Vec::new();
            }
            compressed
        })
    }

    /// Append the compressed form of `record` to `out`; returns whether it
    /// is an outlier.
    fn encode_record(&self, record: &[u8], out: &mut Vec<u8>) -> bool {
        let Some((id, m)) = self.matcher.best_match(record) else {
            varint::write_u32(out, OUTLIER_ID);
            self.encode_outlier(record, out);
            return true;
        };
        varint::write_u32(out, id);
        let pattern = self
            .dictionary
            .get(id)
            // pbc-allow(panic): the matcher only returns ids minted by this dictionary
            .expect("matcher only returns dictionary ids");
        for (enc, &(s, e)) in pattern.fields().zip(&m.field_spans) {
            self.encode_field(enc, &record[s..e], out);
        }
        false
    }

    /// Decompress one record produced by [`PbcCompressor::compress`].
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>> {
        let (id, pos) = varint::read_u32(data, 0)?;
        let literals = self.dictionary.get(id).map_or(0, Pattern::literal_len);
        let mut out = Vec::with_capacity(literals + data.len() - pos);
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// Append the record `data` decompresses to (see
    /// [`PbcCompressor::decompress`]) to `out`, writing each literal and
    /// field straight into it. On error `out` holds what it held on entry.
    pub fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        let decoded = self.decode_record(data, out);
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded
    }

    fn decode_record(&self, data: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let (id, mut pos) = varint::read_u32(data, 0)?;
        if id == OUTLIER_ID {
            match &self.residual {
                ResidualMode::Fsst(fsst) => fsst.decode_into(&data[pos..], out)?,
                ResidualMode::Plain => out.extend_from_slice(&data[pos..]),
            }
            return Ok(());
        }
        let pattern = self.dictionary.get_or_err(id)?;
        let mut field = 0;
        for seg in pattern.segments() {
            match seg {
                Segment::Literal(lit) => out.extend_from_slice(lit),
                Segment::Field(enc) => {
                    pos = self
                        .decode_field(enc, data, pos, out)
                        .map_err(|e| match e {
                            PbcError::FieldDecode { reason, .. } => {
                                PbcError::FieldDecode { field, reason }
                            }
                            other => other,
                        })?;
                    field += 1;
                }
            }
        }
        Ok(())
    }

    /// Share of compressed records that were outliers so far exceeds the
    /// configured threshold: the caller should re-sample and re-train
    /// (Sections 3.2 and 7.5).
    pub fn should_retrain(&self) -> bool {
        let snap = self.stats.snapshot();
        snap.records >= 100 && snap.outlier_rate() > self.config.outlier_retrain_threshold
    }

    /// Snapshot of the runtime counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the runtime counters (e.g. after re-training).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    fn encode_field(&self, enc: &FieldEncoder, value: &[u8], out: &mut Vec<u8>) {
        match (&self.residual, enc) {
            (ResidualMode::Fsst(fsst), FieldEncoder::Varchar) => {
                // Encode in place, then rotate the varint length (one byte
                // below 128) in front of it.
                let start = out.len();
                fsst.encode_into(value, out);
                let encoded_len = out.len() - start;
                let header = varint::write_usize(out, encoded_len);
                out[start..].rotate_right(header);
            }
            _ => {
                enc.encode(value, out)
                    // pbc-allow(panic): the matcher validated the encoder constraints for this span
                    .expect("matcher validated encoder constraints");
            }
        }
    }

    fn decode_field(
        &self,
        enc: &FieldEncoder,
        data: &[u8],
        pos: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize> {
        match (&self.residual, enc) {
            (ResidualMode::Fsst(fsst), FieldEncoder::Varchar) => {
                let (len, pos) = varint::read_usize(data, pos)?;
                let value = pos
                    .checked_add(len)
                    .and_then(|end| data.get(pos..end))
                    .ok_or(PbcError::Truncated {
                        context: "FSST residual",
                    })?;
                fsst.decode_into(value, out)?;
                Ok(pos + len)
            }
            _ => enc.decode(data, pos, out),
        }
    }

    fn encode_outlier(&self, record: &[u8], out: &mut Vec<u8>) {
        match &self.residual {
            ResidualMode::Fsst(fsst) => fsst.encode_into(record, out),
            ResidualMode::Plain => out.extend_from_slice(record),
        }
    }
}

impl Codec for PbcCompressor {
    fn name(&self) -> &str {
        self.variant_name()
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        PbcCompressor::compress(self, input)
    }

    fn decompress(&self, input: &[u8]) -> pbc_codecs::Result<Vec<u8>> {
        PbcCompressor::decompress(self, input)
            .map_err(|e| pbc_codecs::CodecError::corrupt(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accounting_records(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "V5company_charging-100-{:02}accenter{:02}ac{}counting_log_{}202{:03}{:03}",
                    i % 100,
                    (i * 7) % 100,
                    if i % 4 == 2 { "" } else { "_ac" },
                    if i % 4 == 2 { "id" } else { "" },
                    i % 400,
                    (i * 13) % 1000,
                )
                .into_bytes()
            })
            .collect()
    }

    fn train_on(records: &[Vec<u8>], fsst: bool) -> PbcCompressor {
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let config = PbcConfig::small();
        if fsst {
            PbcCompressor::train_fsst(&refs, &config)
        } else {
            PbcCompressor::train(&refs, &config)
        }
    }

    #[test]
    fn roundtrip_on_training_like_records() {
        let records = accounting_records(200);
        let pbc = train_on(&records[..100], false);
        for rec in &records {
            let compressed = pbc.compress(rec);
            assert_eq!(&PbcCompressor::decompress(&pbc, &compressed).unwrap(), rec);
        }
    }

    #[test]
    fn compression_beats_raw_size_substantially() {
        let records = accounting_records(300);
        let pbc = train_on(&records[..128], false);
        let raw: usize = records.iter().map(|r| r.len()).sum();
        let compressed: usize = records.iter().map(|r| pbc.compress(r).len()).sum();
        let ratio = compressed as f64 / raw as f64;
        assert!(
            ratio < 0.5,
            "pattern-covered records should compress at least 2x, got {ratio:.3}"
        );
        let snap = pbc.stats();
        assert_eq!(snap.records, 300);
        assert!(snap.outlier_rate() < 0.2);
    }

    #[test]
    fn fsst_variant_roundtrips_and_does_not_hurt_ratio_much() {
        let records = accounting_records(300);
        let plain = train_on(&records[..128], false);
        let fsst = train_on(&records[..128], true);
        assert_eq!(fsst.variant_name(), "PBC_F");
        let mut plain_total = 0usize;
        let mut fsst_total = 0usize;
        for rec in &records {
            let c_plain = plain.compress(rec);
            let c_fsst = fsst.compress(rec);
            assert_eq!(&PbcCompressor::decompress(&plain, &c_plain).unwrap(), rec);
            assert_eq!(&PbcCompressor::decompress(&fsst, &c_fsst).unwrap(), rec);
            plain_total += c_plain.len();
            fsst_total += c_fsst.len();
        }
        // PBC_F targets datasets with long text residuals; on numeric-heavy
        // data it must at least stay in the same ballpark (FSST adds a length
        // prefix per text field, so a modest overhead is expected here).
        assert!(
            fsst_total <= plain_total * 2,
            "PBC_F {fsst_total} vs PBC {plain_total}"
        );
    }

    #[test]
    fn unmatched_records_become_outliers_and_roundtrip() {
        let records = accounting_records(100);
        let pbc = train_on(&records, false);
        let outlier = b"completely different payload \x00\xff with binary bytes";
        let compressed = pbc.compress(outlier);
        assert_eq!(
            PbcCompressor::decompress(&pbc, &compressed).unwrap(),
            outlier
        );
        assert_eq!(pbc.stats().outliers, 1);
    }

    #[test]
    fn retraining_trigger_fires_when_data_drifts() {
        let records = accounting_records(150);
        let pbc = train_on(&records, false);
        assert!(!pbc.should_retrain());
        // Simulate a data-model change: all new records are unmatched.
        for i in 0..200 {
            let rec = format!("new_format|{i}|payload|{}", i * 31).into_bytes();
            pbc.compress(&rec);
        }
        assert!(pbc.should_retrain());
        pbc.reset_stats();
        assert!(!pbc.should_retrain());
    }

    #[test]
    fn empty_record_roundtrips() {
        let records = accounting_records(50);
        let pbc = train_on(&records, false);
        let compressed = pbc.compress(b"");
        assert_eq!(PbcCompressor::decompress(&pbc, &compressed).unwrap(), b"");
    }

    #[test]
    fn decompress_rejects_unknown_pattern_ids_and_truncation() {
        let records = accounting_records(100);
        let pbc = train_on(&records, false);
        // Unknown pattern id.
        let mut bogus = Vec::new();
        varint::write_u32(&mut bogus, 9999);
        assert!(matches!(
            PbcCompressor::decompress(&pbc, &bogus),
            Err(PbcError::UnknownPattern { id: 9999 })
        ));
        // Truncated field payload.
        let compressed = pbc.compress(&records[0]);
        let truncated = &compressed[..compressed.len().saturating_sub(2)];
        assert!(PbcCompressor::decompress(&pbc, truncated).is_err());
    }

    #[test]
    fn compressor_from_serialized_dictionary_is_equivalent() {
        let records = accounting_records(200);
        let trained = train_on(&records[..100], false);
        let dict_bytes = trained.dictionary().serialize();
        let dict = PatternDictionary::deserialize(&dict_bytes).unwrap();
        let rebuilt = PbcCompressor::from_dictionary(dict, &PbcConfig::small());
        for rec in &records[100..140] {
            let a = trained.compress(rec);
            let b = rebuilt.compress(rec);
            assert_eq!(a, b, "same dictionary must produce identical output");
            assert_eq!(&PbcCompressor::decompress(&rebuilt, &b).unwrap(), rec);
        }
    }

    #[test]
    fn codec_trait_interop() {
        use pbc_codecs::traits::RecordCorpusExt;
        let records = accounting_records(120);
        let pbc = train_on(&records[..60], false);
        let ratio = pbc.corpus_ratio(&records);
        assert!(ratio < 0.6);
        assert_eq!(Codec::name(&pbc), "PBC");
    }
}
