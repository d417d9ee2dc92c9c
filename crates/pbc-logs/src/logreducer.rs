//! LogReducer-style log compression.
//!
//! LogReducer (Wei et al., FAST 2021) builds on a log parser: every line is
//! split into a template id and its variable values, then the variables are
//! specialised — timestamps are delta-encoded, numeric variables are stored
//! as integers — and the separated streams are compressed with a heavy
//! general-purpose backend. This module reproduces that pipeline on top of
//! the [`crate::drain`] miner and the LZMA-like codec:
//!
//! ```text
//! lines ──parse──▶ template dictionary
//!                  per-line template ids      ──┐
//!                  numeric-variable stream      ├─▶ LZMA-like ─▶ archive
//!                  timestamp-delta stream       │
//!                  text-variable stream       ──┘
//! ```
//!
//! The compressor is corpus-oriented (no random access) and only works on
//! line-structured text — the two limitations the paper contrasts PBC
//! against in Section 7.4.1.
//!
//! Called by `repro table5` (the LogReducer row).

use pbc_codecs::traits::Codec;
use pbc_codecs::varint;
use pbc_codecs::LzmaLike;

use crate::drain::{DrainConfig, DrainMiner};
use crate::template::tokenize;

/// Errors produced when unpacking a LogReducer archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogArchiveError {
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for LogArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt log archive: {}", self.message)
    }
}

impl std::error::Error for LogArchiveError {}

impl From<pbc_codecs::CodecError> for LogArchiveError {
    fn from(e: pbc_codecs::CodecError) -> Self {
        LogArchiveError {
            message: e.to_string(),
        }
    }
}

/// The LogReducer-like corpus compressor.
#[derive(Debug, Clone)]
pub struct LogReducer {
    drain: DrainConfig,
    backend_level: i32,
}

impl Default for LogReducer {
    fn default() -> Self {
        LogReducer {
            drain: DrainConfig::default(),
            backend_level: 9,
        }
    }
}

/// Classification of one variable value in the specialised streams.
fn classify(value: &str) -> VarClass {
    if !value.is_empty()
        && value.bytes().all(|b| b.is_ascii_digit())
        && value.parse::<i64>().is_ok()
    {
        // All-digit tokens in machine logs are usually timestamps or
        // counters; both benefit from integer/delta coding. Values that
        // overflow an i64 stay textual so the round trip is lossless.
        VarClass::Numeric
    } else {
        VarClass::Text
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarClass {
    Numeric,
    Text,
}

impl LogReducer {
    /// Create a compressor with a custom backend level (1–9).
    pub fn new(backend_level: i32) -> Self {
        LogReducer {
            drain: DrainConfig::default(),
            backend_level,
        }
    }

    /// Compress a corpus of log lines into a single archive.
    pub fn compress_lines(&self, lines: &[String]) -> Vec<u8> {
        let (miner, assignments) = DrainMiner::mine(lines, self.drain.clone());

        // Stream 1: template dictionary (text form, one per line).
        let mut template_stream = String::new();
        for t in miner.templates() {
            template_stream.push_str(&t.display());
            template_stream.push('\n');
        }
        // Stream 2: per-line template ids.
        let mut id_stream = Vec::new();
        varint::write_usize(&mut id_stream, lines.len());
        for &id in &assignments {
            varint::write_usize(&mut id_stream, id);
        }
        // Streams 3–4: variables, split into numeric (delta-coded per
        // template+slot) and text.
        let mut numeric_stream = Vec::new();
        let mut text_stream = Vec::new();
        // Last numeric value per (template, slot) for delta coding; sized
        // lazily.
        let mut last_numeric: std::collections::HashMap<(usize, usize), i64> =
            std::collections::HashMap::new();
        for (line, &tid) in lines.iter().zip(assignments.iter()) {
            let tokens = tokenize(line);
            let vars = miner.templates()[tid]
                .extract(&tokens)
                // pbc-allow(panic): assignments come from the miner that built these templates
                .expect("line fits the template it was assigned to");
            for (slot, value) in vars.iter().enumerate() {
                match classify(value) {
                    VarClass::Numeric => {
                        // Tag byte 1 = numeric (with digit-width so leading
                        // zeros survive), then the delta to the previous
                        // value in the same (template, slot).
                        text_stream.push(1);
                        text_stream.push(value.len() as u8);
                        let parsed: i64 = value.parse().unwrap_or(0);
                        let key = (tid, slot);
                        let prev = last_numeric.get(&key).copied().unwrap_or(0);
                        varint::write_i64(&mut numeric_stream, parsed - prev);
                        last_numeric.insert(key, parsed);
                    }
                    VarClass::Text => {
                        text_stream.push(0);
                        varint::write_usize(&mut text_stream, value.len());
                        text_stream.extend_from_slice(value.as_bytes());
                    }
                }
            }
        }

        // Pack the four streams and compress with the heavy backend.
        let mut packed = Vec::new();
        for stream in [
            template_stream.as_bytes(),
            &id_stream,
            &numeric_stream,
            &text_stream,
        ] {
            varint::write_usize(&mut packed, stream.len());
            packed.extend_from_slice(stream);
        }
        LzmaLike::new(self.backend_level).compress(&packed)
    }

    /// Decompress an archive back into the original lines.
    pub fn decompress_lines(&self, archive: &[u8]) -> Result<Vec<String>, LogArchiveError> {
        let packed = LzmaLike::new(self.backend_level).decompress(archive)?;
        let mut pos = 0usize;
        let mut streams: Vec<&[u8]> = Vec::with_capacity(4);
        for _ in 0..4 {
            let (len, p) = varint::read_usize(&packed, pos)?;
            pos = p;
            if pos + len > packed.len() {
                return Err(LogArchiveError {
                    message: "stream length out of range".to_string(),
                });
            }
            streams.push(&packed[pos..pos + len]);
            pos += len;
        }
        let (template_stream, id_stream, numeric_stream, text_stream) =
            (streams[0], streams[1], streams[2], streams[3]);

        // Rebuild templates.
        let template_text = std::str::from_utf8(template_stream).map_err(|_| LogArchiveError {
            message: "template dictionary is not UTF-8".to_string(),
        })?;
        let templates: Vec<Vec<&str>> = template_text
            .lines()
            .map(|l| l.split(' ').collect())
            .collect();

        // Rebuild lines.
        let (line_count, mut id_pos) = varint::read_usize(id_stream, 0)?;
        let mut numeric_pos = 0usize;
        let mut text_pos = 0usize;
        let mut last_numeric: std::collections::HashMap<(usize, usize), i64> =
            std::collections::HashMap::new();
        let mut lines = Vec::with_capacity(line_count);
        for _ in 0..line_count {
            let (tid, p) = varint::read_usize(id_stream, id_pos)?;
            id_pos = p;
            let template = templates.get(tid).ok_or_else(|| LogArchiveError {
                message: format!("template id {tid} out of range"),
            })?;
            let mut line = String::new();
            let mut slot = 0usize;
            for (i, token) in template.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                if *token == "<*>" {
                    // Pull the next variable.
                    let tag = *text_stream.get(text_pos).ok_or_else(|| LogArchiveError {
                        message: "truncated variable stream".to_string(),
                    })?;
                    text_pos += 1;
                    match tag {
                        1 => {
                            let width =
                                *text_stream.get(text_pos).ok_or_else(|| LogArchiveError {
                                    message: "truncated numeric width".to_string(),
                                })? as usize;
                            text_pos += 1;
                            let (delta, p) = varint::read_i64(numeric_stream, numeric_pos)?;
                            numeric_pos = p;
                            let key = (tid, slot);
                            let value = last_numeric.get(&key).copied().unwrap_or(0) + delta;
                            last_numeric.insert(key, value);
                            line.push_str(&format!("{value:0width$}"));
                        }
                        0 => {
                            let (len, p) = varint::read_usize(text_stream, text_pos)?;
                            text_pos = p;
                            if text_pos + len > text_stream.len() {
                                return Err(LogArchiveError {
                                    message: "truncated text variable".to_string(),
                                });
                            }
                            line.push_str(
                                std::str::from_utf8(&text_stream[text_pos..text_pos + len])
                                    .map_err(|_| LogArchiveError {
                                        message: "text variable is not UTF-8".to_string(),
                                    })?,
                            );
                            text_pos += len;
                        }
                        other => {
                            return Err(LogArchiveError {
                                message: format!("unknown variable tag {other}"),
                            })
                        }
                    }
                    slot += 1;
                } else {
                    line.push_str(token);
                }
            }
            lines.push(line);
        }
        Ok(lines)
    }

    /// Compression ratio over a corpus (compressed / raw, raw includes the
    /// newline separators).
    pub fn corpus_ratio(&self, lines: &[String]) -> f64 {
        let raw: usize = lines.iter().map(|l| l.len() + 1).sum();
        if raw == 0 {
            return 1.0;
        }
        self.compress_lines(lines).len() as f64 / raw as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apache_like(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "[Mon Jun 12 10:{:02}:{:02} 2023] [notice] workerEnv.init() ok /etc/httpd/conf/workers2.properties request {}",
                    (i / 60) % 60,
                    i % 60,
                    10000 + i
                )
            })
            .collect()
    }

    #[test]
    fn corpus_roundtrip_is_lossless() {
        let lines = apache_like(300);
        let lr = LogReducer::default();
        let archive = lr.compress_lines(&lines);
        let restored = lr.decompress_lines(&archive).unwrap();
        assert_eq!(restored, lines);
    }

    #[test]
    fn ratio_is_strong_on_templated_logs() {
        let lines = apache_like(500);
        let lr = LogReducer::default();
        let ratio = lr.corpus_ratio(&lines);
        assert!(
            ratio < 0.15,
            "templated logs should compress >6x, got {ratio:.3}"
        );
    }

    #[test]
    fn beats_plain_lzma_on_logs_with_numeric_noise() {
        // Lines whose only variation is numeric: the template + delta
        // pipeline should beat plain LZMA-like on the raw text.
        let lines: Vec<String> = (0..400)
            .map(|i| {
                format!(
                    "metric cpu_usage host=web-{:02} value={} ts={}",
                    i % 16,
                    37 + (i * 13) % 60,
                    1_686_000_000 + i * 15
                )
            })
            .collect();
        let raw: Vec<u8> = lines.join("\n").into_bytes();
        let lzma = LzmaLike::new(9).compress(&raw).len();
        let lr = LogReducer::default().compress_lines(&lines).len();
        assert!(
            lr < lzma,
            "LogReducer-like ({lr}) should beat plain LZMA-like ({lzma})"
        );
    }

    #[test]
    fn mixed_corpora_with_multiple_formats_roundtrip() {
        let mut lines = apache_like(100);
        for i in 0..100 {
            lines.push(format!(
                "081109 2035{:02} 143 INFO dfs.DataNode$DataXceiver: Receiving block blk_{} size {}",
                i % 60,
                -1_608_999_687i64 + i as i64,
                67_108_864 - i
            ));
        }
        for i in 0..50 {
            lines.push(format!(
                "panic at worker {} restarting in {}s",
                i,
                (i * 3) % 30
            ));
        }
        let lr = LogReducer::default();
        let restored = lr.decompress_lines(&lr.compress_lines(&lines)).unwrap();
        assert_eq!(restored, lines);
    }

    #[test]
    fn leading_zero_numerics_survive() {
        let lines: Vec<String> = (0..50)
            .map(|i| format!("event code {:06} processed", i * 37))
            .collect();
        let lr = LogReducer::default();
        let restored = lr.decompress_lines(&lr.compress_lines(&lines)).unwrap();
        assert_eq!(restored, lines);
    }

    #[test]
    fn corrupt_archives_are_rejected() {
        let lines = apache_like(30);
        let lr = LogReducer::default();
        let mut archive = lr.compress_lines(&lines);
        archive.truncate(archive.len() / 3);
        assert!(lr.decompress_lines(&archive).is_err());
        assert!(lr.decompress_lines(&[0, 1, 2, 3]).is_err());
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let lr = LogReducer::default();
        let archive = lr.compress_lines(&[]);
        assert!(lr.decompress_lines(&archive).unwrap().is_empty());
        assert_eq!(lr.corpus_ratio(&[]), 1.0);
    }
}
