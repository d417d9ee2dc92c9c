//! # pbc-bench — the paper reproducer
//!
//! One function per table/figure of the paper's evaluation (Section 7),
//! called by the `repro` command-line binary. Every function returns plain
//! data (rows of named measurements) so callers can print, assert on, or
//! plot the results. Engine performance (segments, tiered store, WAL,
//! router) is not measured here: that is `pbc-perf` in `bench/`. Figure 5
//! is the one experiment that runs engine code, and only its codec layer:
//! `pbc-archive`'s block codecs, called directly. Every lookup it times,
//! and every Table 8 GET, is checked against the record it should return.
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Table 2 (dataset statistics) | [`experiments::table2`] |
//! | Table 3 (line-by-line compression) | [`experiments::table3`] |
//! | Figure 5 (random access) | [`figures::fig5`] |
//! | Table 4 (file compression) | [`experiments::table4`] |
//! | Figure 6 (Pareto frontier) | [`figures::fig6`] |
//! | Figure 7 (clustering-criterion ablation) | [`figures::fig7`] |
//! | Figure 8 (pattern-extraction time) | [`figures::fig8`] |
//! | Figure 9 (training / pattern size sweeps) | [`figures::fig9a`], [`figures::fig9b`] |
//! | Table 5 (log compression) | [`experiments::table5`] |
//! | Tables 6–7 (JSON compression) | [`experiments::table6`], [`experiments::table7`] |
//! | Table 8 (production case study) | [`experiments::table8`] |
//!
//! Record counts are laptop-scale by default and can be shrunk further with
//! a scale factor (`repro --scale 0.25 ...`) for quick smoke runs.

#![forbid(unsafe_code)]

pub mod data;
pub mod experiments;
pub mod figures;
pub mod report;

pub use data::{corpus, scaled_count, SEED};
pub use report::Table;
