//! `pbc-perf`: the repository's performance benchmark.
//!
//! ```text
//! pbc-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what BENCHMARK.json calls)
//! pbc-perf run [--all | --workload <name>]... [--seed <n>] [--trace] [--measure-s <s>] [--smoke] [--json <path>]
//! pbc-perf compare <a.json> <b.json>
//! pbc-perf calibrate --sets <n> [--measure-s <s>] [--smoke]
//! ```
//!
//! See `README.md` beside this package for the load model, the workloads
//! and how the metrics interact.

mod compare;
mod engine;
mod gen;
mod ladder;
mod metrics;
mod report;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pbc_json::JsonValue;

use crate::report::{execute, obj, SPAN_CAP};
use crate::workloads::{default_clients, RunConfig, Sizes, WORKLOADS};

/// Window length when none is given: what `BENCHMARK.json` passes.
pub const DEFAULT_SECONDS: f64 = 24.0;
/// Window length of `--smoke`.
pub const SMOKE_SECONDS: f64 = 3.0;

/// The package directory: `$CARGO_MANIFEST_DIR` when run through cargo,
/// else where the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where traces, result documents and store files go: `out/` in the
/// package, which the benchmark's `.gitignore` names.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Command-line flags as `--name value` pairs plus bare words.
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    /// Arguments that are not flags, in order.
    pub words: Vec<String>,
}

impl Args {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 3] = ["--all", "--smoke", "--trace"];

    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut iter = raw.iter().peekable();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                words.push(arg.clone());
                continue;
            }
            // `--trace` is a switch for `run` but carries 0|1 in a single run.
            let takes_value = !Self::SWITCHES.contains(&arg.as_str())
                || (arg == "--trace" && iter.peek().is_some_and(|v| *v == "0" || *v == "1"));
            let value = if takes_value {
                Some(iter.next().ok_or(format!("{arg} needs a value"))?.clone())
            } else {
                None
            };
            flags.push((arg.clone(), value));
        }
        Ok(Args { flags, words })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.all(name).last() {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {text:?}")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown flag {name}")),
            None => Ok(()),
        }
    }

    /// Window length: `--seconds` / `--measure-s`, else by mode.
    fn seconds(&self) -> Result<f64, String> {
        let given = self
            .number::<f64>("--seconds")?
            .or(self.number("--measure-s")?);
        let seconds = given.unwrap_or(if self.has("--smoke") {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        });
        if (0.5..=600.0).contains(&seconds) {
            Ok(seconds)
        } else {
            Err(format!("window of {seconds} s is outside 0.5..=600"))
        }
    }

    fn sizes(&self) -> Sizes {
        if self.has("--smoke") {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }
}

/// The workload called `name`, as the `'static` entry of [`WORKLOADS`].
pub fn workload_named(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or(format!("unknown workload {name:?}; one of {WORKLOADS:?}"))
}

/// One run in this process: the mode `BENCHMARK.json`'s command uses. The
/// last line of standard output is the result object; the line before it
/// carries the detail `run` and `calibrate` collect.
fn single_run(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--trace", "--smoke"])?;
    let workload = workload_named(
        args.all("--workload")
            .last()
            .ok_or("--workload is required")?,
    )?;
    let traced = match args.all("--trace").last() {
        None | Some(&"0") => false,
        Some(&"1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seconds = args.seconds()?;
    let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
    let config = RunConfig {
        workload: workload.to_string(),
        seed: args.number("--seed")?.unwrap_or(1),
        // A traced run spends the other half of its seconds on the ladder.
        window: Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds }),
        clients: default_clients(),
        sizes: args.sizes(),
        span_cap: if traced { SPAN_CAP } else { 0 },
        scratch: scratch.clone(),
    };
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let outcome = execute(&config, traced, &out_dir());
    let _ = std::fs::remove_dir_all(&scratch);
    let report = outcome?;
    for check in report
        .detail
        .get("checks")
        .into_iter()
        .flat_map(array_items)
    {
        let ok = check.get("ok") == Some(&JsonValue::Bool(true));
        let what = check.get("what").and_then(JsonValue::as_str).unwrap_or("?");
        eprintln!("[{}] {what}", if ok { "ok" } else { "FAILED" });
    }
    for note in report.detail.get("notes").into_iter().flat_map(array_items) {
        eprintln!("{}", note.as_str().unwrap_or("?"));
    }
    println!("DETAIL {}", pbc_json::to_string(&report.detail));
    let result = obj(vec![
        ("correct", JsonValue::from(report.correct)),
        ("attempted", JsonValue::from(report.attempted as i64)),
        ("failed", JsonValue::from(report.failed as i64)),
        ("metrics", metrics::metrics_json(&report.metrics)),
    ]);
    println!("{}", pbc_json::to_string(&result));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The items of a JSON array; none for anything else.
pub fn array_items(value: &JsonValue) -> &[JsonValue] {
    match value {
        JsonValue::Array(items) => items,
        _ => &[],
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&raw).and_then(|args| match args.words.first().map(String::as_str) {
        None if args.has("--workload") => single_run(&args),
        Some("run") => compare::run_command(&args),
        Some("compare") => compare::compare_command(&args),
        Some("calibrate") => compare::calibrate_command(&args),
        _ => Err(
            "usage: pbc-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
             pbc-perf run [--all | --workload <name>]... [--seed <n>] [--trace] [--measure-s <s>] [--smoke] [--json <path>]\n       \
             pbc-perf compare <a.json> <b.json>\n       \
             pbc-perf calibrate --sets <n> [--measure-s <s>] [--smoke]"
                .to_string(),
        ),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pbc-perf: {message}");
            ExitCode::from(2)
        }
    }
}
