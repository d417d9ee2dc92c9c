//! `run`, `compare` and `calibrate`: whole-benchmark runs as result
//! documents, and verdicts between two of them.
//!
//! `run` starts every workload as a child process in single-run mode, the
//! same way the driver does, so `peak_rss_mib` is one workload's and a
//! workload cannot warm another's caches.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use pbc_json::JsonValue;

use crate::metrics::{end_to_end, per_layer, MetricDef};
use crate::report::obj;
use crate::stats::{median, relative_spread};
use crate::workloads::{default_clients, WORKLOADS};
use crate::{array_items, out_dir, package_dir, workload_named, Args};

/// Version of the result document's layout.
const SCHEMA: &str = "pbc-perf/1";

fn number(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

fn members(value: &JsonValue) -> &[(String, JsonValue)] {
    match value {
        JsonValue::Object(members) => members,
        _ => &[],
    }
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: JsonValue,
    detail: JsonValue,
}

/// Run one workload in a child process and parse its last two lines.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| pbc_json::parse(l).ok())
        .ok_or(format!(
            "{workload}: no result line (exit {:?})",
            output.status.code()
        ))?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("DETAIL "))
        .and_then(|l| pbc_json::parse(l).ok())
        .ok_or(format!("{workload}: no detail line"))?;
    let field = |name: &str| {
        result
            .get(name)
            .ok_or(format!("{workload}: result lacks {name}"))
    };
    Ok(ChildRun {
        correct: field("correct")? == &JsonValue::Bool(true) && output.status.success(),
        attempted: number(field("attempted")?).unwrap_or(0.0),
        failed: number(field("failed")?).unwrap_or(0.0),
        metrics: field("metrics")?.clone(),
        detail,
    })
}

/// `{name: {value, unit, higher_is_better, samples, spread}}` from a
/// child's metrics and detail. A metric that is the median of the window's
/// slices has that many samples and their spread; any other is one
/// measurement, and one run cannot say how far it would move.
fn annotate(defs: &[MetricDef], child: &ChildRun) -> JsonValue {
    JsonValue::Object(
        defs.iter()
            .filter_map(|d| {
                let entry = child.metrics.get(&d.name)?;
                let slices = child.detail.get("slices").and_then(|s| s.get(&d.name));
                let (n, spread) = slices.map_or((1.0, 0.0), |s| {
                    (
                        s.get("values").map_or(0, |v| array_items(v).len()) as f64,
                        s.get("spread").and_then(number).unwrap_or(0.0),
                    )
                });
                Some((
                    d.name.clone(),
                    obj(vec![
                        ("value", entry.get("value")?.clone()),
                        ("unit", JsonValue::from(d.unit)),
                        ("higher_is_better", JsonValue::from(d.higher_is_better)),
                        ("samples", JsonValue::from(n)),
                        ("spread", JsonValue::from(spread)),
                    ]),
                ))
            })
            .collect(),
    )
}

/// Settings of a whole-benchmark run.
struct RunPlan {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

/// Run the plan's workloads and assemble the result document. The flag is
/// whether every run was correct.
fn run_plan(plan: &RunPlan) -> Result<(JsonValue, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for &workload in &plan.workloads {
        eprintln!(
            "== {workload} (seed {}, {} s window)",
            plan.seed, plan.seconds
        );
        let untraced = child_run(workload, plan.seed, plan.seconds, false, plan.smoke)?;
        all_correct &= untraced.correct;
        let mut entry = vec![
            ("correct", JsonValue::from(untraced.correct)),
            ("attempted", JsonValue::from(untraced.attempted)),
            ("failed", JsonValue::from(untraced.failed)),
            ("e2e", annotate(&end_to_end(), &untraced)),
        ];
        if plan.traced {
            let traced = child_run(workload, plan.seed, plan.seconds, true, plan.smoke)?;
            all_correct &= traced.correct;
            entry.push(("layers", annotate(&per_layer(), &traced)));
            entry.push(("traced_detail", traced.detail));
        }
        entry.push(("detail", untraced.detail));
        workloads.push((workload.to_string(), obj(entry)));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = obj(vec![
        ("schema", JsonValue::from(SCHEMA)),
        (
            "git_rev",
            JsonValue::from(tool_version("git", &["rev-parse", "HEAD"]).as_str()),
        ),
        (
            "rustc",
            JsonValue::from(tool_version("rustc", &["--version"]).as_str()),
        ),
        ("nproc", JsonValue::from(nproc as i64)),
        ("clients", JsonValue::from(default_clients() as i64)),
        ("seed", JsonValue::from(plan.seed as i64)),
        (
            "sizes",
            obj(vec![
                ("window_s", JsonValue::from(plan.seconds)),
                ("smoke", JsonValue::from(plan.smoke)),
            ]),
        ),
        ("workloads", JsonValue::Object(workloads)),
    ]);
    Ok((doc, all_correct))
}

/// Every metric of a result document, one line each: workload, name,
/// value, unit.
fn print_document(doc: &JsonValue) {
    for (workload, entry) in members(doc.get("workloads").unwrap_or(&JsonValue::Null)) {
        for section in ["e2e", "layers"] {
            for (name, metric) in members(entry.get(section).unwrap_or(&JsonValue::Null)) {
                let value = metric.get("value").and_then(number).unwrap_or(f64::NAN);
                let unit = metric.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                println!("{workload:<18} {name:<40} {value:>16.4} {unit}");
            }
        }
    }
}

fn write_document(path: &Path, doc: &JsonValue) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
    }
    std::fs::write(path, pbc_json::to_string(doc)).map_err(|e| format!("write {path:?}: {e}"))
}

fn selected_workloads(args: &Args) -> Result<Vec<&'static str>, String> {
    let named = args.all("--workload");
    if args.has("--all") || named.is_empty() {
        return Ok(WORKLOADS.to_vec());
    }
    named.into_iter().map(workload_named).collect()
}

/// `pbc-perf run`.
pub fn run_command(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&[
        "--all",
        "--workload",
        "--seed",
        "--trace",
        "--measure-s",
        "--smoke",
        "--json",
    ])?;
    let plan = RunPlan {
        workloads: selected_workloads(args)?,
        seed: args.number("--seed")?.unwrap_or(1),
        seconds: args.seconds()?,
        traced: args.has("--trace"),
        smoke: args.has("--smoke"),
    };
    let (doc, all_correct) = run_plan(&plan)?;
    print_document(&doc);
    let path = args.all("--json").last().map_or_else(
        || out_dir().join(format!("result-seed{}.json", plan.seed)),
        PathBuf::from,
    );
    write_document(&path, &doc)?;
    eprintln!("result document: {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than `a` by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse than `a` by more than the bound.
    Worse,
    /// The difference is inside the runs' own spread, and that spread is
    /// wider than the bound: the two runs cannot tell.
    Unresolved,
}

/// Share by which `b` is worse than `a` (negative when it is better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// The verdict for one metric of one workload.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let worse_by = worsening(a, b, higher_is_better);
    if spread > bound && worse_by.abs() <= spread {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `(metric, higher_is_better, bound)` for every end-to-end metric, from
/// the repository's `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let doc = pbc_json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    array_items(
        doc.get("end_to_end")
            .ok_or("BENCHMARK.json lacks end_to_end")?,
    )
    .iter()
    .map(|m| {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("metric lacks name")?;
        let better = m
            .get("better")
            .and_then(JsonValue::as_str)
            .ok_or("metric lacks better")?;
        let bound = m
            .get("bound")
            .and_then(number)
            .ok_or("metric lacks bound")?;
        Ok((name.to_string(), better == "higher", bound))
    })
    .collect()
}

fn benchmark_json() -> PathBuf {
    package_dir().join("..").join("BENCHMARK.json")
}

/// Print one row per workload; returns `(worse, unresolved)` counts.
fn compare_documents(
    a: &JsonValue,
    b: &JsonValue,
    bounds: &[(String, bool, f64)],
) -> (usize, usize) {
    let (mut worse, mut unresolved) = (0, 0);
    for (workload, entry_a) in members(a.get("workloads").unwrap_or(&JsonValue::Null)) {
        let Some(entry_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        let mut row = format!("{workload:<18}");
        // More failures, or a run that was not correct, is worse whatever
        // the metrics say.
        let failed = |entry: &JsonValue| entry.get("failed").and_then(number).unwrap_or(0.0);
        let incorrect = entry_b.get("correct") != Some(&JsonValue::Bool(true));
        if incorrect || failed(entry_b) > failed(entry_a) {
            worse += 1;
            row += &format!(
                "  failed=worse({} -> {}{})",
                failed(entry_a),
                failed(entry_b),
                if incorrect { ", not correct" } else { "" }
            );
        }
        for (name, higher, bound) in bounds {
            let metric = |entry: &JsonValue, field: &str| {
                entry.get("e2e")?.get(name)?.get(field).and_then(number)
            };
            let (Some(va), Some(vb)) = (metric(entry_a, "value"), metric(entry_b, "value")) else {
                continue;
            };
            let spread = metric(entry_a, "spread")
                .unwrap_or(0.0)
                .max(metric(entry_b, "spread").unwrap_or(0.0));
            let outcome = verdict(va, vb, *higher, *bound, spread);
            worse += (outcome == Verdict::Worse) as usize;
            unresolved += (outcome == Verdict::Unresolved) as usize;
            row += &format!(
                "  {name}={}({:+.1}%)",
                format!("{outcome:?}").to_lowercase(),
                100.0 * worsening(va, vb, *higher)
            );
        }
        println!("{row}");
    }
    (worse, unresolved)
}

fn load_document(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = pbc_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

/// `pbc-perf compare a.json b.json`: positive percentages are `b` worse.
pub fn compare_command(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&[])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes two result documents".to_string());
    };
    let bounds = load_bounds(&benchmark_json())?;
    let (worse, unresolved) = compare_documents(&load_document(a)?, &load_document(b)?, &bounds);
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `pbc-perf calibrate --sets N`: N full untraced runs (another seed each,
/// workload order reversed on every second set), each metric's min /
/// median / max and relative spread, then every set compared with the
/// first.
pub fn calibrate_command(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["--sets", "--seed", "--measure-s", "--smoke"])?;
    let sets: usize = args.number("--sets")?.ok_or("--sets is required")?;
    let base_seed: u64 = args.number("--seed")?.unwrap_or(1);
    let mut documents = Vec::new();
    for set in 0..sets {
        let mut workloads = WORKLOADS.to_vec();
        if set % 2 == 1 {
            workloads.reverse();
        }
        let plan = RunPlan {
            workloads,
            seed: base_seed + set as u64,
            seconds: args.seconds()?,
            traced: false,
            smoke: args.has("--smoke"),
        };
        let (doc, correct) = run_plan(&plan)?;
        if !correct {
            return Err(format!("set {set} had an incorrect run"));
        }
        write_document(&out_dir().join(format!("calibrate-set-{set}.json")), &doc)?;
        documents.push(doc);
    }
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "min", "median", "max", "spread"
    );
    for workload in WORKLOADS {
        for def in end_to_end() {
            let values: Vec<f64> = documents
                .iter()
                .filter_map(|d| {
                    d.get("workloads")?
                        .get(workload)?
                        .get("e2e")?
                        .get(&def.name)?
                        .get("value")
                })
                .filter_map(number)
                .collect();
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "{workload:<18} {:<28} {min:>14.4} {:>14.4} {max:>14.4} {:>8.4}",
                def.name,
                median(&values),
                relative_spread(&values)
            );
        }
    }
    let bounds = load_bounds(&benchmark_json())?;
    let (mut worse, mut unresolved) = (0, 0);
    for (set, doc) in documents.iter().enumerate().skip(1) {
        println!("-- set {set} against set 0");
        let (w, u) = compare_documents(&documents[0], doc, &bounds);
        worse += w;
        unresolved += u;
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse + unresolved > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(100.0, 105.0, false, 0.10, 0.0), Verdict::Same);
        assert_eq!(verdict(100.0, 111.0, false, 0.10, 0.0), Verdict::Worse);
        assert_eq!(verdict(100.0, 80.0, false, 0.10, 0.0), Verdict::Better);
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(100.0, 80.0, true, 0.10, 0.0), Verdict::Worse);
        assert_eq!(verdict(100.0, 120.0, true, 0.10, 0.0), Verdict::Better);
        // A spread wider than the bound hides differences inside it ...
        assert_eq!(
            verdict(100.0, 111.0, false, 0.10, 0.15),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, false, 0.10, 0.15),
            Verdict::Unresolved
        );
        // ... but not one well outside it.
        assert_eq!(verdict(100.0, 140.0, false, 0.10, 0.15), Verdict::Worse);
        assert!((worsening(200.0, 150.0, true) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn more_failures_or_an_incorrect_run_is_worse_whatever_the_metrics_say() {
        let doc = |correct: bool, failed: u64| {
            pbc_json::parse(&format!(
                r#"{{"workloads":{{"w":{{"correct":{correct},"failed":{failed},
                    "e2e":{{"m":{{"value":10.0,"spread":0.0}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let bounds = vec![("m".to_string(), false, 0.1)];
        assert_eq!(
            compare_documents(&doc(true, 0), &doc(true, 0), &bounds),
            (0, 0)
        );
        assert_eq!(
            compare_documents(&doc(true, 0), &doc(true, 3), &bounds),
            (1, 0)
        );
        assert_eq!(
            compare_documents(&doc(true, 3), &doc(true, 3), &bounds),
            (0, 0)
        );
        assert_eq!(
            compare_documents(&doc(true, 0), &doc(false, 0), &bounds),
            (1, 0)
        );
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics, with the
    /// same units and directions, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue_in_both_directions() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = pbc_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for (section, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = array_items(doc.get(section).unwrap());
            let field =
                |m: &JsonValue, f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            let listed: Vec<(String, String, bool)> = listed
                .iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        field(m, "unit"),
                        field(m, "better") == "higher",
                    )
                })
                .collect();
            let emitted: Vec<(String, String, bool)> = defs
                .iter()
                .map(|d| (d.name.clone(), d.unit.to_string(), d.higher_is_better))
                .collect();
            for m in &listed {
                assert!(
                    emitted.contains(m),
                    "{section}: BENCHMARK.json lists {m:?}, the binary does not emit it"
                );
            }
            for m in &emitted {
                assert!(
                    listed.contains(m),
                    "{section}: the binary emits {m:?}, BENCHMARK.json does not list it"
                );
            }
            assert_eq!(
                listed.len(),
                emitted.len(),
                "{section}: a name is listed twice"
            );
        }
        let workloads: Vec<&str> = array_items(doc.get("workloads").unwrap())
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let bounds = load_bounds(&path).unwrap();
        assert!(bounds
            .iter()
            .all(|(_, _, bound)| *bound > 0.0 && *bound <= 0.25));
        assert!(bounds
            .iter()
            .any(|(name, higher, _)| name == "setup_s" && !higher));
    }
}
