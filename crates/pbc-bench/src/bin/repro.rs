//! `repro` — regenerate every table and figure of the PBC paper's
//! evaluation on the synthetic stand-in datasets.
//!
//! ```text
//! Usage: repro [--scale <f64>] [--smoke] [--experiment <name>] <experiment>...
//!
//! Experiments:
//!   table2 table3 table4 table5 table6 table7 table8
//!   fig5 fig6 fig7 fig8 fig9a fig9b
//!   all            run everything (takes several minutes)
//!   quick          a reduced sanity pass over the main results
//! ```
//!
//! `--scale` multiplies every dataset's record count (default 0.5); use a
//! small value like 0.05 for a smoke run, or pass `--smoke` which pins the
//! scale to 0.02 for CI. `--experiment <name>` is an explicit alias for the
//! positional form.

use pbc_bench::experiments::{
    render_dataset_rows, render_method_table, table2, table3, table4, table5, table6, table7,
    table8,
};
use pbc_bench::figures::{
    fig5, fig6, fig7, fig8, fig9a, fig9b, pareto_frontier, render_fig5, render_fig7,
};
use pbc_bench::report::Table;
use pbc_datagen::Dataset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<f64> = None;
    let mut smoke = false;
    let mut experiments: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--scale requires a number")),
                );
            }
            "--smoke" => smoke = true,
            "--experiment" => {
                i += 1;
                experiments.push(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--experiment requires a name")),
                );
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => experiments.push(other.to_string()),
        }
        i += 1;
    }
    // --smoke pins a tiny scale unless one was given explicitly.
    let scale = scale.unwrap_or(if smoke { 0.02 } else { 0.5 });
    if experiments.is_empty() {
        print_usage();
        return;
    }
    let expanded: Vec<String> = experiments
        .iter()
        .flat_map(|e| match e.as_str() {
            "all" => vec![
                "table2", "table3", "fig5", "table4", "fig6", "fig7", "fig8", "fig9a", "fig9b",
                "table5", "table6", "table7", "table8",
            ]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>(),
            "quick" => vec!["table2", "table3", "fig5", "table8"]
                .into_iter()
                .map(String::from)
                .collect(),
            other => vec![other.to_string()],
        })
        .collect();

    for experiment in expanded {
        run_experiment(&experiment, scale);
    }
}

fn print_usage() {
    println!(
        "Usage: repro [--scale <f64>] [--smoke] [--experiment <name>] <experiment>...\n\
         Experiments: table2 table3 table4 table5 table6 table7 table8 \
         fig5 fig6 fig7 fig8 fig9a fig9b all quick"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn run_experiment(name: &str, scale: f64) {
    eprintln!("[repro] running {name} at scale {scale} ...");
    let started = std::time::Instant::now();
    match name {
        "table2" => println!("{}", table2(scale).render()),
        "table3" => {
            let rows = table3(scale, &Dataset::all());
            println!(
                "{}",
                render_dataset_rows("Table 3: line-by-line compression", &rows).render()
            );
        }
        "table4" => {
            let rows = table4(scale, &Dataset::all());
            println!(
                "{}",
                render_dataset_rows("Table 4: file compression", &rows).render()
            );
        }
        "table5" => {
            let rows = table5(scale);
            println!(
                "{}",
                render_method_table(
                    "Table 5: log compression (average over log datasets)",
                    &rows
                )
                .render()
            );
        }
        "table6" => {
            let rows = table6(scale);
            println!(
                "{}",
                render_method_table(
                    "Table 6: JSON compression (average over JSON datasets)",
                    &rows
                )
                .render()
            );
        }
        "table7" => {
            let rows = table7(scale);
            let mut table = Table::new(
                "Table 7: file-compression ratio on JSON datasets",
                &["dataset", "BP-D+LZMA", "PBC_L"],
            );
            for (dataset, bp, pbc) in rows {
                table.push_row(vec![dataset, format!("{bp:.3}"), format!("{pbc:.3}")]);
            }
            println!("{}", table.render());
        }
        "table8" => {
            let rows = table8(scale).unwrap_or_else(|e| die(&format!("table8: {e}")));
            let mut table = Table::new(
                "Table 8: production case study (TierBase-like store)",
                &["workload", "codec", "memory %", "SET qps", "GET qps"],
            );
            for row in rows {
                table.push_row(vec![
                    row.workload,
                    row.codec.to_string(),
                    format!("{:.1}", row.memory_pct),
                    format!("{:.0}", row.set_qps),
                    format!("{:.0}", row.get_qps),
                ]);
            }
            println!("{}", table.render());
        }
        "fig5" => println!("{}", render_fig5(&fig5(scale)).render()),
        "fig6" => {
            // A representative subset keeps the double (table3 + table4) pass
            // affordable.
            let datasets = [
                Dataset::Kv1,
                Dataset::Kv2,
                Dataset::Hdfs,
                Dataset::Apache,
                Dataset::Cities,
                Dataset::Urls,
            ];
            let points = fig6(scale, &datasets);
            let comp_points: Vec<(f64, f64)> =
                points.iter().map(|p| (p.ratio, p.comp_mb_s)).collect();
            let frontier = pareto_frontier(&comp_points);
            let mut table = Table::new(
                "Figure 6: Pareto view (averaged over representative datasets)",
                &[
                    "method",
                    "comp ratio",
                    "comp MB/s",
                    "decomp MB/s",
                    "on comp-speed frontier",
                ],
            );
            for (p, on_frontier) in points.iter().zip(frontier) {
                table.push_row(vec![
                    p.method.clone(),
                    format!("{:.3}", p.ratio),
                    format!("{:.2}", p.comp_mb_s),
                    format!("{:.2}", p.decomp_mb_s),
                    if on_frontier {
                        "yes".into()
                    } else {
                        "no".into()
                    },
                ]);
            }
            println!("{}", table.render());
        }
        "fig7" => println!("{}", render_fig7(&fig7(scale)).render()),
        "fig8" => {
            let points = fig8(scale);
            let mut table = Table::new(
                "Figure 8: pattern-extraction time (naive vs 1-gram pruning)",
                &["dataset", "variant", "seconds", "exact evaluations"],
            );
            for p in points {
                table.push_row(vec![
                    p.dataset,
                    p.variant.to_string(),
                    format!("{:.3}", p.seconds),
                    p.exact_evaluations.to_string(),
                ]);
            }
            println!("{}", table.render());
        }
        "fig9a" | "fig9b" => {
            let (points, title, param) = if name == "fig9a" {
                (
                    fig9a(scale),
                    "Figure 9(a): ratio vs training size",
                    "training bytes",
                )
            } else {
                (
                    fig9b(scale),
                    "Figure 9(b): ratio vs pattern-dictionary budget",
                    "budget bytes",
                )
            };
            let mut table = Table::new(title, &["dataset", param, "comp ratio"]);
            for p in points {
                table.push_row(vec![
                    p.dataset,
                    p.parameter.to_string(),
                    format!("{:.3}", p.ratio),
                ]);
            }
            println!("{}", table.render());
        }
        other => die(&format!("unknown experiment '{other}'")),
    }
    eprintln!(
        "[repro] {name} finished in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
