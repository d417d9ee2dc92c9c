//! Fixture-driven integration tests.
//!
//! Each known-bad snippet under `tests/fixtures/` is mounted as the
//! sole crate of a throwaway workspace in a temp directory, the
//! analyzer runs over it, and the findings must match exactly — right
//! lint id, right line. The last test runs the analyzer over the real
//! workspace with the checked-in `analyze.toml` and requires a clean
//! report, so a regression anywhere in the tree fails `cargo test`
//! before CI even reaches the dedicated analyze job.
//!
//! The fixtures themselves are excluded from real-workspace scans via
//! `analyze.toml [workspace] exclude_paths`, and cargo never compiles
//! them (test subdirectories are not build targets), so they are free
//! to contain `unsafe`, panics, and non-compiling lock shapes.

use std::fs;
use std::path::{Path, PathBuf};

use pbc_analyze::config;
use pbc_analyze::diag::{Diagnostic, Lint};

/// The scope handed to every fixture workspace: the one crate is under
/// every pass — its root must forbid unsafe, its `lib.rs` is a
/// deterministic module, its locks feed the order graph, and its
/// metrics must match the workspace README.
const FIXTURE_CONFIG: &str = r#"
[workspace]
exclude_paths = []

[unsafe]
allowed_files = []
deny_roots = []

[determinism]
modules = ["crates/fix/src/lib.rs"]

[lock-order]
crates = ["fix"]

[panic]
exempt_crates = []

[obs-names]
readme = "README.md"
exempt_crates = []
"#;

const DEFAULT_README: &str = "# fixture workspace\n";

/// README documenting a metric no fixture registers — the obs-names
/// "stale row" direction.
const OBS_README: &str =
    "# fixture workspace\n\n| `pbc_fix_ghost_total` | counter | documented but never registered |\n";

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Assemble a one-crate workspace with the fixture as
/// `crates/fix/src/lib.rs`, run the analyzer, and return its findings.
fn run_fixture(name: &str, readme: &str) -> Vec<Diagnostic> {
    run_fixture_with_sibling(name, readme, None)
}

/// [`run_fixture`], with a second fixture optionally mounted beside
/// `lib.rs` as `crates/fix/src/<module>.rs`.
fn run_fixture_with_sibling(
    name: &str,
    readme: &str,
    sibling: Option<(&str, &str)>,
) -> Vec<Diagnostic> {
    let root = std::env::temp_dir().join(format!(
        "pbc-analyze-fixture-{}-{}",
        name.trim_end_matches(".rs"),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/fix/src")).expect("create fixture workspace");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/fix\"]\n",
    )
    .expect("write fixture manifest");
    fs::write(root.join("README.md"), readme).expect("write fixture README");
    let snippet = fs::read_to_string(fixture_path(name)).expect("read fixture snippet");
    fs::write(root.join("crates/fix/src/lib.rs"), snippet).expect("write fixture source");
    if let Some((module, fixture)) = sibling {
        let snippet = fs::read_to_string(fixture_path(fixture)).expect("read sibling fixture");
        fs::write(root.join(format!("crates/fix/src/{module}.rs")), snippet)
            .expect("write sibling source");
    }

    let cfg = config::parse(FIXTURE_CONFIG).expect("fixture config parses");
    let report = pbc_analyze::run(&root, &cfg).expect("analyzer runs");
    let _ = fs::remove_dir_all(&root);
    report.diagnostics
}

/// The lines (sorted, as reported) on which `lint` fired.
fn lines_of(diags: &[Diagnostic], lint: Lint) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.lint == lint)
        .map(|d| d.line)
        .collect()
}

#[test]
fn unsafe_fixture_flags_keyword_and_missing_forbid() {
    let diags = run_fixture("unsafe_confinement.rs", DEFAULT_README);
    // Line 1: crate root missing #![forbid(unsafe_code)]; line 5: the
    // unsafe block itself.
    assert_eq!(lines_of(&diags, Lint::Unsafe), vec![1, 5], "{diags:?}");
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn determinism_fixture_flags_hash_maps_clocks_and_address_casts() {
    let diags = run_fixture("determinism.rs", DEFAULT_README);
    // Line 8: HashMap (both uses collapse into one identical finding);
    // line 12: Instant::now; line 17: as_ptr() as usize. The `use`
    // lines are deliberately free.
    assert_eq!(
        lines_of(&diags, Lint::Determinism),
        vec![8, 12, 17],
        "{diags:?}"
    );
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn panic_fixture_flags_each_panic_site_and_the_dropped_result() {
    let diags = run_fixture("panic_paths.rs", DEFAULT_README);
    // Line 9: panic!; line 11: unwrap(); line 15: expect().
    assert_eq!(lines_of(&diags, Lint::Panic), vec![9, 11, 15], "{diags:?}");
    // Line 7: `let _ = file.sync_all()` — the fsyncgate class.
    assert_eq!(lines_of(&diags, Lint::DropResult), vec![7], "{diags:?}");
    assert!(diags
        .iter()
        .any(|d| d.lint == Lint::DropResult && d.message.contains("sync_all")));
    assert_eq!(diags.len(), 4, "{diags:?}");
}

#[test]
fn lock_cycle_fixture_reports_both_nestings_and_the_cycle() {
    let diags = run_fixture("lock_cycle.rs", DEFAULT_README);
    // Line 16: a→b undeclared + the cycle report anchors there (first
    // observed edge on the cycle); line 22: b→a undeclared.
    assert_eq!(
        lines_of(&diags, Lint::LockOrder),
        vec![16, 16, 22],
        "{diags:?}"
    );
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.message.contains("undeclared lock nesting"))
            .count(),
        2,
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("lock-order cycle (potential deadlock)")),
        "{diags:?}"
    );
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn declared_lock_order_fixture_is_clean() {
    let diags = run_fixture("lock_declared.rs", DEFAULT_README);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wrappers_declared_in_a_later_file_name_locks_in_an_earlier_one() {
    let diags = run_fixture_with_sibling(
        "lock_wrapper_user.rs",
        DEFAULT_README,
        Some(("owner", "lock_wrapper_owner.rs")),
    );
    // Line 12 of lib.rs: `lock_a` taken while `lock_b`'s guard is held.
    assert!(
        diags.iter().any(|d| d.lint == Lint::LockOrder
            && d.file.ends_with("lib.rs")
            && d.line == 12
            && d.message.contains("declared order requires")),
        "{diags:?}"
    );
}

#[test]
fn bad_suppressions_fail_loudly_and_do_not_suppress() {
    let diags = run_fixture("bad_suppression.rs", DEFAULT_README);
    // Line 6: unknown lint id `panics`; line 11: missing justification.
    assert_eq!(
        lines_of(&diags, Lint::Suppression),
        vec![6, 11],
        "{diags:?}"
    );
    assert!(diags
        .iter()
        .any(|d| d.lint == Lint::Suppression && d.message.contains("unknown lint `panics`")));
    assert!(diags
        .iter()
        .any(|d| d.lint == Lint::Suppression && d.message.contains("requires a justification")));
    // Both unwraps still fire — a malformed annotation must never act
    // as a suppression.
    assert_eq!(lines_of(&diags, Lint::Panic), vec![7, 12], "{diags:?}");
    assert_eq!(diags.len(), 4, "{diags:?}");
}

#[test]
fn obs_fixture_diffs_registration_against_the_readme_both_ways() {
    let diags = run_fixture("obs_metrics.rs", OBS_README);
    assert_eq!(diags.len(), 2, "{diags:?}");
    // Registered but undocumented: anchored at the registration site.
    assert!(
        diags.iter().any(|d| d.lint == Lint::ObsNames
            && d.file == "crates/fix/src/lib.rs"
            && d.line == 14
            && d.message.contains("pbc_fix_undocumented_total")),
        "{diags:?}"
    );
    // Documented but never registered: anchored at the README row.
    assert!(
        diags.iter().any(|d| d.lint == Lint::ObsNames
            && d.file == "README.md"
            && d.line == 3
            && d.message.contains("pbc_fix_ghost_total")),
        "{diags:?}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = config::load(&root.join("analyze.toml")).expect("analyze.toml loads");
    let report = pbc_analyze::run(&root, &cfg).expect("analyzer runs");
    let rendered: Vec<String> = report
        .diagnostics
        .iter()
        .map(Diagnostic::render_text)
        .collect();
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must be analyze-clean:\n{}",
        rendered.join("\n")
    );
    // Sanity: the scan actually covered the tree, not an empty dir.
    assert!(report.files_scanned > 100, "{}", report.files_scanned);
}
