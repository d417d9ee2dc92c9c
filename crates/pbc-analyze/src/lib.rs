//! pbc-analyze — the workspace invariant checker.
//!
//! A tidy-style static analyzer (hand-rolled lexer, no parser
//! dependencies — the build environment is offline) enforcing the
//! cross-crate invariants the compiler cannot: unsafe confinement,
//! byte-determinism hygiene in the designated deterministic modules,
//! a declared-and-checked lock acquisition order, panic-free
//! production paths, and README/metric-name consistency. Run it as
//!
//! ```text
//! cargo run -p pbc-analyze -- --workspace-root .
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage/config error. Scope and
//! allowlists live in `analyze.toml` at the workspace root; per-site
//! escapes use `// pbc-allow(<lint>): <reason>` with a mandatory
//! justification.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod passes;
pub mod scan;

use std::path::{Path, PathBuf};

use config::Config;
use diag::{Diagnostic, Lint};
use passes::lockorder::LockOrder;
use passes::obsnames;
use scan::{FileKind, SourceFile};

/// Everything one run produces.
#[derive(Debug)]
pub struct Report {
    /// Findings, sorted by file / line / lint.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Run every pass over the workspace at `root` with `config`.
pub fn run(root: &Path, config: &Config) -> Result<Report, String> {
    let files = collect_files(root, config)?;
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut files = files;

    for file in &mut files {
        scan::collect_suppressions(file, &mut diags);
    }

    // Pass 3's annotations come first, from every file of the configured
    // crates: a `lock-wrapper` declared beside the lock's field must name
    // that lock in sibling files scanned before its own.
    let mut lock_order = LockOrder::default();
    let in_lock_order_crates =
        |file: &SourceFile| config.lock_order_crates.contains(&file.crate_name);
    for file in files.iter().filter(|f| in_lock_order_crates(f)) {
        lock_order.collect_annotations(file, &mut diags);
    }
    let mut registered = obsnames::NameSites::new();
    for file in &files {
        // Pass 1: unsafe confinement (every file, including test code —
        // tests compile as their own crates outside the root attribute).
        passes::unsafe_pass::check_tokens(file, config, &mut diags);
        if file.rel.ends_with("src/lib.rs") {
            passes::unsafe_pass::check_crate_root(file, config, &mut diags);
        }

        // Pass 2: determinism, in the declared modules only.
        if config.determinism_modules.iter().any(|m| m == &file.rel) {
            passes::determinism::check(file, &mut diags);
        }

        // Pass 3: lock-order acquisitions, over the configured crates'
        // production sources.
        if in_lock_order_crates(file) && file.kind == FileKind::Src {
            lock_order.scan_file(file, &mut diags);
        }

        // Pass 4: panic-path and dropped-result audits, production
        // sources only (abort-on-failure CLI drivers exempt by config).
        if file.kind == FileKind::Src
            && !config
                .panic_exempt_crates
                .iter()
                .any(|c| c == &file.crate_name)
        {
            passes::panics::check(file, &mut diags);
        }

        // Pass 5 (collection half): registered metric names.
        if !config
            .obs_exempt_crates
            .iter()
            .any(|c| c == &file.crate_name)
        {
            obsnames::collect_registered(file, &mut registered);
        }
    }

    lock_order.finish(&mut diags);

    let readme_path = root.join(&config.obs_readme);
    let readme_text = std::fs::read_to_string(&readme_path)
        .map_err(|e| format!("cannot read {}: {e}", readme_path.display()))?;
    let mut documented = obsnames::NameSites::new();
    obsnames::collect_documented(&config.obs_readme, &readme_text, &mut documented);
    obsnames::diff(&registered, &documented, &mut diags);

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    diags.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.lint == b.lint && a.message == b.message
    });
    Ok(Report {
        diagnostics: diags,
        files_scanned: files.len(),
    })
}

/// Discover and lex every workspace `.rs` file: each member listed in
/// the root `Cargo.toml` (skipping `vendor/` shims and excluded
/// prefixes) plus the root facade package, over `src/`, `tests/`,
/// `benches/`, and `examples/`.
fn collect_files(root: &Path, config: &Config) -> Result<Vec<SourceFile>, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let mut members = workspace_members(&manifest);
    if manifest.contains("[package]") {
        members.push(String::new()); // the root facade package
    }

    let mut files = Vec::new();
    for member in &members {
        let member_dir = if member.is_empty() {
            root.to_path_buf()
        } else {
            root.join(member)
        };
        let crate_name = if member.is_empty() {
            package_name(&manifest).unwrap_or_else(|| "root".to_string())
        } else {
            member
                .rsplit('/')
                .next()
                .unwrap_or(member.as_str())
                .to_string()
        };
        for sub in ["src", "tests", "benches", "examples"] {
            let dir = member_dir.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut paths = Vec::new();
            walk_rs(&dir, &mut paths)?;
            paths.sort();
            for path in paths {
                let rel = rel_path(root, &path);
                if config
                    .exclude_paths
                    .iter()
                    .any(|p| rel.starts_with(p.as_str()))
                {
                    continue;
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                files.push(SourceFile::new(path, rel, crate_name.clone(), &text));
            }
        }
    }
    Ok(files)
}

/// The `members = [...]` entries of the root manifest, minus `vendor/`
/// shims (offline stand-ins for third-party crates, not our code).
fn workspace_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let Some(at) = manifest.find("members") else {
        return members;
    };
    let rest = &manifest[at..];
    let Some(open) = rest.find('[') else {
        return members;
    };
    let Some(close) = rest.find(']') else {
        return members;
    };
    for part in rest[open + 1..close].split(',') {
        let part = part.trim().trim_matches('"');
        if !part.is_empty() && !part.starts_with("vendor/") {
            members.push(part.to_string());
        }
    }
    members
}

/// The `[package] name = "..."` of a manifest.
fn package_name(manifest: &str) -> Option<String> {
    let at = manifest.find("[package]")?;
    for line in manifest[at..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with('[') {
            break;
        }
        if let Some(value) = line.strip_prefix("name") {
            let value = value.trim_start();
            if let Some(value) = value.strip_prefix('=') {
                return Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Recursively collect `.rs` files under `dir`.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative, `/`-separated path.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Render a usage-facing list of the lints for `--list-lints`.
pub fn lint_table() -> String {
    let mut out = String::new();
    for lint in Lint::all() {
        out.push_str(&format!("{}\n", lint.id()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_and_vendor_is_skipped() {
        let members = workspace_members(
            "[workspace]\nmembers = [\n    \"crates/a\",\n    \"vendor/rand\",\n]\n",
        );
        assert_eq!(members, vec!["crates/a"]);
    }

    #[test]
    fn package_name_parses() {
        assert_eq!(
            package_name("[workspace]\n[package]\nname = \"pbc\"\nversion = \"1\"\n"),
            Some("pbc".to_string())
        );
    }
}
