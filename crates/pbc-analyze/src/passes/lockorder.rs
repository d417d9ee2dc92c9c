//! Pass 3 — lock-order analysis.
//!
//! Extracts every lock acquisition site (`.lock()` / `.read()` /
//! `.write()` with no arguments, plus annotated wrapper methods) per
//! function in the configured crates, tracks which guards are still
//! held when another lock is taken (intra-procedurally: let-bound
//! guards live to the end of their block or an explicit `drop`;
//! un-bound temporaries live to the end of their statement, or through
//! the following block for `if`/`while`/`match`/`for` condition
//! temporaries), and checks the resulting nested-acquisition graph
//! against the declared partial order.
//!
//! Annotations (in `//` comments anywhere in the configured crates):
//!
//! * `lock-order: a < b < c` — declares `a` may be held while taking
//!   `b`, and `b` while taking `c`. Ids are `<file-stem>.<field>`
//!   (e.g. `store.commit_lock`), optionally `<crate>/`-qualified for
//!   cross-crate declarations; unqualified ids bind to the crate the
//!   annotation lives in.
//! * `lock-wrapper: method = <lock-id>` — `self.method()` in that
//!   crate acquires `<lock-id>` (for accessors like pbc-tier's
//!   `TierInner::commit_guard`).
//!
//! Failures: a cycle anywhere in declared ∪ observed edges (potential
//! deadlock), an observed nesting that contradicts or is missing from
//! the declared order, nested re-acquisition of the same lock name,
//! and acquisitions whose lock cannot be named (fix with a
//! `lock-wrapper` annotation or suppress).

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Lint};
use crate::lexer::{TokKind, Token};
use crate::scan::SourceFile;

/// Collected state across every scanned file.
#[derive(Debug, Default)]
pub struct LockOrder {
    /// Declared `a < b` pairs with their annotation site.
    declared: Vec<(String, String, String, u32)>,
    /// Observed nested acquisitions: (held, acquired, file, line).
    observed: Vec<(String, String, String, u32)>,
    /// `(crate, method) -> lock id` wrapper table.
    wrappers: BTreeMap<(String, String), String>,
}

/// A guard currently held while scanning a function body.
#[derive(Debug)]
struct Guard {
    id: String,
    /// Variable name for let-bound guards (releasable via `drop`).
    var: Option<String>,
    /// Block depth the guard is tied to; released when it closes.
    depth: i32,
    /// Statement-scoped temporary: also released at the next `;` at
    /// its depth.
    stmt_temp: bool,
    /// Condition temporary awaiting its block (`if`/`match`/...):
    /// adopts the next opened block's depth.
    pending_block: bool,
}

/// What the current statement's prefix looked like.
#[derive(Debug, Clone, Default)]
struct StmtCtx {
    /// `let [mut] NAME =` binding target.
    binding: Option<String>,
    /// Statement starts with `if`/`while`/`match`/`for`/`else`.
    condition_like: bool,
}

impl LockOrder {
    /// Parse `lock-order:` / `lock-wrapper:` annotations from a file's
    /// comments. Runs for every file of the configured crates.
    pub fn collect_annotations(&mut self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        for comment in &file.comments {
            let text = comment.text.trim();
            if let Some(spec) = text.strip_prefix("lock-order:") {
                let ids: Vec<String> = spec.split('<').map(|s| s.trim().to_string()).collect();
                if ids.len() < 2 || ids.iter().any(|i| i.is_empty() || i.contains(' ')) {
                    diags.push(Diagnostic::new(
                        Lint::Suppression,
                        &file.rel,
                        comment.line,
                        "malformed lock-order annotation: expected `lock-order: a < b [< c]`",
                    ));
                    continue;
                }
                for pair in ids.windows(2) {
                    self.declared.push((
                        qualify(&pair[0], &file.crate_name),
                        qualify(&pair[1], &file.crate_name),
                        file.rel.clone(),
                        comment.line,
                    ));
                }
            } else if let Some(spec) = text.strip_prefix("lock-wrapper:") {
                let Some((method, id)) = spec.split_once('=') else {
                    diags.push(Diagnostic::new(
                        Lint::Suppression,
                        &file.rel,
                        comment.line,
                        "malformed lock-wrapper annotation: expected `lock-wrapper: method = <lock-id>`",
                    ));
                    continue;
                };
                self.wrappers.insert(
                    (file.crate_name.clone(), method.trim().to_string()),
                    qualify(id.trim(), &file.crate_name),
                );
            }
        }
    }

    /// Scan one file's functions for nested acquisitions.
    pub fn scan_file(&mut self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        let stem = file
            .path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("file")
            .to_string();
        let toks = &file.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                // Find the body's opening brace (or `;` for a bodyless
                // trait signature).
                let mut j = i + 2;
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    let end = self.scan_function(file, &stem, j, diags);
                    i = end;
                    continue;
                }
                i = j;
            }
            i += 1;
        }
    }

    /// Scan one function body starting at its `{`; returns the index
    /// just past the matching `}`.
    fn scan_function(
        &mut self,
        file: &SourceFile,
        stem: &str,
        open: usize,
        diags: &mut Vec<Diagnostic>,
    ) -> usize {
        let toks = &file.tokens;
        let mut depth = 0i32;
        let mut held: Vec<Guard> = Vec::new();
        let mut ctx_stack: Vec<StmtCtx> = vec![StmtCtx::default()];
        let mut stmt_start = true;
        let mut i = open;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                // Condition temporaries adopt this block: release them
                // when it closes.
                for g in held.iter_mut().filter(|g| g.pending_block) {
                    g.pending_block = false;
                    g.stmt_temp = false;
                    g.depth = depth;
                }
                ctx_stack.push(StmtCtx::default());
                stmt_start = true;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                held.retain(|g| g.depth < depth || g.pending_block);
                ctx_stack.pop();
                depth -= 1;
                stmt_start = true;
                if depth == 0 {
                    return i + 1;
                }
                i += 1;
                continue;
            }
            if t.is_punct(';') {
                held.retain(|g| !(g.stmt_temp && g.depth == depth && !g.pending_block));
                stmt_start = true;
                i += 1;
                continue;
            }
            if stmt_start && t.kind == TokKind::Ident {
                stmt_start = false;
                let ctx = self.statement_prefix(toks, i, &mut held);
                if let Some(slot) = ctx_stack.last_mut() {
                    *slot = ctx;
                }
            } else if stmt_start && !t.is_punct('#') {
                stmt_start = false;
                if let Some(slot) = ctx_stack.last_mut() {
                    *slot = StmtCtx::default();
                }
            }
            if let Some((id_or_err, line)) = self.acquisition_at(file, stem, i) {
                match id_or_err {
                    Ok(id) => {
                        let suppressed =
                            file.suppressed(Lint::LockOrder, line) || file.in_test_code(line);
                        for g in &held {
                            if g.id == id && !suppressed {
                                diags.push(Diagnostic::new(
                                    Lint::LockOrder,
                                    &file.rel,
                                    line,
                                    format!(
                                        "nested re-acquisition of `{id}` while a guard for it is already held (self-deadlock for exclusive locks)"
                                    ),
                                ));
                            } else if g.id != id && !suppressed {
                                self.observed.push((
                                    g.id.clone(),
                                    id.clone(),
                                    file.rel.clone(),
                                    line,
                                ));
                            }
                        }
                        let ctx = ctx_stack.last().cloned().unwrap_or_default();
                        held.push(Guard {
                            id,
                            var: ctx.binding.clone(),
                            depth,
                            stmt_temp: ctx.binding.is_none(),
                            pending_block: ctx.binding.is_none() && ctx.condition_like,
                        });
                    }
                    Err(method) => {
                        if !file.suppressed(Lint::LockOrder, line) && !file.in_test_code(line) {
                            diags.push(Diagnostic::new(
                                Lint::LockOrder,
                                &file.rel,
                                line,
                                format!(
                                    "cannot name the lock behind `.{method}()`; add `// lock-wrapper: {method} = <file>.<field>` or suppress with pbc-allow(lock-order)"
                                ),
                            ));
                        }
                    }
                }
                i += 3; // skip past `name ( )` / `name (`
                continue;
            }
            // `drop(var)` releases a let-bound guard early.
            if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
                && toks.get(i + 2).is_some_and(|a| a.kind == TokKind::Ident)
                && toks.get(i + 3).is_some_and(|a| a.is_punct(')'))
            {
                let var = &toks[i + 2].text;
                held.retain(|g| g.var.as_deref() != Some(var));
            }
            i += 1;
        }
        toks.len()
    }

    /// Inspect a statement's first tokens: `let [mut] NAME =` bindings,
    /// condition-like openers, and `NAME = ...` reassignments (which
    /// release the previous guard bound to NAME).
    fn statement_prefix(&self, toks: &[Token], i: usize, held: &mut Vec<Guard>) -> StmtCtx {
        let mut ctx = StmtCtx::default();
        let first = &toks[i].text;
        if matches!(first.as_str(), "if" | "while" | "match" | "for" | "else") {
            ctx.condition_like = true;
            return ctx;
        }
        if first == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                && toks
                    .get(j + 1)
                    .is_some_and(|t| t.is_punct('=') || t.is_punct(':'))
            {
                ctx.binding = Some(toks[j].text.clone());
            }
            return ctx;
        }
        // `NAME = ...` (not `==`): the old guard bound to NAME drops.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            held.retain(|g| g.var.as_deref() != Some(first.as_str()));
            ctx.binding = Some(first.clone());
        }
        ctx
    }

    /// If token `i` is a lock-acquiring method name in call position,
    /// the resolved lock id (or the method name when unnameable) and
    /// the line.
    #[allow(clippy::type_complexity)]
    fn acquisition_at(
        &self,
        file: &SourceFile,
        stem: &str,
        i: usize,
    ) -> Option<(Result<String, String>, u32)> {
        let toks = &file.tokens;
        let t = &toks[i];
        if t.kind != TokKind::Ident || i == 0 || !toks[i - 1].is_punct('.') {
            return None;
        }
        // Zero-argument call: `.name()`.
        if !(toks.get(i + 1).is_some_and(|a| a.is_punct('('))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(')')))
        {
            return None;
        }
        let method = t.text.as_str();
        let is_primitive = matches!(method, "lock" | "read" | "write");
        let wrapper = self
            .wrappers
            .get(&(file.crate_name.clone(), method.to_string()));
        if !is_primitive && wrapper.is_none() {
            return None;
        }
        // Receiver: the identifier before the `.`.
        let recv = toks.get(i.wrapping_sub(2));
        match recv {
            Some(r) if r.kind == TokKind::Ident && r.text != "self" => Some((
                Ok(format!("{}/{}.{}", file.crate_name, stem, r.text)),
                t.line,
            )),
            _ => match wrapper {
                Some(id) => Some((Ok(id.clone()), t.line)),
                None => Some((Err(method.to_string()), t.line)),
            },
        }
    }

    /// Final checks: cycles across declared ∪ observed, observed
    /// nestings missing from (or contradicting) the declared order.
    pub fn finish(&self, diags: &mut Vec<Diagnostic>) {
        // Declared reachability (transitive closure).
        let mut nodes: BTreeSet<String> = BTreeSet::new();
        for (a, b, _, _) in &self.declared {
            nodes.insert(a.clone());
            nodes.insert(b.clone());
        }
        for (a, b, _, _) in &self.observed {
            nodes.insert(a.clone());
            nodes.insert(b.clone());
        }
        let declared_edges: BTreeSet<(String, String)> = self
            .declared
            .iter()
            .map(|(a, b, _, _)| (a.clone(), b.clone()))
            .collect();
        let reach = transitive_closure(&nodes, &declared_edges);

        for (held, acquired, file, line) in &self.observed {
            if reach.contains(&(held.clone(), acquired.clone())) {
                continue;
            }
            if reach.contains(&(acquired.clone(), held.clone())) {
                diags.push(Diagnostic::new(
                    Lint::LockOrder,
                    file,
                    *line,
                    format!(
                        "lock `{acquired}` taken while `{held}` is held, but the declared order requires `{acquired}` before `{held}` (deadlock risk)"
                    ),
                ));
            } else {
                diags.push(Diagnostic::new(
                    Lint::LockOrder,
                    file,
                    *line,
                    format!(
                        "undeclared lock nesting: `{acquired}` taken while `{held}` is held; declare it with `// lock-order: {held} < {acquired}` near the lock fields"
                    ),
                ));
            }
        }

        // Any cycle in the union graph is a potential deadlock even if
        // each edge looked locally fine.
        let mut union_edges = declared_edges;
        for (a, b, _, _) in &self.observed {
            union_edges.insert((a.clone(), b.clone()));
        }
        if let Some(cycle) = find_cycle(&nodes, &union_edges) {
            let (file, line) = self
                .declared
                .iter()
                .find(|(a, b, _, _)| cycle_has_edge(&cycle, a, b))
                .map(|(_, _, f, l)| (f.clone(), *l))
                .or_else(|| {
                    self.observed
                        .iter()
                        .find(|(a, b, _, _)| cycle_has_edge(&cycle, a, b))
                        .map(|(_, _, f, l)| (f.clone(), *l))
                })
                .unwrap_or_else(|| ("analyze.toml".to_string(), 0));
            diags.push(Diagnostic::new(
                Lint::LockOrder,
                &file,
                line,
                format!(
                    "lock-order cycle (potential deadlock): {}",
                    cycle.join(" -> ")
                ),
            ));
        }
    }
}

/// `<crate>/<id>` if unqualified, unchanged otherwise.
fn qualify(id: &str, crate_name: &str) -> String {
    if id.contains('/') {
        id.to_string()
    } else {
        format!("{crate_name}/{id}")
    }
}

/// All (a, b) pairs where b is reachable from a via `edges`.
fn transitive_closure(
    nodes: &BTreeSet<String>,
    edges: &BTreeSet<(String, String)>,
) -> BTreeSet<(String, String)> {
    let idx: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(n, s)| (s, n)).collect();
    let n = nodes.len();
    let mut reach = vec![false; n * n];
    for (a, b) in edges {
        reach[idx[a] * n + idx[b]] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i * n + k] {
                for j in 0..n {
                    if reach[k * n + j] {
                        reach[i * n + j] = true;
                    }
                }
            }
        }
    }
    let names: Vec<&String> = nodes.iter().collect();
    let mut out = BTreeSet::new();
    for i in 0..n {
        for j in 0..n {
            if reach[i * n + j] {
                out.insert((names[i].clone(), names[j].clone()));
            }
        }
    }
    out
}

/// DFS cycle detection; returns one cycle as a node path
/// `[a, b, ..., a]` if the graph has any.
pub fn find_cycle(
    nodes: &BTreeSet<String>,
    edges: &BTreeSet<(String, String)>,
) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut color: BTreeMap<&str, u8> = nodes.iter().map(|n| (n.as_str(), 0u8)).collect();
    let mut stack: Vec<&str> = Vec::new();

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        color.insert(node, 1);
        stack.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            match color.get(next).copied().unwrap_or(0) {
                1 => {
                    let start = stack.iter().position(|&s| s == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[start..].iter().map(|s| s.to_string()).collect();
                    cycle.push(next.to_string());
                    return Some(cycle);
                }
                0 => {
                    if let Some(cycle) = dfs(next, adj, color, stack) {
                        return Some(cycle);
                    }
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(node, 2);
        None
    }

    let names: Vec<&str> = nodes.iter().map(|s| s.as_str()).collect();
    for node in names {
        if color.get(node).copied().unwrap_or(0) == 0 {
            if let Some(cycle) = dfs(node, &adj, &mut color, &mut stack) {
                return Some(cycle);
            }
        }
    }
    None
}

/// Whether `a -> b` is one of the cycle's edges.
fn cycle_has_edge(cycle: &[String], a: &str, b: &str) -> bool {
    cycle.windows(2).any(|w| w[0] == a && w[1] == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::PathBuf;

    fn run(crate_name: &str, stem: &str, src: &str) -> (LockOrder, Vec<Diagnostic>) {
        let file = SourceFile::new(
            PathBuf::from(format!("/w/crates/{crate_name}/src/{stem}.rs")),
            format!("crates/{crate_name}/src/{stem}.rs"),
            crate_name.into(),
            src,
        );
        let mut lo = LockOrder::default();
        let mut diags = Vec::new();
        lo.collect_annotations(&file, &mut diags);
        lo.scan_file(&file, &mut diags);
        (lo, diags)
    }

    #[test]
    fn nested_letbound_guards_produce_an_edge() {
        let (lo, diags) = run(
            "t",
            "store",
            "// lock-order: store.a < store.b\nfn f(&self) {\n    let _g = self.a.lock();\n    let mut b = self.b.write();\n    b.push(1);\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(lo.observed.len(), 1);
        assert_eq!(lo.observed[0].0, "t/store.a");
        assert_eq!(lo.observed[0].1, "t/store.b");
        let mut out = Vec::new();
        lo.finish(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn undeclared_nesting_is_reported() {
        let (lo, _) = run(
            "t",
            "store",
            "fn f(&self) {\n    let _g = self.a.lock();\n    let _h = self.b.lock();\n}\n",
        );
        let mut out = Vec::new();
        lo.finish(&mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("undeclared lock nesting"));
    }

    #[test]
    fn contradicting_declared_order_is_reported() {
        let (lo, _) = run(
            "t",
            "store",
            "// lock-order: store.b < store.a\nfn f(&self) {\n    let _g = self.a.lock();\n    let _h = self.b.lock();\n}\n",
        );
        let mut out = Vec::new();
        lo.finish(&mut out);
        assert!(
            out.iter()
                .any(|d| d.message.contains("declared order requires")),
            "{out:?}"
        );
    }

    #[test]
    fn cycle_detection_finds_three_party_cycles() {
        let nodes: BTreeSet<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let edges: BTreeSet<(String, String)> = [("a", "b"), ("b", "c"), ("c", "a")]
            .iter()
            .map(|(x, y)| (x.to_string(), y.to_string()))
            .collect();
        let cycle = find_cycle(&nodes, &edges).expect("cycle exists");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 4, "{cycle:?}");

        let acyclic: BTreeSet<(String, String)> = [("a", "b"), ("b", "c"), ("a", "c")]
            .iter()
            .map(|(x, y)| (x.to_string(), y.to_string()))
            .collect();
        assert!(find_cycle(&nodes, &acyclic).is_none());
    }

    #[test]
    fn three_party_declared_observed_cycle_is_reported() {
        let (lo, _) = run(
            "t",
            "store",
            "// lock-order: store.a < store.b\n// lock-order: store.b < store.c\nfn f(&self) {\n    let _g = self.c.lock();\n    let _h = self.a.lock();\n}\n",
        );
        let mut out = Vec::new();
        lo.finish(&mut out);
        assert!(out.iter().any(|d| d.message.contains("cycle")), "{out:?}");
    }

    #[test]
    fn block_scoping_releases_guards() {
        let (lo, _) = run(
            "t",
            "store",
            "fn f(&self) {\n    {\n        let _g = self.a.lock();\n    }\n    let _h = self.b.lock();\n}\n",
        );
        assert!(lo.observed.is_empty(), "{:?}", lo.observed);
    }

    #[test]
    fn drop_and_reassignment_release_guards() {
        let (lo, _) = run(
            "t",
            "store",
            "fn f(&self) {\n    let mut g = self.a.lock();\n    drop(g);\n    let _h = self.b.lock();\n}\nfn g(&self) {\n    let mut s = self.a.lock();\n    s = self.a.lock();\n    s.touch();\n}\n",
        );
        assert!(lo.observed.is_empty(), "{:?}", lo.observed);
        let mut out = Vec::new();
        lo.finish(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn condition_temporaries_are_held_through_the_block() {
        let (lo, _) = run(
            "t",
            "store",
            "// lock-order: store.staging < store.cold\nfn f(&self) {\n    if let Some(x) = self.staging.read().get(k) {\n        let _c = self.cold.read();\n    }\n    let _after = self.cold.read();\n}\n",
        );
        assert_eq!(lo.observed.len(), 1, "{:?}", lo.observed);
        assert_eq!(lo.observed[0].0, "t/store.staging");
    }

    #[test]
    fn wrapper_annotation_names_self_lock() {
        let (lo, diags) = run(
            "t",
            "shard",
            "// lock-wrapper: lock = shard.state\nfn f(&self) {\n    let mut state = self.lock();\n    state.push(1);\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert!(lo.observed.is_empty());
    }

    #[test]
    fn unnameable_receiver_is_reported() {
        let (_, diags) = run(
            "t",
            "store",
            "fn f(&self) {\n    let _g = self.helper().lock();\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("cannot name the lock"));
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        let (lo, diags) = run(
            "t",
            "io",
            "fn f(file: &mut File, buf: &mut [u8]) {\n    file.read(buf).ok();\n    file.write(buf).ok();\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert!(lo.observed.is_empty());
    }
}
