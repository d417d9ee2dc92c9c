//! Pass 2 — determinism lints.
//!
//! In modules declared deterministic (`analyze.toml [determinism]
//! modules`) the output must be a pure function of the input bytes —
//! the PBC standing constraint is that pattern extraction, codec
//! training, planning, and segment writing are byte-identical across
//! threads and process runs. Flags, with `BTreeMap`/
//! explicit tie-breaks as the prescribed fix:
//!
//! * `HashMap` / `HashSet` — randomized iteration order. Flagged on
//!   every use (not just iteration — a lexical pass cannot prove a map
//!   never leaks its order), suppressible where the use is
//!   order-independent by construction.
//! * `SystemTime::now` / `Instant::now` — wall/monotonic-clock input.
//! * `thread::current` (thread-id-dependent ordering).
//! * `.as_ptr() as`-style address casts — allocator-address-dependent
//!   ordering.

use crate::diag::{Diagnostic, Lint};
use crate::scan::SourceFile;

/// Scan one deterministic module.
pub fn check(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        // `use` statements are reported only via their usage sites: a
        // suppressed usage site should not re-fire on its import line.
        if t.is_ident("use") {
            in_use = true;
        } else if t.is_punct(';') {
            in_use = false;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        let flag = |line: u32, what: &str, why: &str, diags: &mut Vec<Diagnostic>| {
            if !file.suppressed(Lint::Determinism, line) {
                diags.push(Diagnostic::new(
                    Lint::Determinism,
                    &file.rel,
                    line,
                    format!("{what} in a deterministic module: {why}"),
                ));
            }
        };
        if !in_use && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            flag(
                t.line,
                &format!("`{}`", t.text),
                "iteration order is randomized per process; use BTreeMap/BTreeSet or sort with an explicit tie-break",
                diags,
            );
        }
        if (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
        {
            flag(
                t.line,
                &format!("`{}::now`", t.text),
                "clock reads make output depend on timing",
                diags,
            );
        }
        if t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("current"))
        {
            flag(
                t.line,
                "`thread::current`",
                "thread identity must not influence output (byte-determinism across threads and runs)",
                diags,
            );
        }
        if t.is_ident("as_ptr")
            && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(')'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("as"))
        {
            flag(
                t.line,
                "address cast (`as_ptr() as ...`)",
                "allocator addresses vary per run; order by value, not address",
                diags,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::collect_suppressions;
    use std::path::PathBuf;

    fn check_src(src: &str) -> Vec<Diagnostic> {
        let mut f = SourceFile::new(
            PathBuf::from("x.rs"),
            "crates/x/src/train.rs".into(),
            "x".into(),
            src,
        );
        let mut diags = Vec::new();
        collect_suppressions(&mut f, &mut diags);
        check(&f, &mut diags);
        diags
    }

    #[test]
    fn hash_collections_and_clocks_are_flagged() {
        let diags = check_src(
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); let t = Instant::now(); }\n",
        );
        // Two HashMap usage sites + the clock; the `use` line is free.
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.line == 2));
    }

    #[test]
    fn suppression_with_reason_is_honored() {
        let diags = check_src(
            "fn f() {\n    // pbc-allow(determinism): counts only, order never observed\n    let m = HashMap::new();\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let diags =
            check_src("#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
