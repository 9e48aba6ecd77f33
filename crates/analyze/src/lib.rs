//! `gfcl-analyze` — the workspace conformance linter.
//!
//! A dependency-free, line-based static scanner (the container is offline;
//! no syn, no regex) enforcing the house rules that `rustfmt` and `clippy`
//! do not:
//!
//! | rule | scope | what it flags |
//! |------|-------|---------------|
//! | `hot-panic` | executor/buffer-pool hot paths | `unwrap()`, `expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`, non-debug `assert!` |
//! | `read-path-panic` | post-open page-read path | panicking macros, rejected even under `// lint: allow` — the policy is error propagation into the owning query |
//! | `hot-index` | executor/buffer-pool hot paths | indexing/slicing whose bracket expression contains arithmetic |
//! | `unsafe-no-safety` | every source file | `unsafe` without a `// SAFETY:` comment on or above the line |
//! | `as-cast` | codec/format files | narrowing `as` casts where `try_from` exists |
//! | `pub-undocumented` | the facade `src/lib.rs` | top-level `pub` items without a doc comment |
//! | `env-mutation` | every source *and test* file | `set_var(` / `remove_var(`: tests in one binary share the process environment |
//! | `ambient-env` | shipped library code under `src/` and `crates/*/src/`, except the config module, `crates/bench/` and binaries | `env::var(` / `env::var_os(` / `env::vars(`: configuration is parsed once, by `gfcl_core::Config` |
//! | `scalar-storage-read` | the engines' operators, the baselines, the store and the delta store | `get_i64(` / `iter_list(`: the two cursor-less reads storage keeps for the benchmark's probes; every reader walks storage through its own `ReadCursors` |
//!
//! A finding is suppressed by a `// lint: allow(reason)` comment on the
//! same line or the line above — the annotation *is* the justification and
//! is what turns "panic in a hot path" into "documented invariant".
//!
//! Two structural conventions keep the scanner honest without a parser:
//! test modules are file tails behind `#[cfg(test)]` (only `env-mutation`
//! looks past that line, and only it looks at integration-test files), and
//! line comments/doc comments are skipped entirely.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule tag, e.g. `hot-panic`.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Which rule groups apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Executor / driver / buffer-pool hot paths: a panic here takes down a
    /// worker mid-query; a mis-indexing is a morsel-boundary bug.
    pub hot_path: bool,
    /// Byte-level codec and on-disk format code: a silent `as` truncation
    /// here corrupts persisted data.
    pub codec: bool,
    /// The facade crate root: its public surface is the documented API.
    pub facade: bool,
    /// The post-open page-read path: since the fault-domain work its
    /// policy is error propagation into the owning query, so panicking
    /// macros are rejected *unconditionally* — `// lint: allow` cannot
    /// reintroduce panic-by-policy here (`unwrap`/`expect` stay
    /// suppressible for poisoned-lock handling).
    pub read_path: bool,
    /// An integration-test file (`tests/`, `crates/*/tests/`): test code
    /// from its first line, so only `env-mutation` applies.
    pub test_file: bool,
    /// Shipped library code under `src/` and `crates/*/src/`, where an
    /// environment read is ambient configuration. The one parser
    /// (`crates/core/src/config.rs`) and the process edges that call it —
    /// the bench crate and binaries — are not library code.
    pub library: bool,
    /// A reader of columnar storage: the operators, the baseline engines,
    /// the store and the delta store. Each owns the page cursors it reads
    /// through, so a cursor-less read here is a pin per value.
    pub storage_reader: bool,
}

/// Files on the query/page hot path (see `ARCHITECTURE.md`); an entry
/// ending in `/` covers every file under that directory.
const HOT_PATHS: &[&str] = &[
    // The operators, one per file, their compilation and the sinks.
    "crates/core/src/exec/",
    "crates/core/src/driver.rs",
    // The group table, the row order every sink finishes with and the
    // top-k comparison: every kept row and every group passes through it.
    "crates/core/src/agg.rs",
    "crates/columnar/src/paged_array.rs",
    "crates/storage/src/buffer_pool.rs",
    // The frontend's lexer and parser face arbitrary user text: a panic
    // here is a denial-of-service on any REPL/service embedding; errors
    // must flow out as Diagnostics (the parser proptests check this
    // dynamically, the lint keeps panicking calls out statically).
    "crates/frontend/src/lexer.rs",
    "crates/frontend/src/parser.rs",
    // Every text query is bound and ordered before it runs, and the order
    // search applies and undoes extends on one state in place: a panic
    // or an off-by-one here fails every query, not one.
    "crates/frontend/src/binder.rs",
    "crates/core/src/optimize.rs",
    // A repeated text query is keyed and looked up here instead of being
    // parsed: the key faces arbitrary user text, and the cache sits on
    // every lookup of every engine sharing it.
    "crates/frontend/src/template.rs",
    "crates/core/src/cache.rs",
    // The write path: every Scan/Extend over a mutated graph reads the
    // delta overlay per row, and the WAL sits on every commit. A panic in
    // either corrupts no data (the WAL is write-ahead) but kills the
    // writer with the global write lock held — errors must flow out as
    // Error::Storage so recovery stays an open() away.
    "crates/storage/src/delta.rs",
    "crates/storage/src/wal.rs",
    // The tries the delta keeps its state in: every overlay read and every
    // commit walks them, and a path copy gone wrong is a pinned snapshot
    // that changes under its reader.
    "crates/storage/src/persistent.rs",
    // The governor sits on every morsel boundary (token check, memory
    // accounting): a panic here kills the very machinery that exists to
    // turn failures into per-query errors.
    "crates/common/src/govern.rs",
    "crates/core/src/govern.rs",
];

/// The post-open page-read path, where the policy since the fault-domain
/// work is *error propagation*: a failed or corrupt page read becomes the
/// owning query's `Error::Storage`, never a process panic. Panicking
/// macros here are rejected even with a `// lint: allow` annotation.
const READ_PATHS: &[&str] = &["crates/storage/src/buffer_pool.rs"];

/// Readers of columnar storage (an entry ending in `/` covers its whole
/// directory): they read through reader-owned cursors only.
const STORAGE_READERS: &[&str] = &[
    "crates/core/src/exec/",
    "crates/baselines/src/",
    "crates/storage/src/store.rs",
    "crates/storage/src/delta.rs",
];

/// Codec / on-disk-format files where checked conversions exist.
const CODEC_PATHS: &[&str] = &[
    "crates/common/src/codec.rs",
    "crates/storage/src/format.rs",
    "crates/columnar/src/paged_array.rs",
];

/// Classify a workspace-relative path into its applicable rule groups.
pub fn classify(rel_path: &str) -> FileClass {
    let listed = |paths: &[&str]| {
        paths.iter().any(|&p| rel_path == p || (p.ends_with('/') && rel_path.starts_with(p)))
    };
    FileClass {
        hot_path: listed(HOT_PATHS),
        codec: CODEC_PATHS.contains(&rel_path),
        facade: rel_path == "src/lib.rs",
        read_path: READ_PATHS.contains(&rel_path),
        test_file: rel_path.starts_with("tests/") || rel_path.contains("/tests/"),
        library: (rel_path.starts_with("src/") || rel_path.starts_with("crates/"))
            && rel_path.contains("src/")
            && !rel_path.contains("src/bin/")
            && !rel_path.starts_with("crates/bench/")
            && rel_path != "crates/core/src/config.rs",
        storage_reader: listed(STORAGE_READERS),
    }
}

/// Narrowing `as` cast targets: converting into these can silently drop
/// bits (or sign), and `TryFrom` exists for every one of them. Widening
/// targets (`u64`, `i64` from narrower, `f64`) are not flagged.
const NARROWING_TARGETS: &[&str] =
    &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize", "f32"];

/// Replace the contents of string literals with spaces (quotes kept), so
/// rule patterns never match inside message text. Handles escapes; raw
/// strings are treated as plain (good enough for this workspace).
fn blank_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    out.push(' ');
                    if chars.next().is_some() {
                        out.push(' ');
                    }
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => out.push(' '),
            }
        } else {
            if c == '"' {
                in_str = true;
            }
            out.push(c);
        }
    }
    out
}

/// Does `line` contain `pat` at a position not preceded by `not_after`?
/// Used to match `assert!(` but not `debug_assert!(`.
fn contains_not_after(line: &str, pat: &str, not_after: &str) -> bool {
    let mut from = 0;
    while let Some(i) = line[from..].find(pat) {
        let at = from + i;
        if !line[..at].ends_with(not_after) {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Does any bracketed `[...]` expression on this line contain a spaced
/// binary arithmetic operator? `v[i]`, `v[*node]`, `v[a..b]` pass;
/// `v[i * W..]`, `page[byte % N..]` are flagged — offset arithmetic at an
/// indexing site is exactly where off-by-one and overflow bugs live.
fn has_arithmetic_index(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut seg_start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'[' => {
                if depth == 0 {
                    seg_start = i + 1;
                }
                depth += 1;
            }
            b']' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    let seg = &line[seg_start..i];
                    if [" + ", " - ", " * ", " / ", " % "].iter().any(|op| seg.contains(op)) {
                        return true;
                    }
                }
            }
            _ => {}
        }
    }
    false
}

/// Is this a narrowing `as` cast line? Returns the offending target type.
fn narrowing_cast(line: &str) -> Option<&'static str> {
    let mut from = 0;
    while let Some(i) = line[from..].find(" as ") {
        let after = &line[from + i + 4..];
        let token: String =
            after.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if let Some(t) = NARROWING_TARGETS.iter().find(|t| **t == token) {
            return Some(t);
        }
        from += i + 4;
    }
    None
}

/// Scan one file's source under `class`, returning every unsuppressed
/// finding. `rel_path` is used only for labeling.
pub fn scan_source(rel_path: &str, source: &str, class: FileClass) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut prev_lines: Vec<&str> = Vec::new();
    let mut in_tests = class.test_file;
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let trimmed = raw.trim_start();
        // House style: the test module is the file's tail. Nothing after
        // it is shipped code, so only the test-facing rule keeps looking.
        in_tests |= trimmed.starts_with("#[cfg(test)]");
        let is_comment = trimmed.starts_with("//");
        // Suppressed if the annotation is inline, or anywhere in the
        // contiguous comment block directly above (justifications are
        // encouraged to wrap onto continuation lines).
        let allowed = raw.contains("// lint: allow(") || {
            let mut found = false;
            for l in prev_lines.iter().rev().map(|l| l.trim_start()).skip_while(|l| l.is_empty()) {
                if !l.starts_with("//") {
                    break;
                }
                if l.starts_with("// lint: allow(") {
                    found = true;
                    break;
                }
            }
            found
        };
        let line = blank_strings(raw);
        if !is_comment && !allowed && (line.contains("set_var(") || line.contains("remove_var(")) {
            findings.push(Finding {
                file: rel_path.to_owned(),
                line: lineno,
                rule: "env-mutation",
                msg: "mutating the process environment: tests in one binary run \
                      concurrently and each sees the others' writes — drive `Config::parse` \
                      with an explicit lookup instead"
                    .into(),
            });
        }
        if in_tests {
            prev_lines.push(raw);
            continue;
        }
        if !is_comment && class.read_path {
            let panicking = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("]
                .iter()
                .any(|p| line.contains(p))
                || ["assert!(", "assert_eq!(", "assert_ne!("]
                    .iter()
                    .any(|p| contains_not_after(&line, p, "debug_"));
            if panicking {
                // Deliberately bypasses `emit` (and thus the allow
                // annotation): panic-by-policy was removed from this path
                // and must not creep back behind a justification comment.
                findings.push(Finding {
                    file: rel_path.to_owned(),
                    line: lineno,
                    rule: "read-path-panic",
                    msg: "panicking macro on the post-open page-read path: this path's \
                          policy is error propagation (retry, then Error::Storage into \
                          the owning query) — `// lint: allow` does not apply here"
                        .into(),
                });
            }
        }
        let mut emit = |rule: &'static str, msg: String| {
            if !allowed {
                findings.push(Finding { file: rel_path.to_owned(), line: lineno, rule, msg });
            }
        };

        if !is_comment {
            if class.hot_path {
                for pat in [
                    ".unwrap()",
                    ".expect(",
                    "panic!(",
                    "unreachable!(",
                    "todo!(",
                    "unimplemented!(",
                ] {
                    if line.contains(pat) {
                        emit(
                            "hot-panic",
                            format!(
                                "`{}` on a query/page hot path: convert to Error::Plan/\
                                 Error::Storage or justify with `// lint: allow(reason)`",
                                pat.trim_start_matches('.')
                            ),
                        );
                    }
                }
                if ["assert!(", "assert_eq!(", "assert_ne!("]
                    .iter()
                    .any(|p| contains_not_after(&line, p, "debug_"))
                {
                    emit(
                        "hot-panic",
                        "bare assert on a hot path: use a named invariant helper with a \
                         diagnosable message, or `debug_assert!`"
                            .into(),
                    );
                }
                if has_arithmetic_index(&line) {
                    emit(
                        "hot-index",
                        "arithmetic inside an indexing/slicing expression on a hot path: \
                         hoist into a named bound or justify with `// lint: allow(reason)`"
                            .into(),
                    );
                }
            }
            if class.library
                && ["env::var(", "env::var_os(", "env::vars("].iter().any(|p| line.contains(p))
            {
                emit(
                    "ambient-env",
                    "reading the process environment in library code: add the variable to \
                     `gfcl_core::Config` and take the parsed value as an argument"
                        .into(),
                );
            }
            if class.storage_reader {
                if let Some(pat) = ["get_i64(", "iter_list("].iter().find(|p| line.contains(*p)) {
                    emit(
                        "scalar-storage-read",
                        format!(
                            "cursor-less `{pat}` in a storage reader: read through the \
                             reader's own `ReadCursors` (`get_i64_with`, `nbr_at_with`, \
                             `BaselineRead::for_each_adj_entry`) — the scalar read pins a \
                             page per value and exists only for the benchmark's probes"
                        ),
                    );
                }
            }
            if class.codec {
                if let Some(t) = narrowing_cast(&line) {
                    emit(
                        "as-cast",
                        format!(
                            "narrowing `as {t}` in codec/format code: use `{t}::try_from` \
                             (corruption must surface as Error::Storage, not truncation)"
                        ),
                    );
                }
            }
            // `unsafe` anywhere requires a SAFETY comment in the three
            // preceding lines (or inline). The workspace currently has
            // zero unsafe blocks; this keeps it justified if one appears.
            if (line.contains("unsafe ") || line.contains("unsafe{"))
                && !raw.contains("// SAFETY:")
                && !prev_lines.iter().rev().take(3).any(|l| l.contains("// SAFETY:"))
            {
                emit(
                    "unsafe-no-safety",
                    "`unsafe` without a `// SAFETY:` comment explaining the proof obligation"
                        .into(),
                );
            }
        }
        if class.facade && !raw.starts_with(' ') && trimmed.starts_with("pub ") {
            let documented = prev_lines
                .iter()
                .rev()
                .map(|l| l.trim_start())
                .find(|l| !l.starts_with("#[") && !l.starts_with("#!["))
                .is_some_and(|l| l.starts_with("///") || l.starts_with("//!"));
            if !documented {
                emit(
                    "pub-undocumented",
                    "public facade item without a doc comment: the facade is the documented \
                     API surface"
                        .into(),
                );
            }
        }
        prev_lines.push(raw);
    }
    findings
}

/// Recursively collect `.rs` files under `dir` (sorted for determinism).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<std::io::Result<Vec<_>>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scan the whole workspace rooted at `root`: every crate under `crates/`
/// plus the facade `src/`, and their integration tests (for
/// `env-mutation` only). Vendored stand-ins and build output are out of
/// scope. Returns all findings, sorted by file then line.
pub fn scan_workspace(root: &Path) -> Result<(usize, Vec<Finding>), String> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut roots: Vec<PathBuf> = vec![root.join("src"), root.join("tests")];
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates)
        .map_err(|e| format!("read {}: {e}", crates.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    roots.extend(crate_dirs.into_iter().flat_map(|d| [d.join("src"), d.join("tests")]));
    for r in roots {
        if r.is_dir() {
            rs_files(&r, &mut files).map_err(|e| format!("walk {}: {e}", r.display()))?;
        }
    }
    let mut findings = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes the workspace", f.display()))?
            .to_string_lossy()
            .into_owned();
        let source =
            std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        findings.extend(scan_source(&rel, &source, classify(&rel)));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((files.len(), findings))
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> FileClass {
        FileClass { hot_path: true, ..FileClass::default() }
    }

    fn rules(src: &str, class: FileClass) -> Vec<&'static str> {
        scan_source("t.rs", src, class).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hot_panic_flags_each_macro_and_method() {
        for src in [
            "let x = v.unwrap();",
            "let x = v.expect(\"msg\");",
            "panic!(\"boom\");",
            "unreachable!(\"no\");",
            "assert!(a > b);",
            "assert_eq!(a, b);",
        ] {
            assert_eq!(rules(src, hot()), vec!["hot-panic"], "{src}");
        }
    }

    #[test]
    fn debug_asserts_and_cold_files_pass() {
        assert!(rules("debug_assert!(a > b);", hot()).is_empty());
        assert!(rules("debug_assert_eq!(a, b);", hot()).is_empty());
        assert!(rules("let x = v.unwrap();", FileClass::default()).is_empty());
    }

    #[test]
    fn allow_annotations_suppress_same_line_and_line_above() {
        assert!(rules("v.unwrap() // lint: allow(len checked above)", hot()).is_empty());
        assert!(
            rules("// lint: allow(poisoned lock is fatal)\nv.lock().unwrap();", hot()).is_empty()
        );
        // A blank line between annotation and site still counts; unrelated
        // code in between does not.
        assert!(rules("// lint: allow(x)\n\nv.unwrap();", hot()).is_empty());
        assert_eq!(rules("// lint: allow(x)\nlet a = 1;\nv.unwrap();", hot()), vec!["hot-panic"]);
        // A justification wrapping onto continuation comment lines covers
        // the site below the whole block.
        assert!(
            rules("// lint: allow(reason that\n// wraps two lines)\nv.unwrap();", hot()).is_empty()
        );
    }

    #[test]
    fn test_module_tail_and_comments_are_skipped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { v.unwrap(); }\n}\n";
        assert!(rules(src, hot()).is_empty());
        assert!(rules("// calls v.unwrap() eventually", hot()).is_empty());
        assert!(rules("/// panics: via panic!( on bad input", hot()).is_empty());
    }

    #[test]
    fn string_literals_do_not_trip_rules() {
        assert!(rules(r#"let m = "call panic!( here";"#, hot()).is_empty());
        assert!(rules(
            r#"let m = "cast as u32 stays";"#,
            FileClass { codec: true, ..FileClass::default() }
        )
        .is_empty());
    }

    #[test]
    fn hot_index_flags_arithmetic_only() {
        assert_eq!(rules("let x = page[byte % PAGE_SIZE..];", hot()), vec!["hot-index"]);
        assert_eq!(rules("let x = raw[i * W..j];", hot()), vec!["hot-index"]);
        assert!(rules("let x = v[i];", hot()).is_empty());
        assert!(rules("let x = v[*node];", hot()).is_empty());
        assert!(rules("let x = v[a..b];", hot()).is_empty());
    }

    #[test]
    fn as_cast_flags_narrowing_not_widening() {
        let codec = FileClass { codec: true, ..FileClass::default() };
        assert_eq!(rules("let n = len as usize;", codec), vec!["as-cast"]);
        assert_eq!(rules("h.u32(PAGE_SIZE as u32);", codec), vec!["as-cast"]);
        assert!(rules("let n = len as u64;", codec).is_empty());
        assert!(rules("let f = x as f64;", codec).is_empty());
        assert!(rules("let n = len as usize;", FileClass::default()).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        assert_eq!(rules("unsafe { ptr.read() }", FileClass::default()), vec!["unsafe-no-safety"]);
        assert!(rules(
            "// SAFETY: ptr is valid for reads\nunsafe { ptr.read() }",
            FileClass::default()
        )
        .is_empty());
        assert!(rules("unsafe { ptr.read() } // SAFETY: valid", FileClass::default()).is_empty());
    }

    #[test]
    fn facade_pub_items_need_docs() {
        let facade = FileClass { facade: true, ..FileClass::default() };
        assert_eq!(rules("pub use gfcl_core::Engine;", facade), vec!["pub-undocumented"]);
        assert!(rules("/// The engine trait.\npub use gfcl_core::Engine;", facade).is_empty());
        assert!(rules("/// Doc.\n#[derive(Debug)]\npub struct X;", facade).is_empty());
        // Indented (nested) pub items inherit the module's doc.
        assert!(rules("    pub use gfcl_columnar::*;", facade).is_empty());
    }

    #[test]
    fn read_path_rejects_panics_even_with_allow() {
        let rp = FileClass { read_path: true, ..FileClass::default() };
        for src in [
            "panic!(\"page {page_no} unreadable\");",
            "unreachable!();",
            "assert!(checksum == expected);",
            "assert_eq!(a, b);",
            // The allow escape hatch must NOT suppress the rule.
            "panic!(\"boom\") // lint: allow(post-open policy)",
            "// lint: allow(justified?)\nunreachable!();",
        ] {
            assert!(
                rules(src, rp).contains(&"read-path-panic"),
                "{src:?} must be rejected on the read path"
            );
        }
        // unwrap/expect stay suppressible (poisoned-lock handling) and are
        // not read-path findings; debug_assert is always fine.
        assert!(rules("// lint: allow(poisoned lock)\nm.lock().unwrap();", rp).is_empty());
        assert!(rules("debug_assert!(a < b);", rp).is_empty());
    }

    #[test]
    fn env_mutation_is_flagged_in_shipped_and_test_code() {
        let test_file = classify("crates/core/tests/config.rs");
        assert!(test_file.test_file && classify("tests/engine_smoke.rs").test_file);
        assert!(!classify("crates/core/src/driver.rs").test_file);
        for src in ["std::env::set_var(\"GFCL_THREADS\", \"4\");", "env::remove_var(name);"] {
            assert_eq!(rules(src, FileClass::default()), vec!["env-mutation"], "{src}");
            assert_eq!(rules(src, test_file), vec!["env-mutation"], "{src}");
            // The rule follows shipped files into their test-module tail...
            let tail = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
            assert_eq!(rules(&tail, hot()), vec!["env-mutation"], "{src}");
        }
        // ...where, as in test files, it is the only rule that applies.
        assert!(rules("let x = v[i + 1].unwrap();", FileClass { hot_path: true, ..test_file })
            .is_empty());
        // Reading the environment, and naming the calls in text, is fine.
        assert!(rules("let v = std::env::var(\"GFCL_THREADS\");", test_file).is_empty());
        assert!(rules("// never call set_var( here", test_file).is_empty());
        assert!(rules("let m = \"set_var(\";", test_file).is_empty());
    }

    #[test]
    fn ambient_env_is_flagged_in_library_code_only() {
        let driver = classify("crates/core/src/driver.rs");
        assert!(driver.library && classify("src/lib.rs").library);
        for src in [
            "let t = std::env::var(\"GFCL_THREADS\").ok();",
            "if env::var_os(name).is_some() {}",
            "for (k, v) in std::env::vars() {}",
        ] {
            assert_eq!(rules(src, driver), vec!["ambient-env"], "{src}");
            // The one parser, the bench crate and binaries are process
            // edges; tests, and a test-module tail, read what they like.
            for edge in [
                "crates/core/src/config.rs",
                "crates/bench/src/lib.rs",
                "crates/workloads/src/bin/crash_writer.rs",
                "src/bin/tool.rs",
                "crates/core/tests/config.rs",
                "tests/engine_smoke.rs",
            ] {
                assert!(rules(src, classify(edge)).is_empty(), "{edge}: {src}");
            }
            let tail = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
            assert!(rules(&tail, driver).is_empty(), "{src}");
        }
        // Other `env` calls, comments and string literals are not reads.
        assert!(rules("let d = std::env::temp_dir();", driver).is_empty());
        assert!(rules("// never call env::var( here", driver).is_empty());
        assert!(rules("let m = \"env::var(\";", driver).is_empty());
    }

    #[test]
    fn scalar_storage_reads_are_flagged_in_storage_readers_only() {
        for reader in [
            "crates/core/src/exec/read.rs",
            "crates/baselines/src/volcano.rs",
            "crates/baselines/src/relational.rs",
            "crates/storage/src/store.rs",
            "crates/storage/src/delta.rs",
        ] {
            let class = classify(reader);
            assert!(class.storage_reader, "{reader}");
            for src in ["let v = col.get_i64(i);", "for (pos, nbr) in csr.iter_list(v) {}"] {
                assert_eq!(rules(src, class), vec!["scalar-storage-read"], "{reader}: {src}");
            }
            // The cursor reads are the point; comments, string literals, a
            // justified line and the test tail pass.
            assert!(rules("let v = col.get_i64_with(&mut cur.col, i);", class).is_empty());
            assert!(rules("// never call get_i64( here", class).is_empty());
            assert!(rules("let m = \"iter_list(\";", class).is_empty());
            assert!(rules("// lint: allow(probe)\nlet v = col.get_i64(i);", class).is_empty());
            let tail = "fn f() {}\n#[cfg(test)]\nmod tests {\n    csr.iter_list(0);\n}\n";
            assert!(rules(tail, class).is_empty());
        }
        // Storage itself defines the two reads, and the benchmark and the
        // examples call them.
        for other in [
            "crates/columnar/src/column.rs",
            "crates/storage/src/csr.rs",
            "crates/storage/src/columnar_graph.rs",
            "crates/core/src/plan.rs",
            "crates/bench/benches/micro.rs",
        ] {
            assert!(!classify(other).storage_reader, "{other}");
            assert!(rules("let v = col.get_i64(i);", classify(other)).is_empty(), "{other}");
        }
    }

    #[test]
    fn classify_matches_the_rule_scopes() {
        for f in ["mod", "cursor", "scan", "extend", "read", "filter", "sink", "compile"] {
            assert!(classify(&format!("crates/core/src/exec/{f}.rs")).hot_path, "{f}");
        }
        assert!(classify("crates/core/src/agg.rs").hot_path);
        assert!(classify("crates/columnar/src/paged_array.rs").hot_path);
        assert!(classify("crates/columnar/src/paged_array.rs").codec);
        assert!(classify("crates/storage/src/buffer_pool.rs").hot_path);
        // The pre-rename names classify as plain library code: a stale list
        // entry would silently stop covering the rewritten code.
        let library = FileClass { library: true, ..FileClass::default() };
        for old in [
            "crates/columnar/src/paged.rs",
            "crates/storage/src/pager.rs",
            "crates/core/src/exec.rs",
        ] {
            assert_eq!(classify(old), library, "{old}");
        }
        assert!(classify("crates/common/src/codec.rs").codec);
        assert!(classify("crates/frontend/src/lexer.rs").hot_path);
        assert!(classify("crates/frontend/src/parser.rs").hot_path);
        assert!(classify("crates/frontend/src/binder.rs").hot_path);
        assert!(classify("crates/core/src/optimize.rs").hot_path);
        assert!(classify("crates/storage/src/delta.rs").hot_path);
        assert!(classify("crates/storage/src/wal.rs").hot_path);
        assert!(classify("crates/storage/src/persistent.rs").hot_path);
        assert!(!classify("crates/storage/src/store.rs").hot_path);
        assert!(classify("crates/common/src/govern.rs").hot_path);
        assert!(classify("crates/core/src/govern.rs").hot_path);
        assert!(classify("crates/storage/src/buffer_pool.rs").read_path);
        assert!(!classify("crates/storage/src/format.rs").read_path);
        assert!(classify("src/lib.rs").facade);
        assert_eq!(classify("crates/core/src/plan.rs"), library);
        assert!(classify("crates/workloads/tests/chaos.rs").test_file);
    }
}
