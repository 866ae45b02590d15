//! # reap-lint — workspace invariant linter
//!
//! The repo's headline guarantees (REAP-vs-optimal pinning,
//! byte-identical snapshots across SIGKILL, SoA-vs-scalar
//! bit-equivalence, the intermittent crash drills) all rest on two
//! properties the differential test suites can only check *after* a
//! violation ships: determinism of every state-bearing path, and
//! panic-freedom of the serving hot path. `reap-lint` makes both (plus
//! lock discipline and an unsafe/float audit) static, repo-specific,
//! compile-time-adjacent properties: a token/line-level analyzer with
//! machine-readable JSON diagnostics, per-site justification pragmas,
//! and a committed allowlist budget that can only ratchet down.
//!
//! Run it locally with `cargo run -p reap-lint` (add `--format json`
//! for the CI artifact form). Rule classes:
//!
//! | rule | scope | what it rejects |
//! |------|-------|-----------------|
//! | `determinism` | state-bearing crates | wall clocks, hash-order iteration, ambient RNG, env reads |
//! | `panic` | `reap-serve` | `unwrap`/`expect`, panic macros, release asserts, unguarded indexing |
//! | `locks` | `reap-serve` | raw mutexes, unlabeled acquisitions, rank inversions, lock-graph cycles |
//! | `unsafe` | workspace / ledger crates | unjustified `unsafe`, unjustified `as f64`/`as f32` |
//! | `api` | library `src/` | `pub` items no bin, bench, example, library or perfbench line names |
//!
//! Suppression is per-site and must be argued:
//!
//! ```text
//! // reap-lint: allow(panic:index) -- `shards` is non-empty by construction (asserted in new)
//! ```
//!
//! The committed `reap-lint.budget.json` caps the number of allowed
//! sites per rule class; a new pragma that pushes a class over its
//! ceiling fails the lint until the budget is deliberately re-committed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod diag;
// The workspace's one JSON codec, compiled from its home in reap-serve
// so the linter keeps no dependencies.
#[path = "../../reap-serve/src/json.rs"]
pub mod json;
pub mod rules;
pub mod source;

pub use budget::Budget;
pub use diag::Diagnostic;
pub use rules::Config;

use std::path::{Path, PathBuf};

use json::Value;
use source::SourceFile;

/// A completed lint run.
#[derive(Debug)]
pub struct Report {
    /// Workspace root the paths are relative to.
    pub root: PathBuf,
    /// Files scanned.
    pub files_scanned: usize,
    /// Every finding, allowed or not, sorted by (file, line).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Findings not covered by a justification pragma.
    #[must_use]
    pub fn violations(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.is_violation())
            .collect()
    }

    /// Findings suppressed by a pragma (the budgeted set).
    #[must_use]
    pub fn allowed(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| !d.is_violation())
            .collect()
    }

    /// The machine-readable report. `budget_failures` come from
    /// [`Budget::check`] so CI consumers see the ratchet verdict inline.
    #[must_use]
    pub fn to_json(&self, budget_failures: &[String]) -> Value {
        let tally = Budget::tally(&self.diagnostics);
        // Keys in sorted order, like every object in the report.
        Value::obj(vec![
            (
                "allowed",
                Value::Arr(self.allowed().iter().map(|d| d.to_json()).collect()),
            ),
            (
                "allowed_per_rule",
                Value::Obj(
                    tally
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "budget_failures",
                Value::Arr(
                    budget_failures
                        .iter()
                        .map(|m| Value::Str(m.clone()))
                        .collect(),
                ),
            ),
            ("files_scanned", Value::Num(self.files_scanned as f64)),
            (
                "ok",
                Value::Bool(self.violations().is_empty() && budget_failures.is_empty()),
            ),
            ("version", Value::Num(1.0)),
            (
                "violations",
                Value::Arr(self.violations().iter().map(|d| d.to_json()).collect()),
            ),
        ])
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render_text(&self, budget_failures: &[String]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in self.violations() {
            let _ = writeln!(
                out,
                "{}:{}: [{}:{}] {}\n    {}",
                d.file, d.line, d.rule, d.check, d.message, d.snippet
            );
        }
        for m in budget_failures {
            let _ = writeln!(out, "budget: {m}");
        }
        let tally = Budget::tally(&self.diagnostics);
        let allowed: usize = tally.values().sum();
        let _ = writeln!(
            out,
            "reap-lint: {} file(s), {} violation(s), {} allowed site(s) ({})",
            self.files_scanned,
            self.violations().len(),
            allowed,
            tally
                .iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out
    }
}

/// Lints every workspace source under `root` with `cfg`.
///
/// # Errors
///
/// I/O failures walking or reading sources.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = collect_sources(root)?;
    Ok(lint_files(root, files, cfg))
}

/// Lints an explicit file set (the fixture tests' entry point).
#[must_use]
pub fn lint_files(root: &Path, mut files: Vec<SourceFile>, cfg: &Config) -> Report {
    mark_test_only_modules(&mut files);
    let diagnostics = rules::run_all(&files, cfg);
    Report {
        root: root.to_path_buf(),
        files_scanned: files.len(),
        diagnostics,
    }
}

/// Marks every module file that its parent declares test-only
/// (`#[cfg(test)] mod name;`) as wholly test code, like a file under
/// `tests/`, and in turn every module file such a file declares. A
/// `lib.rs`, `main.rs` or `mod.rs` parent declares `name.rs` or
/// `name/mod.rs` beside it; any other `parent.rs` declares
/// `parent/name.rs` or `parent/name/mod.rs`.
fn mark_test_only_modules(files: &mut [SourceFile]) {
    loop {
        let mut children: Vec<String> = Vec::new();
        for file in files.iter() {
            let dir = match file.path.rsplit_once('/') {
                Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => format!("{dir}/"),
                Some((_, _)) => format!("{}/", file.path.trim_end_matches(".rs")),
                None => String::new(),
            };
            let mut depth = 0;
            for line in &file.lines {
                let top_level = depth == 0;
                depth = line.depth_end;
                let Some(name) = declared_module(&line.code) else {
                    continue;
                };
                if line.in_test && top_level {
                    children.push(format!("{dir}{name}.rs"));
                    children.push(format!("{dir}{name}/mod.rs"));
                }
            }
        }
        let mut marked = false;
        for file in files.iter_mut() {
            if children.contains(&file.path) && file.lines.iter().any(|l| !l.in_test) {
                for line in &mut file.lines {
                    line.in_test = true;
                }
                marked = true;
            }
        }
        if !marked {
            return;
        }
    }
}

/// The module a masked code line declares from a file of its own
/// (`mod name;`, any visibility, after any same-line attributes).
fn declared_module(code: &str) -> Option<&str> {
    let mut rest = code.trim();
    while rest.starts_with("#[") {
        rest = rest[rest.find(']')? + 1..].trim_start();
    }
    if let Some(after) = rest.strip_prefix("pub") {
        rest = after.trim_start();
        if rest.starts_with('(') {
            rest = rest[rest.find(')')? + 1..].trim_start();
        }
    }
    let name = rest.strip_prefix("mod ")?.strip_suffix(';')?.trim();
    (!name.is_empty() && name.bytes().all(|b| b == b'_' || b.is_ascii_alphanumeric()))
        .then_some(name)
}

/// Walks the workspace source roots: `crates/*/{src,tests,benches,examples}`,
/// the facade `src/`, top-level `tests/` and `examples/`, then
/// `perfbench/src`, which only rule A reads (for callers). `vendor/` (the
/// offline dependency shims) and `target/` are never scanned. Files
/// under any `tests/` or `benches/` directory are wholly test-scoped.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        {
            let entry = entry.map_err(|e| e.to_string())?;
            if entry.path().is_dir() {
                crate_dirs.push(entry.path());
            }
        }
    }
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for (sub, all_test) in [
            ("src", false),
            ("tests", true),
            ("benches", true),
            ("examples", false),
        ] {
            walk_rs(
                root,
                &crate_dir.join(sub),
                &crate_name,
                all_test,
                &mut files,
            )?;
        }
    }
    walk_rs(root, &root.join("src"), "reap", false, &mut files)?;
    walk_rs(root, &root.join("tests"), "tests", true, &mut files)?;
    walk_rs(root, &root.join("examples"), "examples", false, &mut files)?;
    walk_rs(
        root,
        &root.join(rules::api::CALLER_ONLY_ROOT).join("src"),
        "perfbench",
        false,
        &mut files,
    )?;
    Ok(files)
}

fn walk_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    all_test: bool,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(root, &path, crate_name, all_test, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::parse(
                rel,
                crate_name.to_string(),
                &text,
                all_test,
            ));
        }
    }
    Ok(())
}

/// Searches upward from `start` for the workspace root (a `Cargo.toml`
/// declaring `[workspace]`).
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
