//! The rule registry.
//!
//! Each rule module is a pure function over the lexed workspace: it
//! never sees raw text (only masked code), never fires on test code, and
//! reports through [`emit`], which applies any `allow` pragma on the
//! line (recording the justification instead of a violation).

use crate::diag::Diagnostic;
use crate::source::SourceFile;

pub mod api;
pub mod determinism;
pub mod locks;
pub mod panic;
pub mod unsafe_float;

/// Every rule class id (the budget and pragma namespace).
pub const RULE_IDS: &[&str] = &["determinism", "panic", "locks", "unsafe", "api", "pragma"];

/// Every check id a diagnostic can carry.
pub const CHECK_IDS: &[&str] = &[
    // determinism
    "wall-clock",
    "hash-order",
    "rng",
    "env",
    // panic
    "unwrap",
    "expect",
    "panic-macro",
    "assert",
    "index",
    // locks
    "raw-lock",
    "unlabeled-acquisition",
    "unknown-lock",
    "rank-conflict",
    "rank-inversion",
    "rank-equal",
    "lock-cycle",
    // unsafe
    "unsafe-block",
    "float-cast",
    // api
    "dead-pub",
    // pragma hygiene
    "unused",
    "invalid",
];

/// Which files each rule class covers. Paths are workspace-relative
/// suffix matches; crates match [`SourceFile::crate_name`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose state feeds snapshots / reports: nondeterminism here
    /// breaks bit-identity.
    pub determinism_crates: Vec<String>,
    /// Extra single files under determinism (reap-serve's state-bearing
    /// paths).
    pub determinism_files: Vec<String>,
    /// Crates whose request path must be panic-free.
    pub panic_crates: Vec<String>,
    /// Crates under lock discipline.
    pub locks_crates: Vec<String>,
    /// Crates under the float-cast audit.
    pub float_crates: Vec<String>,
    /// Extra single files under the float-cast audit.
    pub float_files: Vec<String>,
}

impl Config {
    /// The committed scope for this repository.
    #[must_use]
    pub fn repo_default() -> Config {
        Config {
            determinism_crates: ["reap-core", "reap-sim", "reap-harvest", "reap-data"]
                .map(String::from)
                .to_vec(),
            determinism_files: [
                "crates/reap-serve/src/state.rs",
                "crates/reap-serve/src/snapshot.rs",
            ]
            .map(String::from)
            .to_vec(),
            panic_crates: vec!["reap-serve".to_string()],
            locks_crates: vec!["reap-serve".to_string()],
            float_crates: ["reap-units", "reap-harvest"].map(String::from).to_vec(),
            float_files: vec!["crates/reap-sim/src/clock.rs".to_string()],
        }
    }
}

/// Whether `file` falls under a crate-list + file-suffix-list scope.
#[must_use]
pub fn in_scope(file: &SourceFile, crates: &[String], files: &[String]) -> bool {
    crates.contains(&file.crate_name) || files.iter().any(|f| file.path.ends_with(f))
}

/// Records a finding at `line_no` (1-based), consulting `allow` pragmas.
pub fn emit(
    file: &SourceFile,
    line_no: usize,
    rule: &'static str,
    check: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let allowed = file.allows_for(line_no, rule, check).map(|p| {
        p.used.set(true);
        match &p.kind {
            crate::source::PragmaKind::Allow { justification, .. } => justification.clone(),
            _ => String::new(),
        }
    });
    let snippet = file
        .lines
        .get(line_no - 1)
        .map(|l| l.raw.trim().to_string())
        .unwrap_or_default();
    out.push(Diagnostic {
        rule,
        check,
        file: file.path.clone(),
        line: line_no,
        message,
        snippet,
        allowed,
    });
}

/// Runs every rule over the workspace, then reports unused or malformed
/// pragmas (pragma hygiene keeps the allowlist honest: a pragma that
/// suppresses nothing must be deleted, not accumulated). Caller-only
/// files ([`api::is_caller_only`]) feed rule A and nothing else.
#[must_use]
pub fn run_all(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let linted: Vec<&SourceFile> = files.iter().filter(|f| !api::is_caller_only(f)).collect();
    determinism::check(&linted, cfg, &mut out);
    panic::check(&linted, cfg, &mut out);
    locks::check(&linted, cfg, &mut out);
    unsafe_float::check(&linted, cfg, &mut out);
    api::check(files, &mut out);

    for file in linted {
        for p in &file.pragmas {
            if p.used.get() {
                continue;
            }
            let target_in_test = file.lines.get(p.target_line - 1).is_some_and(|l| l.in_test);
            match &p.kind {
                crate::source::PragmaKind::Allow { rules, .. } if rules.is_empty() => {
                    emit(
                        file,
                        p.at_line,
                        "pragma",
                        "invalid",
                        "malformed reap-lint pragma (check the grammar in DESIGN.md)".to_string(),
                        &mut out,
                    );
                }
                _ if target_in_test => {}
                crate::source::PragmaKind::Allow { rules, .. } => {
                    emit(
                        file,
                        p.at_line,
                        "pragma",
                        "unused",
                        format!(
                            "allow({}) suppresses no finding; delete it",
                            rules.join(", ")
                        ),
                        &mut out,
                    );
                }
                crate::source::PragmaKind::Acquires { name, .. }
                | crate::source::PragmaKind::Holds { name } => {
                    emit(
                        file,
                        p.at_line,
                        "pragma",
                        "unused",
                        format!("lock pragma for `{name}` matches no acquisition; delete it"),
                        &mut out,
                    );
                }
                crate::source::PragmaKind::LockRank { .. } => {}
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule, a.check).cmp(&(&b.file, b.line, b.rule, b.check)));
    out
}
