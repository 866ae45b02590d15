//! Rule A — dead public API.
//!
//! rustc warns about an unused private item but not about an unused
//! `pub` item of a library, so public API outlives its last caller.
//! This rule reports `dead-pub` on each `pub` fn, const, static,
//! struct, enum, trait or type in a library crate's `src/` whose name
//! no caller line uses. Caller lines are the non-test lines of every
//! scanned file (libraries, bins, examples), every line of a bench, and
//! `perfbench/src`, which is read for this rule only. Test code, doc
//! examples (masked as comments), `pub use` re-exports and `mod` lines
//! name an item without calling it, so they do not count.
//!
//! The scope is fixed: `pub(crate)`-style items, bins, `main.rs` and
//! anything outside `crates/*/src` and the facade's `src/` define no
//! API. Names are counted in one identifier pass, so the rule errs in
//! one direction only: a name shared with another identifier can hide a
//! dead item, but a live item is never flagged, unless its one caller
//! names it inside a format string (`"{LIMIT}"`), which is masked like
//! any literal. An item kept for a test carries `allow(api)` naming that
//! test.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::source::{Line, SourceFile};

use super::emit;

/// Where the caller-only sources live: perfbench is a workspace of its
/// own that builds against the library crates, so it is read to find
/// callers and linted for nothing.
pub const CALLER_ONLY_ROOT: &str = "perfbench/";

/// Whether `file` is read only to find callers.
#[must_use]
pub fn is_caller_only(file: &SourceFile) -> bool {
    file.path.starts_with(CALLER_ONLY_ROOT)
}

/// Item keywords the rule reports, as they follow `pub` (after any of
/// `const`, `unsafe`, `async`, `extern "abi"`).
const ITEM_KINDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// Runs rule A over the workspace.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let mut defs: Vec<(&SourceFile, usize, &'static str, &str)> = Vec::new();
    for file in files.iter().filter(|f| defines_api(f)) {
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if let Some((kind, name)) = pub_item(&line.code) {
                defs.push((file, i + 1, kind, name));
            }
        }
    }

    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for file in files {
        count_identifiers(file, &mut uses);
    }
    // Each definition line names its own item once.
    for (_, _, _, name) in &defs {
        if let Some(n) = uses.get_mut(name) {
            *n = n.saturating_sub(1);
        }
    }

    for (file, line_no, kind, name) in defs {
        if uses.get(name).copied().unwrap_or(0) == 0 {
            emit(
                file,
                line_no,
                "api",
                "dead-pub",
                format!("pub {kind} `{name}` has no caller outside tests; delete it"),
                out,
            );
        }
    }
}

/// Whether `file` is library source: under `crates/<name>/src/` or the
/// facade's `src/`, and not a binary.
fn defines_api(file: &SourceFile) -> bool {
    let path = file.path.as_str();
    let in_src = path.starts_with("src/")
        || path
            .strip_prefix("crates/")
            .and_then(|p| p.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
    in_src && !path.ends_with("/main.rs") && !path.contains("/bin/")
}

/// Whether `line` of `file` can call an item. A bench is a program,
/// though the walk marks it test code for the other rules.
fn is_caller(file: &SourceFile, line: &Line) -> bool {
    !line.in_test || file.path.contains("/benches/")
}

/// The `(kind, name)` a masked code line defines, if it opens a plain
/// `pub` item.
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let mut words = rest
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .peekable();
    let mut word = words.next()?;
    while matches!(word, "unsafe" | "async" | "extern")
        || (word == "const" && words.peek().is_some_and(|w| matches!(*w, "fn" | "unsafe")))
    {
        word = words.next()?;
    }
    let kind = ITEM_KINDS.iter().find(|k| **k == word)?;
    let mut name = words.next()?;
    if name == "mut" {
        name = words.next()?;
    }
    Some((kind, name))
}

/// Adds every identifier on `file`'s caller lines to `uses`, skipping
/// `pub use` statements and the name after `mod`.
fn count_identifiers<'a>(file: &'a SourceFile, uses: &mut BTreeMap<&'a str, usize>) {
    let mut in_pub_use = false;
    let mut after_pub = false;
    let mut after_mod = false;
    for line in file.lines.iter().filter(|l| is_caller(file, l)) {
        let code = line.code.as_str();
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if !(b.is_ascii_alphanumeric() || b == b'_') {
                if b == b';' {
                    in_pub_use = false;
                    after_pub = false;
                }
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if b.is_ascii_digit() {
                continue; // a numeric literal and its suffix
            }
            let word = &code[start..i];
            let counts = !in_pub_use && !after_mod;
            after_mod = word == "mod";
            match word {
                "pub" => after_pub = true,
                "use" if after_pub => in_pub_use = true,
                "crate" | "super" | "self" | "in" if after_pub => {}
                _ => after_pub = false,
            }
            if counts {
                *uses.entry(word).or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_item_reads_every_kind() {
        assert_eq!(pub_item("    pub fn solve(&self)"), Some(("fn", "solve")));
        assert_eq!(
            pub_item("pub const fn zero() -> Self {"),
            Some(("fn", "zero"))
        );
        assert_eq!(pub_item("pub const MAX: u32 = 1;"), Some(("const", "MAX")));
        assert_eq!(pub_item("pub static mut N: u8 = 0;"), Some(("static", "N")));
        assert_eq!(pub_item("pub struct Grid<T> {"), Some(("struct", "Grid")));
        assert_eq!(pub_item("pub type Id = u32;"), Some(("type", "Id")));
        assert_eq!(pub_item("pub unsafe fn raw()"), Some(("fn", "raw")));
        assert_eq!(pub_item("pub(crate) fn inner()"), None);
        assert_eq!(pub_item("pub mod frontier;"), None);
        assert_eq!(pub_item("pub use frontier::Table;"), None);
        assert_eq!(pub_item("    pub solve: f64,"), None);
    }
}
