//! Rule P — panic-freedom in the serving request path.
//!
//! A panic in a connection handler tears down a session mid-frame (or
//! poisons shared state) instead of producing a typed error frame. In
//! the scoped crates this rule flags every potential panic site:
//! `.unwrap()` / `.expect(...)`, the panicking macros, `assert!`
//! family (debug_assert is exempt — it compiles out of release), and
//! slice/array indexing (`x[i]` can panic out-of-bounds; prefer `.get`
//! or carry a pragma arguing the bound).

use crate::diag::Diagnostic;
use crate::source::{word_occurrences, SourceFile};

use super::{emit, in_scope, Config};

/// Runs rule P over every in-scope file.
pub fn check(files: &[&SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
    for file in files {
        if !in_scope(file, &cfg.panic_crates, &[]) {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = &line.code;
            if !word_occurrences(code, ".unwrap()").is_empty() {
                emit(
                    file,
                    i + 1,
                    "panic",
                    "unwrap",
                    "`.unwrap()` in the serving path; return a typed error frame".to_string(),
                    out,
                );
            }
            if !word_occurrences(code, ".expect(").is_empty() {
                emit(
                    file,
                    i + 1,
                    "panic",
                    "expect",
                    "`.expect(...)` in the serving path; return a typed error frame".to_string(),
                    out,
                );
            }
            for mac in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
                if !word_occurrences(code, mac).is_empty() {
                    emit(
                        file,
                        i + 1,
                        "panic",
                        "panic-macro",
                        format!("`{mac}...)` in the serving path"),
                        out,
                    );
                }
            }
            for mac in ["assert!(", "assert_eq!(", "assert_ne!("] {
                if !word_occurrences(code, mac).is_empty() {
                    emit(
                        file,
                        i + 1,
                        "panic",
                        "assert",
                        format!("`{mac}...)` panics in release; use debug_assert or an error"),
                        out,
                    );
                }
            }
            if has_index_expression(code) {
                emit(
                    file,
                    i + 1,
                    "panic",
                    "index",
                    "indexing can panic out-of-bounds; use .get()/.get_mut() or justify the bound"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Detects index expressions `recv[...]` in masked code: a `[` directly
/// preceded by an identifier character, `)`, or `]`. Array/slice *types*
/// and literals (`[u8; 4]`, `&[...]`, `= [`) start after a non-ident
/// character and never match; macro invocations (`vec![`) are excluded
/// by walking the identifier chain back to a `!`; attribute lines
/// (`#[...]`) are skipped wholesale.
fn has_index_expression(code: &str) -> bool {
    let trimmed = code.trim_start();
    if trimmed.starts_with('#') {
        return false;
    }
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
        if !(is_ident(prev) || prev == b')' || prev == b']') {
            continue;
        }
        // Walk the identifier chain back; a `!` in front marks a macro.
        let mut j = i;
        while j > 0 && is_ident(bytes[j - 1]) {
            j -= 1;
        }
        if j > 0 && bytes[j - 1] == b'!' {
            continue;
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_heuristic() {
        assert!(has_index_expression("let x = arr[i];"));
        assert!(has_index_expression("f(bytes[n - 1])"));
        assert!(has_index_expression("matrix[r][c]"));
        assert!(has_index_expression("foo()[0]"));
        assert!(!has_index_expression("let a: [u8; 4] = x;"));
        assert!(!has_index_expression("let s: &[u8] = x;"));
        assert!(!has_index_expression("let v = vec![1, 2];"));
        assert!(!has_index_expression("#[derive(Debug)]"));
        assert!(!has_index_expression("let a = [0u8; 16];"));
    }
}
