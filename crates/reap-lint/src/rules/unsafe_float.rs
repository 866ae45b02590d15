//! Rule U — unsafe & float-cast audit.
//!
//! `unsafe` anywhere in the workspace, and `as f64` / `as f32` casts in
//! the energy-ledger crates, must each carry a written justification.
//! Unsafe is self-explanatory; the cast audit exists because the energy
//! ledgers balance to 1e-9 J — a lossy integer-to-float (or
//! float-to-float) cast in a ledger path is exactly the kind of silent
//! bit-level drift the differential suites can only catch after the
//! fact. Lossless conversions should use `f64::from(...)` (which the
//! rule does not flag); everything else documents why the range is safe.

use crate::diag::Diagnostic;
use crate::source::{word_occurrences, SourceFile};

use super::{emit, in_scope, Config};

/// Runs rule U over the workspace (and the ledger-scope cast audit).
pub fn check(files: &[&SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
    for file in files {
        let float_scope = in_scope(file, &cfg.float_crates, &cfg.float_files);
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if !word_occurrences(&line.code, "unsafe").is_empty() {
                emit(
                    file,
                    i + 1,
                    "unsafe",
                    "unsafe-block",
                    "`unsafe` requires a written justification".to_string(),
                    out,
                );
            }
            if float_scope {
                for cast in ["as f64", "as f32"] {
                    if !word_occurrences(&line.code, cast).is_empty() {
                        emit(
                            file,
                            i + 1,
                            "unsafe",
                            "float-cast",
                            format!(
                                "`{cast}` in ledger code; use f64::from for lossless widths or \
                                 justify the range"
                            ),
                            out,
                        );
                    }
                }
            }
        }
    }
}
