//! Rule D — determinism.
//!
//! Snapshot bit-identity, SoA-vs-scalar equivalence, and the
//! killed-and-restored drills all assume state evolution is a pure
//! function of (seed, inputs). Inside the state-bearing crates this rule
//! bans every ambient source of nondeterminism:
//!
//! - wall clocks (`SystemTime`, `Instant`) — a stray timestamp in state
//!   silently breaks byte-identical snapshots;
//! - hash-order iteration (`HashMap`, `HashSet`, `RandomState`,
//!   `DefaultHasher`) — per-process SipHash seeding makes iteration
//!   order differ across runs; use `BTreeMap`/`BTreeSet`;
//! - ambient randomness (`thread_rng`, `OsRng`, `from_entropy`) — all
//!   randomness must flow from an explicit seed;
//! - environment reads (`env::var`, `temp_dir`, `process::id`) — state
//!   must not depend on where or how the process runs.

use crate::diag::Diagnostic;
use crate::source::{word_occurrences, SourceFile};

use super::{emit, in_scope, Config};

const NEEDLES: &[(&str, &str, &str)] = &[
    (
        "SystemTime",
        "wall-clock",
        "wall-clock time in state-bearing code",
    ),
    (
        "Instant",
        "wall-clock",
        "monotonic clock in state-bearing code",
    ),
    (
        "HashMap",
        "hash-order",
        "per-process hash seeding; use BTreeMap",
    ),
    (
        "HashSet",
        "hash-order",
        "per-process hash seeding; use BTreeSet",
    ),
    ("RandomState", "hash-order", "randomly seeded hasher"),
    ("DefaultHasher", "hash-order", "randomly seeded hasher"),
    (
        "thread_rng",
        "rng",
        "ambient RNG; thread randomness must come from an explicit seed",
    ),
    (
        "OsRng",
        "rng",
        "ambient RNG; randomness must come from an explicit seed",
    ),
    (
        "from_entropy",
        "rng",
        "ambient RNG seeding; seed explicitly",
    ),
    ("env::var", "env", "environment-dependent state"),
    ("env::vars", "env", "environment-dependent state"),
    ("temp_dir", "env", "environment-dependent path"),
    ("process::id", "env", "process-dependent value"),
];

/// Runs rule D over every in-scope file.
pub fn check(files: &[&SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
    for file in files {
        if !in_scope(file, &cfg.determinism_crates, &cfg.determinism_files) {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for (needle, check, why) in NEEDLES {
                if !word_occurrences(&line.code, needle).is_empty() {
                    emit(
                        file,
                        i + 1,
                        "determinism",
                        check,
                        format!("`{needle}`: {why}"),
                        out,
                    );
                }
            }
        }
    }
}
