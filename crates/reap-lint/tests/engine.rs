//! Engine tests: one clean and one dirty fixture per rule class, pragma
//! suppression, the unused/invalid pragma meta-rule, the budget ratchet,
//! and a JSON schema round-trip of a real report.
//!
//! Fixtures are inline Rust sources parsed through the same
//! [`SourceFile::parse`] path the workspace walk uses; the scope config
//! puts them all in a crate named `fix`. Rule A's scope is fixed by path,
//! so its fixtures also sit at bin, bench, example, test, perfbench and
//! vendor paths.

use std::path::Path;

use reap_lint::json::{parse, Value};
use reap_lint::source::SourceFile;
use reap_lint::{lint_files, Budget, Config, Diagnostic};

/// A config scoping every rule to the fixture crate `fix`.
fn fix_config() -> Config {
    Config {
        determinism_crates: vec!["fix".into()],
        determinism_files: Vec::new(),
        panic_crates: vec!["fix".into()],
        locks_crates: vec!["fix".into()],
        float_crates: vec!["fix".into()],
        float_files: Vec::new(),
    }
}

fn fixture(name: &str, text: &str) -> SourceFile {
    SourceFile::parse(
        format!("crates/fix/src/{name}.rs"),
        "fix".into(),
        text,
        false,
    )
}

fn lint(files: Vec<SourceFile>) -> Vec<Diagnostic> {
    lint_files(Path::new("/fixture"), files, &fix_config()).diagnostics
}

fn violations(diags: &[Diagnostic]) -> Vec<(&'static str, &'static str, usize)> {
    diags
        .iter()
        .filter(|d| d.is_violation())
        .map(|d| (d.rule, d.check, d.line))
        .collect()
}

// ---------------------------------------------------------------- rule D

#[test]
fn determinism_dirty_fixture_flags_every_check() {
    let diags = lint(vec![fixture(
        "det_dirty",
        r#"
use std::collections::HashMap;
fn state() {
    let t = std::time::SystemTime::now();
    let mut rng = thread_rng();
    let home = std::env::var("HOME");
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("determinism", "hash-order", 2)), "{v:?}");
    assert!(v.contains(&("determinism", "wall-clock", 4)), "{v:?}");
    assert!(v.contains(&("determinism", "rng", 5)), "{v:?}");
    assert!(v.contains(&("determinism", "env", 6)), "{v:?}");
}

#[test]
fn determinism_clean_fixture_passes() {
    let diags = lint(vec![fixture(
        "det_clean",
        r#"
use std::collections::BTreeMap;
fn state(seed: u64) -> BTreeMap<u64, u64> {
    // A comment naming HashMap is not code; neither is "SystemTime".
    let s = "SystemTime::now()";
    let mut m = BTreeMap::new();
    m.insert(seed, seed);
    m
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn determinism_ignores_test_code() {
    let diags = lint(vec![fixture(
        "det_test",
        r#"
fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn uses_ambient_time() {
        let _ = std::time::Instant::now();
        let _: HashMap<u8, u8> = HashMap::new();
    }
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

// ---------------------------------------------------------------- rule P

#[test]
fn panic_dirty_fixture_flags_every_check() {
    let diags = lint(vec![fixture(
        "panic_dirty",
        r#"
fn handler(xs: &[u8], user: usize) -> u8 {
    let first = xs.first().unwrap();
    let second = xs.get(1).expect("has two");
    assert!(user < 10);
    if user > xs.len() {
        panic!("out of range");
    }
    xs[user]
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("panic", "unwrap", 3)), "{v:?}");
    assert!(v.contains(&("panic", "expect", 4)), "{v:?}");
    assert!(v.contains(&("panic", "assert", 5)), "{v:?}");
    assert!(v.contains(&("panic", "panic-macro", 7)), "{v:?}");
    assert!(v.contains(&("panic", "index", 9)), "{v:?}");
}

#[test]
fn panic_clean_fixture_passes() {
    let diags = lint(vec![fixture(
        "panic_clean",
        r#"
fn handler(xs: &[u8], user: usize) -> Option<u8> {
    debug_assert!(user < 1000);
    let v = vec![1u8, 2];
    let first = xs.first()?;
    let arr: [u8; 4] = [0; 4];
    let _ = (first, v, arr);
    xs.get(user).copied()
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

// ---------------------------------------------------------------- rule L

#[test]
fn locks_clean_fixture_passes() {
    let diags = lint(vec![fixture(
        "locks_clean",
        r#"
// reap-lint: lock-rank(gate, 10)
// reap-lint: lock-rank(table, 20)
fn nested(gate: &Wrapped, table: &Wrapped) {
    // reap-lint: acquires(gate)
    let g = gate.lock();
    // reap-lint: acquires(table)
    let t = table.lock();
    drop((g, t));
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn locks_flags_raw_unlabeled_and_unknown() {
    let diags = lint(vec![fixture(
        "locks_dirty",
        r#"
// reap-lint: lock-rank(gate, 10)
use std::sync::Mutex;
fn bad(m: &Wrapped) {
    let g = m.lock();
    drop(g);
    // reap-lint: acquires(phantom)
    let h = m.lock();
    drop(h);
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("locks", "raw-lock", 3)), "{v:?}");
    assert!(v.contains(&("locks", "unlabeled-acquisition", 5)), "{v:?}");
    assert!(v.contains(&("locks", "unknown-lock", 8)), "{v:?}");
}

#[test]
fn locks_flags_rank_inversion() {
    let diags = lint(vec![fixture(
        "locks_inv",
        r#"
// reap-lint: lock-rank(gate, 10)
// reap-lint: lock-rank(table, 20)
fn inverted(gate: &Wrapped, table: &Wrapped) {
    // reap-lint: acquires(table)
    let t = table.lock();
    // reap-lint: acquires(gate)
    let g = gate.lock();
    drop((t, g));
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("locks", "rank-inversion", 8)), "{v:?}");
}

#[test]
fn locks_flags_cycles_from_holds_annotations() {
    // a -> b in one function, b -> a (via holds) in another: a cycle no
    // single lexical scope shows.
    let diags = lint(vec![fixture(
        "locks_cycle",
        r#"
// reap-lint: lock-rank(a, 10)
// reap-lint: lock-rank(b, 10)
fn ab(a: &Wrapped, b: &Wrapped) {
    // reap-lint: acquires(a)
    let g = a.lock();
    // reap-lint: acquires(b)
    let h = b.lock();
    drop((g, h));
}
fn ba(a: &Wrapped) {
    // reap-lint: acquires(a)
    // reap-lint: holds(b)
    let g = a.lock();
    drop(g);
}
"#,
    )]);
    let v = violations(&diags);
    assert!(
        v.iter()
            .any(|(r, c, _)| *r == "locks" && *c == "lock-cycle"),
        "{v:?}"
    );
}

#[test]
fn locks_guards_die_with_their_scope() {
    // The gate guard's block closes before the table is taken: no edge,
    // no inversion, even though the ranks would invert if nested.
    let diags = lint(vec![fixture(
        "locks_scope",
        r#"
// reap-lint: lock-rank(gate, 10)
// reap-lint: lock-rank(table, 20)
fn sequential(gate: &Wrapped, table: &Wrapped) {
    {
        // reap-lint: acquires(table)
        let t = table.lock();
        drop(t);
    }
    // reap-lint: acquires(gate)
    let g = gate.lock();
    drop(g);
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

// ---------------------------------------------------------------- rule U

#[test]
fn unsafe_and_float_dirty_fixture() {
    let diags = lint(vec![fixture(
        "unsafe_dirty",
        r#"
fn raw(p: *const u8, n: u64) -> f64 {
    let _ = unsafe { *p };
    n as f64
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("unsafe", "unsafe-block", 3)), "{v:?}");
    assert!(v.contains(&("unsafe", "float-cast", 4)), "{v:?}");
}

#[test]
fn unsafe_clean_fixture_passes() {
    let diags = lint(vec![fixture(
        "unsafe_clean",
        r#"
#![forbid(unsafe_code)]
fn widen(n: u32) -> f64 {
    f64::from(n)
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

// ---------------------------------------------------------------- rule A

/// A fixture at `path`, parsed the way the workspace walk parses it:
/// files under `tests/` and `benches/` are wholly test code.
fn at(path: &str, text: &str) -> SourceFile {
    let crate_name = if path.starts_with("perfbench/") {
        "perfbench"
    } else {
        "fix"
    };
    let all_test = path.contains("/tests/") || path.contains("/benches/");
    SourceFile::parse(path.into(), crate_name.into(), text, all_test)
}

fn api_violations(diags: &[Diagnostic]) -> Vec<(&str, usize)> {
    diags
        .iter()
        .filter(|d| d.rule == "api" && d.is_violation())
        .map(|d| (d.file.as_str(), d.line))
        .collect()
}

#[test]
fn api_flags_every_kind_of_unnamed_pub_item() {
    let diags = lint(vec![fixture(
        "api_kinds",
        r#"
pub fn lonely() {}
pub const fn zero() -> u8 { 0 }
pub const LIMIT: u8 = 3;
pub static NAME: &str = "name";
pub struct Shape;
pub enum Mode { On }
pub trait Speak {}
pub type Id = u32;
pub fn named() -> u8 { 1 }
fn caller() -> u8 { named() }
"#,
    )]);
    let v = violations(&diags);
    for line in 2..=9 {
        assert!(v.contains(&("api", "dead-pub", line)), "line {line}: {v:?}");
    }
    assert_eq!(v.len(), 8, "{v:?}");
}

#[test]
fn api_tests_docs_reexports_and_mod_lines_are_not_callers() {
    let diags = lint(vec![
        fixture(
            "lib",
            r#"
//! ```
//! fix::documented();
//! ```
pub mod shared;
pub use shared::reexported;
pub fn documented() {}
pub fn unit_tested() {}
pub fn integration_tested() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::unit_tested();
    }
}
"#,
        ),
        fixture(
            "shared",
            "pub fn reexported() {}
pub fn shared() {}
",
        ),
        at(
            "crates/fix/tests/it.rs",
            "#[test]
fn it() { fix::integration_tested(); }
",
        ),
    ]);
    let v = api_violations(&diags);
    for site in [
        ("crates/fix/src/lib.rs", 7),
        ("crates/fix/src/lib.rs", 8),
        ("crates/fix/src/lib.rs", 9),
        ("crates/fix/src/shared.rs", 1),
        ("crates/fix/src/shared.rs", 2),
    ] {
        assert!(v.contains(&site), "{site:?} not flagged: {v:?}");
    }
    assert_eq!(v.len(), 5, "{v:?}");
}

#[test]
fn api_callers_are_bins_benches_examples_and_perfbench() {
    let diags = lint(vec![
        fixture(
            "lib",
            "pub fn by_bin() {}
pub fn by_bench() {}
pub fn by_example() {}
pub fn by_perfbench() {}
",
        ),
        at(
            "crates/fix/src/bin/tool.rs",
            "fn main() { fix::by_bin(); }
",
        ),
        at(
            "crates/fix/benches/speed.rs",
            "fn main() { fix::by_bench(); }
",
        ),
        at(
            "crates/fix/examples/demo.rs",
            "fn main() { fix::by_example(); }
",
        ),
        // perfbench is read for callers only: no rule lints it.
        at(
            "perfbench/src/main.rs",
            "fn main() { fix::by_perfbench(); let _ = unsafe { 0 }; }
",
        ),
    ]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn api_scope_excludes_restricted_items_bins_main_and_vendor() {
    let diags = lint(vec![
        fixture(
            "scoped",
            "pub(crate) fn internal() {}
pub(super) fn parent() {}
",
        ),
        at(
            "crates/fix/src/bin/tool.rs",
            "pub fn helper() {}
fn main() {}
",
        ),
        at(
            "crates/fix/src/main.rs",
            "pub fn run() {}
fn main() {}
",
        ),
        at(
            "vendor/shim/src/lib.rs",
            "pub fn shimmed() {}
",
        ),
    ]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn allow_api_records_its_test_and_goes_stale_with_a_caller() {
    let diags = lint(vec![fixture(
        "api_pragma",
        r#"
// reap-lint: allow(api) -- the crash drill forces failures with it
pub fn drill_only() {}
// reap-lint: allow(api) -- nothing calls this any more
pub fn called_again() {}
fn caller() {
    called_again();
}
"#,
    )]);
    assert_eq!(violations(&diags), vec![("pragma", "unused", 4)]);
    let allowed: Vec<_> = diags.iter().filter(|d| !d.is_violation()).collect();
    assert_eq!(allowed.len(), 1);
    assert_eq!((allowed[0].rule, allowed[0].line), ("api", 3));
    assert_eq!(
        allowed[0].allowed.as_deref(),
        Some("the crash drill forces failures with it")
    );
}

#[test]
fn test_only_module_files_are_test_code() {
    // `#[cfg(test)] mod name;` puts a whole file in test code: its
    // `unwrap` is not a panic site in reap-serve, its `pub fn` is not
    // API, and naming a library item from it calls nothing.
    let serve =
        |path: &str, text: &str| SourceFile::parse(path.into(), "reap-serve".into(), text, false);
    let files = vec![
        serve(
            "crates/reap-serve/src/lib.rs",
            "pub mod state;
#[cfg(test)]
mod helpers;
#[cfg(test)] mod inline;
pub fn only_tested() -> u8 { 1 }
",
        ),
        serve(
            "crates/reap-serve/src/helpers.rs",
            "pub fn helper() -> u8 { crate::only_tested().checked_add(1).unwrap() }
",
        ),
        serve(
            "crates/reap-serve/src/inline/mod.rs",
            "pub fn inline_helper(xs: &[u8]) -> u8 { xs[0] }
",
        ),
        serve(
            "crates/reap-serve/src/state.rs",
            "#[cfg(test)]
mod fixtures;
pub fn step() -> u8 { 0 }
",
        ),
        serve(
            "crates/reap-serve/src/state/fixtures.rs",
            "pub fn fixture() -> Option<u8> { None.unwrap() }
",
        ),
        at(
            "crates/reap-serve/src/bin/serve.rs",
            "fn main() { reap_serve::state::step(); }
",
        ),
    ];
    let diags = lint_files(Path::new("/fixture"), files, &Config::repo_default()).diagnostics;
    let v: Vec<_> = diags
        .iter()
        .filter(|d| d.is_violation())
        .map(|d| (d.file.as_str(), d.rule, d.check, d.line))
        .collect();
    assert_eq!(
        v,
        vec![("crates/reap-serve/src/lib.rs", "api", "dead-pub", 5)],
        "{v:?}"
    );
}

// ------------------------------------------------------------- pragmas

#[test]
fn allow_pragma_suppresses_and_records_justification() {
    let diags = lint(vec![fixture(
        "pragma_ok",
        r#"
fn checked(xs: &[u8], i: usize) -> u8 {
    // reap-lint: allow(panic:index) -- i is taken modulo xs.len() by every caller
    xs[i % xs.len()]
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
    let allowed: Vec<_> = diags.iter().filter(|d| !d.is_violation()).collect();
    assert_eq!(allowed.len(), 1);
    assert_eq!(allowed[0].check, "index");
    assert_eq!(
        allowed[0].allowed.as_deref(),
        Some("i is taken modulo xs.len() by every caller")
    );
}

#[test]
fn whole_rule_allow_covers_every_check_of_the_class() {
    let diags = lint(vec![fixture(
        "pragma_rule",
        r#"
fn boom() {
    // reap-lint: allow(panic) -- fixture exercising class-wide allow
    let _ = Some(1).unwrap();
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn trailing_pragma_targets_its_own_line() {
    let diags = lint(vec![fixture(
        "pragma_trailing",
        r#"
fn f(xs: &[u8]) -> u8 {
    xs[0] // reap-lint: allow(panic:index) -- fixture: first byte is guaranteed by framing
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn unused_pragma_is_itself_a_violation() {
    let diags = lint(vec![fixture(
        "pragma_unused",
        r#"
fn fine() {
    // reap-lint: allow(panic:unwrap) -- nothing here unwraps anymore
    let x = 1 + 1;
    let _ = x;
}
"#,
    )]);
    let v = violations(&diags);
    assert_eq!(v, vec![("pragma", "unused", 3)], "{v:?}");
}

#[test]
fn pragma_without_justification_is_invalid() {
    let diags = lint(vec![fixture(
        "pragma_bare",
        r#"
fn f() {
    // reap-lint: allow(panic:unwrap)
    let _ = Some(1).unwrap();
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("pragma", "invalid", 3)), "{v:?}");
    // And the unjustified pragma does NOT suppress the finding.
    assert!(v.contains(&("panic", "unwrap", 4)), "{v:?}");
}

// ------------------------------------------------------------- budget

#[test]
fn budget_ratchet_fails_on_growth_only() {
    let diags = lint(vec![fixture(
        "budget_fix",
        r#"
fn f(xs: &[u8]) -> u8 {
    // reap-lint: allow(panic:index) -- fixture
    xs[0]
}
"#,
    )]);
    let at_ceiling = Budget::parse(r#"{"version":1,"budgets":{"panic":1}}"#).unwrap();
    assert!(at_ceiling.check(&diags).is_empty());
    let above = Budget::parse(r#"{"version":1,"budgets":{"panic":5}}"#).unwrap();
    assert!(above.check(&diags).is_empty(), "under ceiling is fine");
    let below = Budget::parse(r#"{"version":1,"budgets":{"panic":0}}"#).unwrap();
    let failures = below.check(&diags);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("panic"), "{failures:?}");
    // A rule class absent from the budget has ceiling zero.
    let empty = Budget::parse(r#"{"version":1,"budgets":{}}"#).unwrap();
    assert_eq!(empty.check(&diags).len(), 1);
}

// ------------------------------------------------------- JSON round-trip

#[test]
fn report_json_schema_round_trips() {
    let report = lint_files(
        Path::new("/fixture"),
        vec![fixture(
            "roundtrip",
            r#"
fn f(xs: &[u8]) -> u8 {
    // reap-lint: allow(panic:index) -- fixture justification
    let a = xs[0];
    let b = xs.last().unwrap();
    a + b
}
"#,
        )],
        &fix_config(),
    );
    assert_eq!(report.violations().len(), 1);
    assert_eq!(report.allowed().len(), 1);

    let encoded = report.to_json(&["budget: fixture note".into()]).encode();
    let parsed = parse(&encoded).expect("report JSON parses back");
    assert_eq!(parsed.get("version").and_then(Value::as_f64), Some(1.0));
    assert_eq!(
        parsed.get("files_scanned").and_then(Value::as_f64),
        Some(1.0)
    );

    for key in ["violations", "allowed"] {
        let arr = parsed.get(key).and_then(Value::as_arr).expect(key);
        assert_eq!(arr.len(), 1, "{key}");
        let rebuilt = Diagnostic::from_json(&arr[0]).expect("diagnostic rebuilds");
        let original = if key == "violations" {
            report.violations()[0]
        } else {
            report.allowed()[0]
        };
        assert_eq!(&rebuilt, original, "{key} round-trip");
    }
}

#[test]
fn diagnostic_from_json_rejects_unknown_rule() {
    let v = parse(
        r#"{"rule":"made-up","check":"unwrap","file":"x.rs","line":1,"message":"m","snippet":"s","allowed":null}"#,
    )
    .unwrap();
    assert!(Diagnostic::from_json(&v).unwrap_err().contains("made-up"));
}
