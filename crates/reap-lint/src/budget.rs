//! The committed allowlist budget: a per-rule ceiling on *justified*
//! (pragma'd) sites, so the number of exemptions can only ratchet down.
//!
//! Unjustified violations always fail the lint regardless of budget.
//! The budget governs the pragmas themselves: adding a new
//! `allow(...)` pragma without shrinking another fails CI until the
//! committed budget is deliberately re-ratcheted — growth is a reviewed
//! decision, never a drive-by.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::diag::Diagnostic;
use crate::json::{self, Value};

/// Per-rule-class ceilings on allowed (pragma'd) sites.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Budget {
    /// Rule class -> maximum allowed (pragma'd) sites.
    pub per_rule: BTreeMap<String, usize>,
}

impl Budget {
    /// Parses the committed budget file.
    ///
    /// # Errors
    ///
    /// Unreadable file or malformed JSON.
    pub fn load(path: &Path) -> Result<Budget, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Budget::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    }

    /// Parses the JSON text form.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a non-numeric budget entry.
    pub fn parse(text: &str) -> Result<Budget, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let budgets = v.get("budgets").ok_or("missing budgets object")?;
        let Value::Obj(map) = budgets else {
            return Err("budgets must be an object".into());
        };
        let mut per_rule = BTreeMap::new();
        for (k, v) in map {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("budget {k} not a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("budget {k} must be a non-negative integer"));
            }
            per_rule.insert(k.clone(), n as usize);
        }
        Ok(Budget { per_rule })
    }

    /// Counts allowed sites per rule class.
    #[must_use]
    pub fn tally(diagnostics: &[Diagnostic]) -> BTreeMap<String, usize> {
        let mut tally: BTreeMap<String, usize> = BTreeMap::new();
        for d in diagnostics {
            if d.allowed.is_some() {
                *tally.entry(d.rule.to_string()).or_insert(0) += 1;
            }
        }
        tally
    }

    /// Checks the tally against the ceilings. Returns one message per
    /// over-budget rule (empty = within budget).
    #[must_use]
    pub fn check(&self, diagnostics: &[Diagnostic]) -> Vec<String> {
        let tally = Budget::tally(diagnostics);
        let mut failures = Vec::new();
        for (rule, count) in &tally {
            let ceiling = self.per_rule.get(rule).copied().unwrap_or(0);
            if *count > ceiling {
                failures.push(format!(
                    "rule {rule}: {count} allowed sites exceed the committed budget of {ceiling} \
                     (ratchet: remove a pragma or deliberately re-commit the budget)"
                ));
            }
        }
        failures
    }

    /// Serializes the current tally as a fresh budget file (the
    /// `--write-budget` ratchet).
    #[must_use]
    pub fn render(tally: &BTreeMap<String, usize>) -> String {
        // Pretty-ish: one budget per line so diffs review cleanly.
        let mut out = String::from("{\n  \"version\": 1,\n  \"budgets\": {\n");
        for (i, (rule, ceiling)) in tally.iter().enumerate() {
            out.push_str("    ");
            json::write_str(&mut out, rule);
            let _ = write!(out, ": {ceiling}");
            if i + 1 < tally.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, allowed: bool) -> Diagnostic {
        Diagnostic {
            rule,
            check: "unwrap",
            file: "f.rs".into(),
            line: 1,
            message: String::new(),
            snippet: String::new(),
            allowed: allowed.then(|| "why".to_string()),
        }
    }

    #[test]
    fn over_budget_fails_under_budget_passes() {
        let budget = Budget::parse(r#"{"version":1,"budgets":{"panic":1}}"#).unwrap();
        let ds = vec![diag("panic", true)];
        assert!(budget.check(&ds).is_empty());
        let ds = vec![diag("panic", true), diag("panic", true)];
        assert_eq!(budget.check(&ds).len(), 1);
        // Unknown rule class defaults to a zero ceiling.
        let ds = vec![diag("determinism", true)];
        assert_eq!(budget.check(&ds).len(), 1);
        // Violations (not allowed) don't count against the budget.
        let ds = vec![diag("panic", false), diag("panic", false)];
        assert!(budget.check(&ds).is_empty());
    }

    #[test]
    fn render_parses_back() {
        let mut tally = BTreeMap::new();
        tally.insert("panic".to_string(), 7usize);
        tally.insert("unsafe".to_string(), 2usize);
        let text = Budget::render(&tally);
        let parsed = Budget::parse(&text).unwrap();
        assert_eq!(parsed.per_rule.get("panic"), Some(&7));
        assert_eq!(parsed.per_rule.get("unsafe"), Some(&2));
    }
}
