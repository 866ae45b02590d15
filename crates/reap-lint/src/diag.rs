//! Findings and the machine-readable report.

use crate::json::Value;

/// One finding at one source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule class: `determinism`, `panic`, `locks`, `unsafe`, `api`,
    /// `pragma`.
    pub rule: &'static str,
    /// Specific check within the class (`hash-order`, `unwrap`, ...).
    pub check: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// `Some(justification)` when a pragma allows the site.
    pub allowed: Option<String>,
}

impl Diagnostic {
    /// Whether this finding fails the lint (no pragma covers it).
    #[must_use]
    pub fn is_violation(&self) -> bool {
        self.allowed.is_none()
    }

    /// The diagnostic's JSON form (one element of the report arrays).
    #[must_use]
    pub fn to_json(&self) -> Value {
        // Keys in sorted order, like every object in the report.
        Value::obj(vec![
            (
                "allowed",
                match &self.allowed {
                    Some(j) => Value::Str(j.clone()),
                    None => Value::Null,
                },
            ),
            ("check", Value::Str(self.check.into())),
            ("file", Value::Str(self.file.clone())),
            ("line", Value::Num(self.line as f64)),
            ("message", Value::Str(self.message.clone())),
            ("rule", Value::Str(self.rule.into())),
            ("snippet", Value::Str(self.snippet.clone())),
        ])
    }

    /// Rebuilds a diagnostic from its JSON form (schema round-trip
    /// testing; the strings referencing static rule ids are matched back
    /// against the registry).
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    // reap-lint: allow(api) -- engine.rs's report_json_schema_round_trips decodes the report with it
    pub fn from_json(v: &Value) -> Result<Diagnostic, String> {
        let rule_s = v
            .get("rule")
            .and_then(Value::as_str)
            .ok_or("missing rule")?;
        let check_s = v
            .get("check")
            .and_then(Value::as_str)
            .ok_or("missing check")?;
        let rule = crate::rules::RULE_IDS
            .iter()
            .find(|r| **r == rule_s)
            .ok_or_else(|| format!("unknown rule {rule_s}"))?;
        let check = crate::rules::CHECK_IDS
            .iter()
            .find(|c| **c == check_s)
            .ok_or_else(|| format!("unknown check {check_s}"))?;
        Ok(Diagnostic {
            rule,
            check,
            file: v
                .get("file")
                .and_then(Value::as_str)
                .ok_or("missing file")?
                .to_string(),
            line: v
                .get("line")
                .and_then(Value::as_f64)
                .ok_or("missing line")? as usize,
            message: v
                .get("message")
                .and_then(Value::as_str)
                .ok_or("missing message")?
                .to_string(),
            snippet: v
                .get("snippet")
                .and_then(Value::as_str)
                .ok_or("missing snippet")?
                .to_string(),
            allowed: match v.get("allowed") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => return Err("allowed must be string or null".into()),
            },
        })
    }
}
