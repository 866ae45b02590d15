//! Source model: one parsed file ready for rule passes.
//!
//! Rules never see raw text. Each file is lexed once into per-line
//! *masked code* (string/char-literal contents and every comment blanked
//! to spaces, byte positions preserved) so a pattern like `.unwrap()`
//! inside a string or a doc comment can never fire, plus a per-line
//! `in_test` flag (inside a `#[cfg(test)]` / `#[test]` region, or a file
//! under `tests/` / `benches/`; `lint_files` then marks the module files
//! a parent declares `#[cfg(test)] mod name;`) so test code is exempt
//! from every rule,
//! plus the list of `reap-lint:` pragmas extracted from `//` comments.
//!
//! Pragma grammar (one per comment):
//!
//! ```text
//! // reap-lint: allow(rule[, rule...]) -- <justification>
//! // reap-lint: lock-rank(<name>, <rank>)
//! // reap-lint: acquires(<name>[, ordered])
//! // reap-lint: holds(<name>)
//! ```
//!
//! A pragma written on a line with code applies to that line; a pragma
//! on a comment-only line applies to the next line carrying code
//! (stacking is allowed — several pragma lines may precede one code
//! line).

use std::cell::Cell;

/// A `reap-lint:` directive parsed out of a `//` comment.
#[derive(Debug, Clone, PartialEq)]
pub enum PragmaKind {
    /// `allow(rule, ...) -- justification`: suppress matching findings
    /// on the target line, recording the justification.
    Allow {
        /// Rule classes (or `rule:check` pairs) being allowed.
        rules: Vec<String>,
        /// The mandatory written argument for the exemption.
        justification: String,
    },
    /// `lock-rank(name, rank)`: declares a lock and its total-order rank.
    LockRank {
        /// Declared lock name.
        name: String,
        /// Total-order rank (higher = acquired later).
        rank: u32,
    },
    /// `acquires(name[, ordered])`: labels a `.lock()` site. `ordered`
    /// marks a site that takes several same-rank locks in ascending
    /// declared sub-order (the shard walk).
    Acquires {
        /// The declared lock this site takes.
        name: String,
        /// Same-rank class taken in ascending sub-order.
        ordered: bool,
    },
    /// `holds(name)`: declares a lock held on entry to the target line's
    /// acquisition (an explicit nesting edge).
    Holds {
        /// The declared lock held on entry.
        name: String,
    },
}

/// One directive plus the code line it targets.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma text sits on.
    pub at_line: usize,
    /// 1-based line the pragma governs.
    pub target_line: usize,
    /// The parsed directive.
    pub kind: PragmaKind,
    /// Set when some finding (or lock pass) consumed the pragma; an
    /// `allow` that suppresses nothing is itself reported.
    pub used: Cell<bool>,
}

/// One lexed line.
#[derive(Debug)]
pub struct Line {
    /// Verbatim source text.
    pub raw: String,
    /// Same bytes with comments and literal contents blanked to spaces.
    pub code: String,
    /// Inside test code (region or test-only file).
    pub in_test: bool,
    /// Brace depth at the end of the line (masked braces only).
    pub depth_end: i32,
}

impl Line {
    /// Whether the masked line carries any code at all.
    #[must_use]
    pub fn has_code(&self) -> bool {
        !self.code.trim().is_empty()
    }
}

/// A fully lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Owning crate name (`reap-serve`, ...), `reap` for the root
    /// `src/`, or the top-level directory name for `tests/`/`examples/`.
    pub crate_name: String,
    /// Lexed lines, 0-indexed (line N of the file is `lines[N-1]`).
    pub lines: Vec<Line>,
    /// Every `reap-lint:` directive in the file.
    pub pragmas: Vec<Pragma>,
}

impl SourceFile {
    /// Lexes `text` into the rule-facing model. `all_test` marks every
    /// line as test code (integration-test and bench files).
    #[must_use]
    pub fn parse(path: String, crate_name: String, text: &str, all_test: bool) -> SourceFile {
        let (masked, comments) = mask(text);
        let raw_lines: Vec<&str> = split_keep_empty(text);
        let masked_lines: Vec<&str> = split_keep_empty(&masked);
        debug_assert_eq!(raw_lines.len(), masked_lines.len());

        let test_flags = test_regions(&masked_lines);
        let mut depth = 0i32;
        let mut lines = Vec::with_capacity(raw_lines.len());
        for (i, raw) in raw_lines.iter().enumerate() {
            let code = masked_lines.get(i).copied().unwrap_or("");
            for b in code.bytes() {
                match b {
                    b'{' => depth += 1,
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            lines.push(Line {
                raw: (*raw).to_string(),
                code: code.to_string(),
                in_test: all_test || test_flags.get(i).copied().unwrap_or(false),
                depth_end: depth,
            });
        }

        let pragmas = extract_pragmas(&comments, &lines);
        SourceFile {
            path,
            crate_name,
            lines,
            pragmas,
        }
    }

    /// `allow` pragmas targeting 1-based `line` that cover `rule` (or
    /// `rule:check`).
    pub fn allows_for(&self, line: usize, rule: &str, check: &str) -> Option<&Pragma> {
        let qualified = format!("{rule}:{check}");
        self.pragmas.iter().find(|p| {
            p.target_line == line
                && match &p.kind {
                    PragmaKind::Allow { rules, .. } => {
                        rules.iter().any(|r| r == rule || *r == qualified)
                    }
                    _ => false,
                }
        })
    }
}

/// Splits on `\n` without dropping a trailing empty segment mismatch
/// (`str::lines` semantics are fine for us; we just need raw/masked to
/// agree, which they do since masking preserves newlines).
fn split_keep_empty(text: &str) -> Vec<&str> {
    text.lines().collect()
}

/// One extracted `//` comment: its 1-based line and text after `//`.
struct Comment {
    line: usize,
    text: String,
}

/// Blanks comments and literal contents to spaces (newlines kept), and
/// collects `//` comment texts for pragma extraction.
fn mask(text: &str) -> (String, Vec<Comment>) {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut cur_comment: Option<Comment> = None;
    let mut st = St::Code;
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            if st == St::LineComment {
                st = St::Code;
                if let Some(c) = cur_comment.take() {
                    comments.push(c);
                }
            }
            out.push(b'\n');
            line += 1;
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = bytes.get(i + 1).copied().unwrap_or(0);
                if b == b'/' && next == b'/' {
                    st = St::LineComment;
                    cur_comment = Some(Comment {
                        line,
                        text: String::new(),
                    });
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b == b'/' && next == b'*' {
                    st = St::BlockComment(1);
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b == b'"' {
                    st = St::Str;
                    out.push(b'"');
                    i += 1;
                } else if (b == b'r' || b == b'b') && raw_str_hashes(bytes, i).is_some() {
                    let (hashes, skip) = raw_str_hashes(bytes, i).unwrap_or((0, 1));
                    st = St::RawStr(hashes);
                    out.extend(std::iter::repeat_n(b' ', skip));
                    i += skip;
                } else if b == b'\'' {
                    // Char literal vs lifetime: a literal is 'x' or an
                    // escape; a lifetime has no closing quote nearby.
                    if next == b'\\' || (bytes.get(i + 2) == Some(&b'\'') && next != b'\'') {
                        st = St::Char;
                        out.push(b'\'');
                        i += 1;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            St::LineComment => {
                if let Some(c) = &mut cur_comment {
                    c.text.push(b as char);
                }
                out.push(b' ');
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = bytes.get(i + 1).copied().unwrap_or(0);
                if b == b'*' && next == b'/' {
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    if depth == 1 {
                        st = St::Code;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                } else if b == b'/' && next == b'*' {
                    st = St::BlockComment(depth + 1);
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
            St::Str => {
                if b == b'\\' {
                    out.push(b' ');
                    if bytes.get(i + 1).is_some() && bytes[i + 1] != b'\n' {
                        out.push(b' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if b == b'"' {
                    st = St::Code;
                    out.push(b'"');
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if b == b'"' && closes_raw(bytes, i, hashes) {
                    out.extend(std::iter::repeat_n(b' ', hashes as usize + 1));
                    i += 1 + hashes as usize;
                    st = St::Code;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
            St::Char => {
                if b == b'\\' && bytes.get(i + 1).is_some() {
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b == b'\'' {
                    st = St::Code;
                    out.push(b'\'');
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }
    if let Some(c) = cur_comment.take() {
        comments.push(c);
    }
    // Masking replaces bytes one-for-one (multi-byte UTF-8 chars in
    // literals/comments become runs of spaces), so output is valid ASCII
    // wherever it differs from the input.
    (String::from_utf8_lossy(&out).into_owned(), comments)
}

/// If `bytes[i..]` opens a raw string (`r"`, `r#"`, `br##"`, ...),
/// returns (hash count, bytes consumed by the opener).
fn raw_str_hashes(bytes: &[u8], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        // Reject identifiers like `ربط` prefixes: previous char must not
        // be an ident char.
        if i > 0 && is_ident(bytes[i - 1]) {
            return None;
        }
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// Whether the `"` at `bytes[i]` closes a raw string with `hashes` `#`s.
fn closes_raw(bytes: &[u8], i: usize, hashes: u32) -> bool {
    for k in 0..hashes as usize {
        if bytes.get(i + 1 + k) != Some(&b'#') {
            return false;
        }
    }
    true
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` regions: the attribute
/// arms a pending flag, the next `{` opens the region at its pre-brace
/// depth, and the matching `}` closes it. A `;` at arm time (an
/// attributed `use`/statement) disarms without opening a region.
fn test_regions(masked_lines: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; masked_lines.len()];
    let mut depth = 0i32;
    let mut armed = false;
    // Depth just *outside* each open test region.
    let mut regions: Vec<i32> = Vec::new();
    for (idx, line) in masked_lines.iter().enumerate() {
        let in_region_at_start = !regions.is_empty();
        if line.contains("#[cfg(test)]")
            || line.contains("#[cfg(all(test")
            || line.contains("#[test]")
        {
            armed = true;
        }
        let armed_on_this_line = armed;
        for b in line.bytes() {
            match b {
                b'{' => {
                    if armed {
                        regions.push(depth);
                        armed = false;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if let Some(&open) = regions.last() {
                        if depth <= open {
                            regions.pop();
                        }
                    }
                }
                b';' => {
                    // `#[cfg(test)] use ...;` — attribute consumed by a
                    // brace-less item before any region opened.
                    armed = false;
                }
                _ => {}
            }
        }
        flags[idx] = in_region_at_start || !regions.is_empty() || armed_on_this_line;
    }
    flags
}

/// Parses every `reap-lint:` comment into a [`Pragma`], resolving the
/// target line (same line if it carries code, else next code line).
fn extract_pragmas(comments: &[Comment], lines: &[Line]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("reap-lint:") else {
            continue;
        };
        let Some(kind) = parse_directive(rest.trim()) else {
            // Malformed pragmas surface as an unused/invalid finding via
            // a sentinel Allow with empty rules.
            out.push(Pragma {
                at_line: c.line,
                target_line: c.line,
                kind: PragmaKind::Allow {
                    rules: Vec::new(),
                    justification: String::new(),
                },
                used: Cell::new(false),
            });
            continue;
        };
        let target = target_line(c.line, lines);
        out.push(Pragma {
            at_line: c.line,
            target_line: target,
            kind,
            used: Cell::new(false),
        });
    }
    out
}

/// The 1-based line a pragma at `at` governs.
fn target_line(at: usize, lines: &[Line]) -> usize {
    let idx = at - 1;
    if lines.get(idx).is_some_and(Line::has_code) {
        return at;
    }
    for (j, l) in lines.iter().enumerate().skip(idx + 1) {
        if l.has_code() {
            return j + 1;
        }
    }
    at
}

fn parse_directive(s: &str) -> Option<PragmaKind> {
    if let Some(rest) = s.strip_prefix("allow(") {
        let close = rest.find(')')?;
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            return None;
        }
        let tail = rest[close + 1..].trim();
        let justification = tail.strip_prefix("--")?.trim().to_string();
        if justification.is_empty() {
            return None;
        }
        return Some(PragmaKind::Allow {
            rules,
            justification,
        });
    }
    if let Some(rest) = s.strip_prefix("lock-rank(") {
        let close = rest.find(')')?;
        let mut parts = rest[..close].splitn(2, ',');
        let name = parts.next()?.trim().to_string();
        let rank: u32 = parts.next()?.trim().parse().ok()?;
        if name.is_empty() {
            return None;
        }
        return Some(PragmaKind::LockRank { name, rank });
    }
    if let Some(rest) = s.strip_prefix("acquires(") {
        let close = rest.find(')')?;
        let mut parts = rest[..close].split(',');
        let name = parts.next()?.trim().to_string();
        let ordered = match parts.next().map(str::trim) {
            None => false,
            Some("ordered") => true,
            Some(_) => return None,
        };
        if name.is_empty() || parts.next().is_some() {
            return None;
        }
        return Some(PragmaKind::Acquires { name, ordered });
    }
    if let Some(rest) = s.strip_prefix("holds(") {
        let close = rest.find(')')?;
        let name = rest[..close].trim().to_string();
        if name.is_empty() {
            return None;
        }
        return Some(PragmaKind::Holds { name });
    }
    None
}

/// Finds word-boundary occurrences of `needle` in `haystack`: the
/// surrounding bytes must not be identifier characters. Returns byte
/// offsets.
#[must_use]
pub fn word_occurrences(haystack: &str, needle: &str) -> Vec<usize> {
    let hb = haystack.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(hb[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= hb.len() || !is_ident(hb[end]);
        // Needles starting with a non-ident char (like `.unwrap()`)
        // trivially pass the before check.
        let first = needle.as_bytes().first().copied().unwrap_or(b' ');
        let last = needle.as_bytes().last().copied().unwrap_or(b' ');
        if (before_ok || !is_ident(first)) && (after_ok || !is_ident(last)) {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse("x.rs".into(), "x".into(), text, false)
    }

    #[test]
    fn masks_strings_and_comments() {
        let f = parse("let s = \".unwrap()\"; // .unwrap()\nlet t = x.unwrap();\n");
        assert!(!f.lines[0].code.contains(".unwrap()"));
        assert!(f.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let f = parse("let s = r#\"HashMap \"inner\" \"#; let c = '\"'; let l: &'static str = x;\nlet m = HashMap::new();\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].code.contains("&'static str"));
        assert!(f.lines[1].code.contains("HashMap"));
    }

    #[test]
    fn block_comments_nest() {
        let f = parse("/* outer /* inner */ still */ let x = unwrap_me();\n");
        assert!(f.lines[0].code.contains("unwrap_me"));
        assert!(!f.lines[0].code.contains("outer"));
        assert!(!f.lines[0].code.contains("still"));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let text = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { y.unwrap(); }\n}\nfn prod2() {}\n";
        let f = parse(text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[4].in_test);
        assert!(f.lines[5].in_test);
        assert!(!f.lines[6].in_test);
    }

    #[test]
    fn cfg_test_use_does_not_poison_rest_of_file() {
        let text = "#[cfg(test)]\nuse foo::bar;\nfn prod() { body(); }\n";
        let f = parse(text);
        assert!(!f.lines[2].in_test, "prod fn wrongly marked test");
    }

    #[test]
    fn pragma_targets_same_or_next_line() {
        let text = "let a = x.unwrap(); // reap-lint: allow(panic) -- fine here\n// reap-lint: allow(determinism) -- seeded\nlet b = HashMap::new();\n";
        let f = parse(text);
        assert_eq!(f.pragmas.len(), 2);
        assert_eq!(f.pragmas[0].target_line, 1);
        assert_eq!(f.pragmas[1].target_line, 3);
        assert!(f.allows_for(1, "panic", "unwrap").is_some());
        assert!(f.allows_for(3, "determinism", "hash-order").is_some());
        assert!(f.allows_for(3, "panic", "unwrap").is_none());
    }

    #[test]
    fn pragma_grammar() {
        assert_eq!(
            parse_directive("lock-rank(shard, 20)"),
            Some(PragmaKind::LockRank {
                name: "shard".into(),
                rank: 20
            })
        );
        assert_eq!(
            parse_directive("acquires(shard, ordered)"),
            Some(PragmaKind::Acquires {
                name: "shard".into(),
                ordered: true
            })
        );
        assert_eq!(
            parse_directive("holds(admission)"),
            Some(PragmaKind::Holds {
                name: "admission".into()
            })
        );
        // Justification is mandatory.
        assert_eq!(parse_directive("allow(panic)"), None);
        assert_eq!(parse_directive("allow(panic) --  "), None);
        assert_eq!(parse_directive("acquires(a, b)"), None);
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(word_occurrences("unsafe_code unsafe {", "unsafe"), vec![12]);
        assert_eq!(
            word_occurrences("x.unwrap().unwrap()", ".unwrap()"),
            vec![1, 10]
        );
        assert!(word_occurrences("MyHashMapLike", "HashMap").is_empty());
    }
}
