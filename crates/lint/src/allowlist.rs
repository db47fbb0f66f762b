//! The `lint.toml` allowlist: suppressions with mandatory justifications.
//!
//! The file is a sequence of `[[allow]]` tables parsed by a minimal in-tree
//! TOML-subset reader (string and integer values only — the container has no
//! crates.io access, so no real TOML crate). Every entry must carry a
//! written `justification`; entries that match nothing are reported as
//! *stale* so suppressions expire the moment the code they covered is fixed.
//!
//! ```toml
//! [[allow]]
//! rule = "T1"
//! path = "crates/eval/src/runner.rs"
//! contains = "Mutex"        # optional: substring of the offending line
//! max = 8                   # optional: cap on matched diagnostics
//! justification = "ScenarioCache maps, locked only by the calling thread"
//! ```

use crate::rules::Diagnostic;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule ID the entry suppresses (`D1`, ... `A1`).
    pub rule: String,
    /// Repo-relative file path, or a directory prefix ending in `/`.
    pub path: String,
    /// Optional substring the offending source line must contain.
    pub contains: Option<String>,
    /// Optional cap on how many diagnostics the entry may absorb.
    pub max: Option<usize>,
    /// The mandatory written justification.
    pub justification: String,
    /// 1-based line of the `[[allow]]` header in `lint.toml`, for reporting.
    pub line: usize,
}

impl AllowEntry {
    /// Whether this entry covers `diag`.
    pub fn matches(&self, diag: &Diagnostic) -> bool {
        if self.rule != diag.rule {
            return false;
        }
        let path_ok = if self.path.ends_with('/') {
            diag.path.starts_with(self.path.as_str())
        } else {
            diag.path == self.path
        };
        if !path_ok {
            return false;
        }
        match &self.contains {
            Some(needle) => diag.snippet.contains(needle.as_str()),
            None => true,
        }
    }

    /// Short human identification of the entry for reports.
    pub fn describe(&self) -> String {
        match &self.contains {
            Some(c) => format!(
                "{} {} contains {:?} (lint.toml:{})",
                self.rule, self.path, c, self.line
            ),
            None => format!("{} {} (lint.toml:{})", self.rule, self.path, self.line),
        }
    }
}

/// A parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// The entries, in file order (first match wins).
    pub entries: Vec<AllowEntry>,
}

/// A configuration error in `lint.toml` (malformed syntax, missing
/// justification, unknown key). These exit with status 2, not 1: a broken
/// allowlist must never silently pass the gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowlistError {
    /// 1-based line in `lint.toml`.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parses the TOML-subset allowlist text.
    pub fn parse(text: &str) -> Result<Self, AllowlistError> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<AllowEntry> = None;
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(done) = current.take() {
                    validate(&done)?;
                    entries.push(done);
                }
                current = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    contains: None,
                    max: None,
                    justification: String::new(),
                    line: lineno,
                });
                continue;
            }
            if line.starts_with('[') {
                return Err(AllowlistError {
                    line: lineno,
                    message: format!("unexpected table `{line}`; only [[allow]] is supported"),
                });
            }
            let Some(entry) = current.as_mut() else {
                return Err(AllowlistError {
                    line: lineno,
                    message: "key outside an [[allow]] table".to_string(),
                });
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(AllowlistError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => entry.rule = parse_string(value, lineno)?,
                "path" => entry.path = parse_string(value, lineno)?,
                "contains" => entry.contains = Some(parse_string(value, lineno)?),
                "justification" => entry.justification = parse_string(value, lineno)?,
                "max" => {
                    entry.max = Some(value.parse::<usize>().map_err(|_| AllowlistError {
                        line: lineno,
                        message: format!("`max` must be an integer, got `{value}`"),
                    })?)
                }
                other => {
                    return Err(AllowlistError {
                        line: lineno,
                        message: format!("unknown key `{other}` in [[allow]] entry"),
                    })
                }
            }
        }
        if let Some(done) = current.take() {
            validate(&done)?;
            entries.push(done);
        }
        Ok(Allowlist { entries })
    }
}

fn validate(entry: &AllowEntry) -> Result<(), AllowlistError> {
    if entry.rule.is_empty() {
        return Err(AllowlistError {
            line: entry.line,
            message: "entry is missing `rule`".to_string(),
        });
    }
    if crate::rules::rule_info(&entry.rule).is_none() {
        return Err(AllowlistError {
            line: entry.line,
            message: format!("unknown rule `{}`", entry.rule),
        });
    }
    if entry.path.is_empty() {
        return Err(AllowlistError {
            line: entry.line,
            message: "entry is missing `path`".to_string(),
        });
    }
    if entry.justification.trim().is_empty() {
        return Err(AllowlistError {
            line: entry.line,
            message: "entry is missing a written `justification` — every suppression \
                      must explain why the invariant holds anyway"
                .to_string(),
        });
    }
    Ok(())
}

/// Strips a `#` comment, respecting `"` quoting.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Parses a double-quoted TOML basic string with `\"`/`\\` escapes.
fn parse_string(value: &str, lineno: usize) -> Result<String, AllowlistError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| AllowlistError {
            line: lineno,
            message: format!("expected a double-quoted string, got `{value}`"),
        })?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    return Err(AllowlistError {
                        line: lineno,
                        message: format!("unsupported escape `\\{other}`"),
                    })
                }
                None => {
                    return Err(AllowlistError {
                        line: lineno,
                        message: "dangling escape at end of string".to_string(),
                    })
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}
