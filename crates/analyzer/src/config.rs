//! `analyzer.toml` — configuration and the ratchet baseline.
//!
//! The parser is a deliberately minimal TOML subset (tables, string/array
//! values, `[[baseline]]` array-of-tables) so the analyzer stays
//! dependency-free. The format it accepts:
//!
//! ```toml
//! [lints.AD01]
//! allow_crates = ["obs", "bencher", "bench"]
//!
//! [severity]
//! AP03 = "warn"
//!
//! [[baseline]]
//! lint = "AP02"
//! path = "crates/net/src/flowstats.rs"
//! count = 2
//! ```
//!
//! Baseline semantics are a **ratchet**: for each `(lint, path)` the actual
//! finding count must equal the recorded count. More findings = a new
//! violation; fewer = a stale entry that must be ratcheted down. Either way
//! the run fails, so the baseline can only shrink over time and always
//! reflects reality.

use crate::findings::Severity;
use std::collections::{BTreeMap, BTreeSet};

/// A typed configuration error with file/line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in analyzer.toml, 0 when not line-specific.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "analyzer.toml:{}: {}", self.line, self.message)
        } else {
            write!(f, "analyzer.toml: {}", self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

/// One `[[baseline]]` entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Lint id.
    pub lint: String,
    /// Repo-relative file path.
    pub path: String,
    /// Accepted finding count for that (lint, path).
    pub count: usize,
}

/// Parsed analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crates allowed to read wall clocks (AD01).
    pub wallclock_allow: BTreeSet<String>,
    /// Crates allowed to spawn threads (AD04).
    pub thread_allow: BTreeSet<String>,
    /// Crates whose output ordering matters (AD03 applies).
    pub ordered_crates: BTreeSet<String>,
    /// Crates exempt from the panic-safety lints (dev-tool shims whose API
    /// *is* panicking, e.g. the proptest substitute).
    pub panic_exempt: BTreeSet<String>,
    /// Committed-surface path prefixes for AS01 (determinism taint): public
    /// functions under these paths must not transitively reach a
    /// wallclock/entropy/spawn source. Empty = lint inactive.
    pub entry_paths: BTreeSet<String>,
    /// Exit-status literals AS04 accepts in bin crates (defaults to the
    /// documented 0/2/3 contract when unset).
    pub exit_codes: BTreeSet<String>,
    /// Per-lint severity overrides.
    pub severity: BTreeMap<String, Severity>,
    /// The ratchet baseline.
    pub baseline: Vec<BaselineEntry>,
}

impl Config {
    /// Parse `analyzer.toml` content.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        // The baseline entry currently being filled.
        let mut current: Option<(Option<String>, Option<String>, Option<usize>)> = None;

        let finish = |cur: &mut Option<(Option<String>, Option<String>, Option<usize>)>,
                      baseline: &mut Vec<BaselineEntry>,
                      line: u32|
         -> Result<(), ConfigError> {
            if let Some((lint, path, count)) = cur.take() {
                match (lint, path, count) {
                    (Some(lint), Some(path), Some(count)) => {
                        baseline.push(BaselineEntry { lint, path, count });
                        Ok(())
                    }
                    _ => Err(ConfigError {
                        line,
                        message: "incomplete [[baseline]] entry: needs lint, path and count"
                            .to_string(),
                    }),
                }
            } else {
                Ok(())
            }
        };

        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[baseline]]" {
                finish(&mut current, &mut cfg.baseline, lineno)?;
                current = Some((None, None, None));
                section = "baseline".to_string();
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                finish(&mut current, &mut cfg.baseline, lineno)?;
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value`, got {line:?}"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match section.as_str() {
                "baseline" => {
                    let Some(cur) = current.as_mut() else {
                        return Err(ConfigError {
                            line: lineno,
                            message: "baseline keys outside a [[baseline]] entry".to_string(),
                        });
                    };
                    match key {
                        "lint" => cur.0 = Some(parse_string(value, lineno)?),
                        "path" => cur.1 = Some(parse_string(value, lineno)?),
                        "count" => {
                            cur.2 = Some(value.parse().map_err(|_| ConfigError {
                                line: lineno,
                                message: format!("count must be an integer, got {value:?}"),
                            })?)
                        }
                        other => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown baseline key {other:?}"),
                            })
                        }
                    }
                }
                "severity" => {
                    let sev = parse_string(value, lineno)?;
                    let sev = Severity::parse(&sev).ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!("severity must be \"warn\" or \"deny\", got {sev:?}"),
                    })?;
                    cfg.severity.insert(key.to_string(), sev);
                }
                s if s.starts_with("lints.") => {
                    let lint = &s["lints.".len()..];
                    let list = parse_string_array(value, lineno)?;
                    let target = match (lint, key) {
                        ("AD01", "allow_crates") => &mut cfg.wallclock_allow,
                        ("AD04", "allow_crates") => &mut cfg.thread_allow,
                        ("AD03", "crates") => &mut cfg.ordered_crates,
                        ("AP01", "exempt_crates") | ("AP02", "exempt_crates") => {
                            &mut cfg.panic_exempt
                        }
                        ("AS01", "entry_paths") => &mut cfg.entry_paths,
                        ("AS04", "codes") => &mut cfg.exit_codes,
                        _ => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown option `{key}` for [lints.{lint}]"),
                            })
                        }
                    };
                    target.extend(list);
                }
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown section [{other}]"),
                    });
                }
            }
        }
        finish(&mut current, &mut cfg.baseline, src.lines().count() as u32)?;
        cfg.baseline.sort();
        Ok(cfg)
    }

    /// The baseline count for a `(lint, path)` pair (0 when absent).
    pub fn baseline_count(&self, lint: &str, path: &str) -> usize {
        self.baseline
            .iter()
            .find(|b| b.lint == lint && b.path == path)
            .map(|b| b.count)
            .unwrap_or(0)
    }

    /// Exit-status literals AS04 accepts: the configured set, or the
    /// documented `0`/`2`/`3` contract when the config is silent.
    pub fn allowed_exit_codes(&self) -> BTreeSet<String> {
        if self.exit_codes.is_empty() {
            ["0", "2", "3"].iter().map(|s| s.to_string()).collect()
        } else {
            self.exit_codes.clone()
        }
    }

    /// Resolved severity for a lint id.
    pub fn severity_of(&self, id: &str) -> Severity {
        self.severity.get(id).copied().unwrap_or_else(|| {
            crate::lints::spec(id)
                .map(|s| s.default_severity)
                .unwrap_or(Severity::Deny)
        })
    }
}

/// Strip a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: u32) -> Result<String, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected a quoted string, got {value:?}"),
        })
}

fn parse_string_array(value: &str, line: u32) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected an array of strings, got {value:?}"),
        })?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_string(s, line))
        .collect()
}

/// Everything in the existing config up to the first `[[baseline]]` entry —
/// preserved verbatim when rewriting the baseline. Only a line that *is* a
/// `[[baseline]]` header counts; the token appearing inside a comment or
/// value does not start the baseline section.
pub fn baseline_header(src: &str) -> String {
    let mut pos = 0;
    for line in src.split_inclusive('\n') {
        if line.trim() == "[[baseline]]" {
            return src[..pos].to_string();
        }
        pos += line.len();
    }
    let mut s = src.trim_end().to_string();
    if !s.is_empty() {
        s.push_str("\n\n");
    }
    s
}

/// Render `[[baseline]]` entries back to TOML (for `--write-baseline`).
pub fn render_baseline(entries: &[BaselineEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!(
            "[[baseline]]\nlint = \"{}\"\npath = \"{}\"\ncount = {}\n\n",
            e.lint, e.path, e.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[lints.AD01]
allow_crates = ["obs", "bench"] # trailing comment

[lints.AD03]
crates = ["net"]

[lints.AS01]
entry_paths = ["crates/net/src/render/"]

[lints.AS04]
codes = ["0", "2", "3", "7"]

[severity]
AP03 = "warn"

[[baseline]]
lint = "AP02"
path = "crates/net/src/a.rs"
count = 3

[[baseline]]
lint = "AP01"
path = "crates/policy/src/b.rs"
count = 1
"#;

    #[test]
    fn parses_the_full_surface() {
        let cfg = Config::parse(SAMPLE).expect("parse");
        assert!(cfg.wallclock_allow.contains("obs"));
        assert!(cfg.ordered_crates.contains("net"));
        assert_eq!(cfg.severity_of("AP03"), Severity::Warn);
        assert_eq!(cfg.severity_of("AP02"), Severity::Deny);
        assert_eq!(cfg.baseline.len(), 2);
        assert_eq!(cfg.baseline_count("AP02", "crates/net/src/a.rs"), 3);
        assert_eq!(cfg.baseline_count("AP02", "crates/net/src/other.rs"), 0);
        assert!(cfg.entry_paths.contains("crates/net/src/render/"));
        assert!(cfg.allowed_exit_codes().contains("7"));
    }

    #[test]
    fn exit_codes_default_to_the_documented_contract() {
        let cfg = Config::parse("").expect("empty config parses");
        let codes = cfg.allowed_exit_codes();
        assert_eq!(
            codes.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["0", "2", "3"]
        );
    }

    #[test]
    fn incomplete_baseline_is_an_error() {
        let err = Config::parse("[[baseline]]\nlint = \"AP01\"\n").expect_err("must fail");
        assert!(err.message.contains("incomplete"), "{err}");
    }

    #[test]
    fn unknown_section_is_an_error() {
        assert!(Config::parse("[mystery]\nx = \"1\"\n").is_err());
        let err = Config::parse("[lints.AS02]\npairs = [\"A:b:c\"]\n").expect_err("no AS02");
        assert!(err.message.contains("unknown option `pairs`"), "{err}");
    }

    #[test]
    fn bad_severity_is_an_error() {
        assert!(Config::parse("[severity]\nAP03 = \"loud\"\n").is_err());
    }

    #[test]
    fn header_ignores_baseline_token_in_comments() {
        let src = "# the [[baseline]] ratchet\n[lints.AD01]\nallow_crates = []\n\n[[baseline]]\nlint = \"AP02\"\npath = \"a.rs\"\ncount = 1\n";
        assert_eq!(
            baseline_header(src),
            "# the [[baseline]] ratchet\n[lints.AD01]\nallow_crates = []\n\n"
        );
    }

    #[test]
    fn header_without_baseline_gets_separator() {
        assert_eq!(
            baseline_header("[severity]\nAP03 = \"warn\"\n"),
            "[severity]\nAP03 = \"warn\"\n\n"
        );
        assert_eq!(baseline_header(""), "");
    }

    #[test]
    fn baseline_roundtrips() {
        let cfg = Config::parse(SAMPLE).expect("parse");
        let rendered = render_baseline(&cfg.baseline);
        let reparsed = Config::parse(&rendered).expect("reparse");
        assert_eq!(cfg.baseline, reparsed.baseline);
    }
}
