//! Finding records and the JSON emitter.
//!
//! The JSON writer is hand-rolled (the analyzer is dependency-free by
//! design) and deterministic: findings are emitted in (path, line, lint)
//! order, so two runs over the same tree produce byte-identical output —
//! the same contract the audit pipeline itself honours.

/// One lint finding at one site. Every lint gates: any finding fails the
/// run.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint id (see [`crate::lints::CATALOG`]).
    pub lint: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the offending token (0 when unknown).
    pub col: u32,
    /// Trimmed source line.
    pub snippet: String,
    /// What is wrong.
    pub message: String,
}

impl Finding {
    /// A finding with its snippet still empty (the driver fills it in from
    /// the file's source).
    pub fn new(lint: &'static str, path: &str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            lint,
            path: path.to_string(),
            line,
            col,
            snippet: String::new(),
            message,
        }
    }

    /// The canonical one-line human rendering: `path:line:col: [id] message`
    /// — the `path:line:col` prefix is what editors and CI annotations parse.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.lint, self.message
        )
    }
}

/// Escape a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the findings report as deterministic JSON.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"clean\": {},\n", findings.is_empty()));
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}{}\n",
            f.lint,
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message),
            json_escape(&f.snippet),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn empty_report_is_clean_json() {
        let s = render_json(&[]);
        assert!(s.contains("\"clean\": true"));
        assert!(s.contains("\"findings\": [\n  ]"));
    }
}
