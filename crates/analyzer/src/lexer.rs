//! A hand-rolled, comment/string/cfg-aware Rust lexer.
//!
//! The lints in this crate are *lexical*: they match token sequences, not a
//! parsed AST. That is exactly enough to enforce the workspace contracts
//! (ban an identifier, require a registered string literal after a call
//! token) while staying dependency-free and fast. The lexer's job is to make
//! that token stream trustworthy:
//!
//! * comments (line, doc and nested block) never produce tokens — a banned
//!   name mentioned in prose is not a finding;
//! * string/char literals are single tokens — `"panic!"` inside a string is
//!   data, not a panic site — and raw strings (`r#"…"#`) are handled;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`);
//! * tokens under `#[cfg(test)]` items are flagged so test-only code can be
//!   exempted from the lints;
//! * `// analyzer:allow(LINT) -- reason` escape comments are collected with
//!   the lines they govern.

/// Token classification — only as fine-grained as the lints need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation character (`::` is two `Punct` tokens).
    Punct,
    /// String literal (plain, raw or byte); `text` holds the *content*.
    Str,
    /// Anything else that forms a unit: numbers, char literals, lifetimes.
    Other,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (for [`TokKind::Str`], the unquoted content).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
    /// Whether the token sits inside a `#[cfg(test)]` item.
    pub test: bool,
}

/// A per-line `analyzer:allow` escape directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Lint ids the directive names.
    pub lints: Vec<String>,
    /// Line of the comment itself.
    pub line: u32,
    /// 1-based column of the comment's `//`.
    pub col: u32,
    /// Whether a ` -- reason` trailer was present and non-empty.
    pub has_reason: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace removed.
    pub toks: Vec<Tok>,
    /// Escape directives found in line comments.
    pub allows: Vec<AllowDirective>,
}

/// Lex `src` into tokens and escape directives.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0;
    let mut line: u32 = 1;

    // Char offset of the start of each 1-based line, for column math.
    let mut line_starts: Vec<usize> = vec![0];
    for (idx, &c) in b.iter().enumerate() {
        if c == '\n' {
            line_starts.push(idx + 1);
        }
    }
    let col_of = |idx: usize, line: u32| -> u32 {
        let start = line_starts.get(line as usize - 1).copied().unwrap_or(0);
        (idx.saturating_sub(start) + 1) as u32
    };

    macro_rules! bump_lines {
        ($ch:expr) => {
            if $ch == '\n' {
                line += 1;
            }
        };
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_lines!(c);
            i += 1;
            continue;
        }
        // Line comment — plain `//` comments are scanned for allow
        // directives; doc comments (`///`, `//!`) are documentation and can
        // legitimately *mention* the escape syntax, so they never act as one.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let is_doc = i > start + 2 && (b[start + 2] == '/' || b[start + 2] == '!');
            if !is_doc {
                let text: String = b[start..i].iter().collect();
                scan_allow(&text, line, col_of(start, line), &mut out.allows);
            }
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    bump_lines!(b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte string prefixes: r"", r#""#, b"", br#""#, rb…
        if (c == 'r' || c == 'b') && is_raw_or_byte_string(&b, i) {
            let (mut tok, ni, nl) = lex_prefixed_string(&b, i, line);
            tok.col = col_of(i, line);
            out.toks.push(tok);
            i = ni;
            line = nl;
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let (mut tok, ni, nl) = lex_plain_string(&b, i, line);
            tok.col = col_of(i, line);
            out.toks.push(tok);
            i = ni;
            line = nl;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let (ni, is_char) = scan_quote(&b, i);
            out.toks.push(Tok {
                kind: TokKind::Other,
                text: if is_char { "'char'" } else { "'lifetime" }.to_string(),
                line,
                col: col_of(i, line),
                test: false,
            });
            for &ch in &b[i..ni] {
                bump_lines!(ch);
            }
            i = ni;
            continue;
        }
        // Identifier / keyword.
        if c == '_' || c.is_alphabetic() {
            let start = i;
            while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
                col: col_of(start, line),
                test: false,
            });
            continue;
        }
        // Number (digits + alnum/_ suffix chars; `1.0` splits on the dot,
        // which is fine — no lint matches numeric tokens).
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Other,
                text: b[start..i].iter().collect(),
                line,
                col: col_of(start, line),
                test: false,
            });
            continue;
        }
        // Single punctuation character.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
            col: col_of(i, line),
            test: false,
        });
        i += 1;
    }

    mark_cfg_test(&mut out.toks);
    out
}

/// Whether position `i` (at `r`/`b`) starts a raw or byte string literal.
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    // Don't treat identifiers like `rate`/`bytes` as prefixes: the previous
    // scan already consumed identifiers, so `i` only points at `r`/`b` when
    // a *fresh* token starts here. Check the characters that follow.
    let mut j = i;
    // Up to two prefix letters (r, b, br, rb).
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    if j < b.len() && b[j] == '"' {
        return true;
    }
    // Raw strings may carry `#`s between prefix and quote.
    let has_r = b[i..j].contains(&'r');
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    has_r && j < b.len() && b[j] == '"'
}

/// Lex a string literal with an `r`/`b` prefix starting at `i`.
fn lex_prefixed_string(b: &[char], i: usize, mut line: u32) -> (Tok, usize, u32) {
    let start_line = line;
    let mut j = i;
    let mut raw = false;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') {
        raw |= b[j] == 'r';
        j += 1;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < b.len() && b[j] == '"');
    j += 1; // opening quote
    let content_start = j;
    loop {
        if j >= b.len() {
            break;
        }
        let c = b[j];
        if c == '\n' {
            line += 1;
        }
        if c == '\\' && !raw {
            j += 2;
            continue;
        }
        if c == '"' {
            // Raw strings close only on `"` + the right number of `#`s.
            let close = (0..hashes).all(|k| b.get(j + 1 + k) == Some(&'#'));
            if close {
                let text: String = b[content_start..j].iter().collect();
                return (
                    Tok {
                        kind: TokKind::Str,
                        text,
                        line: start_line,
                        col: 0, // the caller knows the start offset
                        test: false,
                    },
                    j + 1 + hashes,
                    line,
                );
            }
        }
        j += 1;
    }
    // Unterminated literal: emit what we have.
    (
        Tok {
            kind: TokKind::Str,
            text: b[content_start..].iter().collect(),
            line: start_line,
            col: 0,
            test: false,
        },
        b.len(),
        line,
    )
}

/// Lex a plain `"…"` literal starting at the opening quote.
fn lex_plain_string(b: &[char], i: usize, mut line: u32) -> (Tok, usize, u32) {
    let start_line = line;
    let mut j = i + 1;
    let mut text = String::new();
    while j < b.len() {
        let c = b[j];
        if c == '\\' && j + 1 < b.len() {
            // Keep escapes verbatim; lints only inspect name-shaped content.
            text.push(c);
            text.push(b[j + 1]);
            if b[j + 1] == '\n' {
                line += 1;
            }
            j += 2;
            continue;
        }
        if c == '"' {
            return (
                Tok {
                    kind: TokKind::Str,
                    text,
                    line: start_line,
                    col: 0, // the caller knows the start offset
                    test: false,
                },
                j + 1,
                line,
            );
        }
        if c == '\n' {
            line += 1;
        }
        text.push(c);
        j += 1;
    }
    (
        Tok {
            kind: TokKind::Str,
            text,
            line: start_line,
            col: 0,
            test: false,
        },
        b.len(),
        line,
    )
}

/// Scan past a `'…` at `i`: returns (next index, was-a-char-literal).
fn scan_quote(b: &[char], i: usize) -> (usize, bool) {
    let n = b.len();
    // Escaped char literal: '\n', '\u{…}', '\''.
    if i + 1 < n && b[i + 1] == '\\' {
        let mut j = i + 2;
        while j < n && b[j] != '\'' {
            j += 1;
        }
        return ((j + 1).min(n), true);
    }
    // 'x' — a one-char literal.
    if i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'' {
        return (i + 3, true);
    }
    // Lifetime: consume the identifier after the quote.
    let mut j = i + 1;
    while j < n && (b[j] == '_' || b[j].is_alphanumeric()) {
        j += 1;
    }
    (j.max(i + 1), false)
}

/// Parse `analyzer:allow(L1, L2) -- reason` out of a line comment.
fn scan_allow(comment: &str, line: u32, col: u32, out: &mut Vec<AllowDirective>) {
    const NEEDLE: &str = "analyzer:allow(";
    let Some(pos) = comment.find(NEEDLE) else {
        return;
    };
    let rest = &comment[pos + NEEDLE.len()..];
    let Some(close) = rest.find(')') else {
        out.push(AllowDirective {
            lints: Vec::new(),
            line,
            col,
            has_reason: false,
        });
        return;
    };
    let lints: Vec<String> = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let trailer = &rest[close + 1..];
    let has_reason = trailer
        .split_once("--")
        .map(|(_, reason)| !reason.trim().is_empty())
        .unwrap_or(false);
    out.push(AllowDirective {
        lints,
        line,
        col,
        has_reason,
    });
}

/// Mark tokens inside `#[cfg(test)]` items (and `#[cfg(any(test, …))]`,
/// but *not* `#[cfg(not(test))]`) as test tokens.
///
/// The scan is purely structural: after a test-cfg attribute, any further
/// attributes are skipped, then the next item is consumed — up to a `;`
/// before any brace, or to the matching `}` of the first `{` otherwise.
fn mark_cfg_test(toks: &mut [Tok]) {
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test)) = attr_span(toks, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any stacked attributes after the cfg(test) one.
        let mut j = attr_end;
        while j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "#" {
            match attr_span(toks, j) {
                Some((end, _)) => j = end,
                None => break,
            }
        }
        // Consume the item the attribute applies to.
        let item_start = j;
        let mut depth = 0usize;
        let mut entered = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        depth += 1;
                        entered = true;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    ";" if !entered => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        for t in &mut toks[item_start..j] {
            t.test = true;
        }
        i = j;
    }
}

/// If `i` points at `#` opening an attribute, return (index past the closing
/// `]`, attribute-is-a-test-cfg). An unterminated attribute runs to the end
/// of the file, so a later `#` never rescans the same tail.
fn attr_span(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    let mut j = i + 1;
    // Inner attribute `#![…]`.
    if j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "!" {
        j += 1;
    }
    if !(j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "[") {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_not = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct if t.text == "[" => depth += 1,
            TokKind::Punct if t.text == "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some((j + 1, saw_cfg && saw_test && !saw_not));
                }
            }
            TokKind::Ident => match t.text.as_str() {
                "cfg" => saw_cfg = true,
                "test" => saw_test = true,
                "not" => saw_not = true,
                _ => {}
            },
            _ => {}
        }
        j += 1;
    }
    Some((toks.len(), false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_produce_no_tokens() {
        let src = "// Instant::now()\n/* HashMap /* nested */ still comment */ let x = 1;";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn strings_are_single_tokens() {
        let l = lex(r##"let s = "panic!(\"no\")"; let r = r#"..raw "quote".."#; "##);
        let strs: Vec<&Tok> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].text.contains("panic!"));
        assert!(strs[1].text.contains("raw \"quote\""));
        // The panic! inside the string never becomes an identifier.
        assert!(!l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "panic"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let l = lex(src);
        assert!(l.toks.iter().any(|t| t.text == "'lifetime"));
        assert!(l.toks.iter().any(|t| t.text == "'char'"));
        assert!(l.toks.iter().any(|t| t.text == "str"));
    }

    #[test]
    fn cfg_test_marks_the_whole_module() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn lib2() {}";
        let l = lex(src);
        let unwrap = l
            .toks
            .iter()
            .find(|t| t.text == "unwrap")
            .expect("unwrap token");
        assert!(unwrap.test);
        let lib2 = l
            .toks
            .iter()
            .find(|t| t.text == "lib2")
            .expect("lib2 token");
        assert!(!lib2.test);
    }

    #[test]
    fn cfg_not_test_is_library_code() {
        let src = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }";
        let l = lex(src);
        let unwrap = l
            .toks
            .iter()
            .find(|t| t.text == "unwrap")
            .expect("unwrap token");
        assert!(!unwrap.test);
    }

    #[test]
    fn cfg_test_on_statement_items() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}";
        let l = lex(src);
        let bar = l.toks.iter().find(|t| t.text == "bar").expect("bar token");
        assert!(bar.test);
        let lib = l.toks.iter().find(|t| t.text == "lib").expect("lib token");
        assert!(!lib.test);
    }

    #[test]
    fn allow_directives_parse() {
        let src = "// analyzer:allow(AO01, AO02) -- invariant holds\nx.unwrap();\n// analyzer:allow(AO01)\ny();";
        let l = lex(src);
        assert_eq!(l.allows.len(), 2);
        assert_eq!(l.allows[0].lints, vec!["AO01", "AO02"]);
        assert!(l.allows[0].has_reason);
        assert!(!l.allows[1].has_reason);
        assert_eq!((l.allows[1].line, l.allows[1].col), (3, 1));
    }

    #[test]
    fn doc_comments_never_act_as_escapes() {
        let src = "/// use `// analyzer:allow(AO01) -- why` to escape\n//! analyzer:allow(AO02) -- docs\nfn f() {}";
        let l = lex(src);
        assert!(l.allows.is_empty());
    }

    #[test]
    fn columns_are_one_based_char_offsets() {
        let src = "let x = now();\n    y.unwrap();\nlet s = \"lit\";";
        let l = lex(src);
        let now = l.toks.iter().find(|t| t.text == "now").expect("now");
        assert_eq!((now.line, now.col), (1, 9));
        let unwrap = l.toks.iter().find(|t| t.text == "unwrap").expect("unwrap");
        assert_eq!((unwrap.line, unwrap.col), (2, 7));
        let lit = l
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string");
        assert_eq!((lit.line, lit.col), (3, 9), "string col is the open quote");
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"a\nb\";\nlet t = 1;";
        let l = lex(src);
        let t = l.toks.iter().find(|t| t.text == "t").expect("t token");
        assert_eq!(t.line, 3);
    }
}
