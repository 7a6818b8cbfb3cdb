//! A lightweight, comment- and string-aware tokenizer for Rust source.
//!
//! This is intentionally **not** a full Rust lexer (no `syn` — the workspace
//! only sanctions `rand`/`proptest`/`criterion` as external deps).
//! It produces just enough structure for the audit rules:
//!
//! - identifiers / keywords, with line numbers;
//! - numeric literals (so `1.5` and `0..n` lex apart);
//! - one- and two-character punctuation (`==`, `!=`, `::`, …);
//! - comments and string/char literals are consumed, never tokenized —
//!   except that `// audit:allow(<rule>)` and `// audit:hot` markers are
//!   extracted so rules can honor inline suppressions and hot functions.
//!   A marker starts a line of a plain comment: doc comments and quoted
//!   mentions in prose (`` `audit:hot` ``) are not markers.
//!
//! Raw strings (`r"…"`, `r#"…"#`), nested block comments, char literals
//! (including `'\''`), and lifetimes (`'a`, which must *not* open a char
//! literal) are all handled; those are exactly the constructs that break
//! naive regex-based scanners.

/// One lexical token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (`3`, `0x1F`, `1e-9`, `2.5f64`).
    Number,
    /// Punctuation, one or two characters (`==`, `!=`, `::`, `(`, `.`).
    Punct,
}

/// An inline suppression marker, `// audit:allow(rule-name)` (also accepted
/// in block comments). It covers the statement it sits on, or the statement
/// that starts on the line below it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub rule: String,
    pub line: usize,
    /// Index of the first token after the comment.
    pub next_tok: usize,
}

/// An `// audit:hot` marker: the `fn` item that starts at `next_tok`, past
/// its attributes and doc comments, is under the transitive allocation-free
/// contract (`hot-alloc` rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotMarker {
    pub line: usize,
    /// Index of the first token after the comment.
    pub next_tok: usize,
}

/// Tokenizer output: the token stream plus the markers found in comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
    pub hot_markers: Vec<HotMarker>,
}

const ALLOW_MARKER: &str = "audit:allow(";
const HOT_MARKER: &str = "audit:hot";

/// Tokenize Rust source. Never fails: unrecognized bytes are skipped, so the
/// audit degrades gracefully on exotic code instead of crashing the gate.
pub fn tokenize(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                scan_markers(&src[start..i], line, &mut out);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let (end, endline) = skip_block_comment(bytes, i, line);
                scan_markers(&src[i..end], line, &mut out);
                i = end;
                line = endline;
            }
            b'"' => {
                let (end, endline) = skip_string(bytes, i + 1, line);
                i = end;
                line = endline;
            }
            b'r' if is_raw_string_start(bytes, i) => {
                let (end, endline) = skip_raw_string(bytes, i + 1, line);
                i = end;
                line = endline;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                let (end, endline) = skip_string(bytes, i + 2, line);
                i = end;
                line = endline;
            }
            // Byte raw strings `br"…"` / `br#"…"#`: without this arm the `b`
            // and `r` lex as an identifier and the body is scanned as a
            // *regular* string, so an inner `"` desynchronizes the stream.
            b'b' if bytes.get(i + 1) == Some(&b'r')
                && matches!(bytes.get(i + 2), Some(&b'"') | Some(&b'#')) =>
            {
                let (end, endline) = skip_raw_string(bytes, i + 2, line);
                i = end;
                line = endline;
            }
            b'\'' => {
                // Distinguish a char literal from a lifetime: a lifetime is
                // `'ident` NOT followed by a closing quote.
                if let Some((end, endline)) = try_skip_char_literal(bytes, i, line) {
                    i = end;
                    line = endline;
                } else {
                    // Lifetime tick: emit nothing, skip the quote.
                    i += 1;
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let end = scan_number(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ if c.is_ascii_whitespace() => {
                i += 1;
            }
            _ => {
                // Punctuation: greedily form the two-char operators the rules
                // care about; everything else is a single char.
                let two = src.get(i..i + 2).unwrap_or("");
                let text = if matches!(
                    two,
                    "==" | "!=" | "<=" | ">=" | "::" | "->" | "=>" | "&&" | "||" | ".." | "<<" | ">>"
                ) {
                    i += 2;
                    two.to_string()
                } else {
                    let ch = src[i..].chars().next().unwrap_or('\u{FFFD}');
                    i += ch.len_utf8();
                    ch.to_string()
                };
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    out
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"` or `r#`— only when `r` is not part of a longer identifier.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#'))
}

fn skip_block_comment(bytes: &[u8], start: usize, mut line: usize) -> (usize, usize) {
    let mut depth = 0usize;
    let mut i = start;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            i += 1;
        } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return (i, line);
            }
        } else {
            i += 1;
        }
    }
    (i, line)
}

fn skip_string(bytes: &[u8], mut i: usize, mut line: usize) -> (usize, usize) {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // An escaped newline (string continuation) still ends a
                // source line; skipping it blindly desynchronizes every
                // later line number.
                if bytes.get(i + 1) == Some(&b'\n') {
                    line += 1;
                }
                i += 2;
            }
            b'"' => return (i + 1, line),
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, line)
}

fn skip_raw_string(bytes: &[u8], mut i: usize, mut line: usize) -> (usize, usize) {
    let mut hashes = 0usize;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        // Not actually a raw string (`r#ident` raw identifier); let the main
        // loop re-scan from here.
        return (i, line);
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            i += 1;
        } else if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return (j, line);
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    (i, line)
}

fn try_skip_char_literal(bytes: &[u8], i: usize, line: usize) -> Option<(usize, usize)> {
    // i points at the opening quote.
    let mut j = i + 1;
    if j >= bytes.len() {
        return None;
    }
    if bytes[j] == b'\\' {
        j += 2; // escape + escaped char ('\n', '\'', '\\', '\u{..}' start)
        if bytes.get(j - 1) == Some(&b'u') && bytes.get(j) == Some(&b'{') {
            while j < bytes.len() && bytes[j] != b'}' {
                j += 1;
            }
            j += 1;
        }
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return Some((j + 1, line));
    }
    // Unescaped: a char literal closes after exactly one (possibly multibyte)
    // character. A lifetime has an identifier char NOT followed by a quote.
    let ch_len = utf8_len(bytes[j]);
    if bytes.get(j + ch_len) == Some(&b'\'') {
        Some((j + ch_len + 1, line))
    } else {
        None
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
}

/// End of the numeric literal starting at `start`.
fn scan_number(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(&b'x') | Some(&b'o') | Some(&b'b')) {
        i += 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return i;
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    // Fractional part: a `.` followed by a digit (NOT `..` or a method call).
    if i < bytes.len()
        && bytes[i] == b'.'
        && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
    {
        i += 1;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
            i += 1;
        }
    } else if i < bytes.len()
        && bytes[i] == b'.'
        && !matches!(bytes.get(i + 1), Some(b) if b.is_ascii_alphabetic() || *b == b'.' || *b == b'_')
    {
        // Trailing-dot float like `1.`
        i += 1;
    }
    // Exponent.
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(&b'+') | Some(&b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(|b| b.is_ascii_digit()) {
            i = j;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    // Suffix (`f64`, `u32`, …).
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    i
}

/// Record the markers of one comment, each at the line it physically sits
/// on. Doc comments describe markers without being any; in a plain comment a
/// marker must open a line of the comment text.
fn scan_markers(comment: &str, start_line: usize, out: &mut Lexed) {
    let doc = (comment.starts_with("///") && !comment.starts_with("////"))
        || comment.starts_with("//!")
        || (comment.starts_with("/**") && !comment.starts_with("/***") && comment != "/**/")
        || comment.starts_with("/*!");
    if doc {
        return;
    }
    let next_tok = out.tokens.len();
    for (off, text) in comment.lines().enumerate() {
        let text = text
            .trim_start()
            .trim_start_matches(['/', '*'])
            .trim_start();
        let line = start_line + off;
        if let Some(tail) = text.strip_prefix(ALLOW_MARKER) {
            let rule = tail.find(')').map_or("", |close| tail[..close].trim());
            if !rule.is_empty() {
                out.suppressions.push(Suppression {
                    rule: rule.to_string(),
                    line,
                    next_tok,
                });
            }
        } else if let Some(tail) = text.strip_prefix(HOT_MARKER) {
            // Word boundary on the right so `audit:hotfix` is not a marker.
            if !tail.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                out.hot_markers.push(HotMarker { line, next_tok });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn numeric_literals_lex_whole() {
        let toks = kinds("let x = 0.0; let y = 1e-9; let z = 3f64; let n = 42; let h = 0xFF;");
        let numbers: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(numbers, vec!["0.0", "1e-9", "3f64", "42", "0xFF"]);
    }

    #[test]
    fn range_is_not_a_float() {
        let toks = kinds("for i in 0..10 {}");
        assert!(toks.contains(&(TokenKind::Number, "0".into())));
        assert!(toks.contains(&(TokenKind::Punct, "..".into())));
        assert!(toks.contains(&(TokenKind::Number, "10".into())));
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = r##"
            // x == 0.0 in a line comment
            /* unwrap() in /* a nested */ block */
            let s = "panic!(\"no\") == 0.0";
            let r = r#"unwrap() "quoted" == 0.0"#;
        "##;
        let lexed = tokenize(src);
        assert!(!lexed.tokens.iter().any(|t| t.text == "unwrap"));
        assert!(!lexed.tokens.iter().any(|t| t.text == "=="));
        assert!(!lexed.tokens.iter().any(|t| t.text == "panic"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { let q = '\\''; let c = 'x'; q.max(c) }";
        let lexed = tokenize(src);
        assert!(lexed.tokens.iter().any(|t| t.text == "max"));
        // The identifier `a` from the lifetime is tokenized; the quote is not
        // treated as an unterminated char literal (which would swallow code).
        assert!(lexed.tokens.iter().any(|t| t.text == "str"));
    }

    #[test]
    fn allow_markers_extracted_with_lines() {
        let src = "let a = 1;\nx == 0.0; // audit:allow(arch)\n/* audit:allow(hot-alloc) */\nb();\n";
        let lexed = tokenize(src);
        assert_eq!(
            lexed.suppressions,
            vec![
                Suppression { rule: "arch".into(), line: 2, next_tok: 9 },
                Suppression { rule: "hot-alloc".into(), line: 3, next_tok: 9 },
            ]
        );
    }

    #[test]
    fn hot_markers_extracted_with_lines() {
        let src = "// audit:hot\nfn f() {}\n/* audit:hot */\nfn g() {}\n// audit:hotfix note\n";
        let lexed = tokenize(src);
        // The `audit:hotfix` comment is prose, not a marker.
        assert_eq!(
            lexed.hot_markers,
            vec![
                HotMarker { line: 1, next_tok: 0 },
                HotMarker { line: 3, next_tok: 6 },
            ]
        );
    }

    #[test]
    fn doc_comments_and_quoted_mentions_are_not_markers() {
        let src = "/// Put `// audit:hot` above a kernel.\n\
                   //! audit:allow(hot-alloc)\n\
                   /** audit:hot */\n\
                   // the kernel is `audit:hot` and says audit:allow(hot-alloc)\n\
                   fn f() {}\n\
                   /* first line\n * audit:hot\n */\n\
                   //// audit:allow(hot-alloc)\n";
        let lexed = tokenize(src);
        assert_eq!(lexed.hot_markers, vec![HotMarker { line: 7, next_tok: 6 }]);
        assert_eq!(
            lexed.suppressions,
            vec![Suppression { rule: "hot-alloc".into(), line: 9, next_tok: 6 }]
        );
    }

    #[test]
    fn nested_block_comments_do_not_desync() {
        // Depth-tracked `/* /* */ */`: the inner close must not terminate the
        // outer comment, or `still_hidden` would leak into the stream.
        let src = "/* outer /* inner */ still_hidden == 0.0 */ visible();";
        let lexed = tokenize(src);
        assert!(!lexed.tokens.iter().any(|t| t.text == "still_hidden"));
        assert!(!lexed.tokens.iter().any(|t| t.text == "=="));
        assert!(lexed.tokens.iter().any(|t| t.text == "visible"));
        // Two nesting levels, with code following on a later line.
        let src2 = "/* a /* b /* c */ d */ e */\nafter();";
        let lexed2 = tokenize(src2);
        let after = lexed2.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 2);
    }

    #[test]
    fn raw_strings_with_hashes_do_not_desync() {
        // `"#` inside an `r##"…"##` body is not a terminator; only the full
        // `"##` is. A desync here would tokenize the tail of the literal.
        let src = r####"let s = r##"inner "# quote unwrap() "##; tail();"####;
        let lexed = tokenize(src);
        assert!(!lexed.tokens.iter().any(|t| t.text == "unwrap"));
        assert!(!lexed.tokens.iter().any(|t| t.text == "inner"));
        assert!(lexed.tokens.iter().any(|t| t.text == "tail"));
    }

    #[test]
    fn byte_raw_strings_do_not_desync() {
        // `br#"…"#` bodies may contain bare quotes; scanning them as a
        // regular string would end at the first inner `"`.
        let src = r###"let b = br#"say "hi" == 0.0"#; ok();"###;
        let lexed = tokenize(src);
        assert!(!lexed.tokens.iter().any(|t| t.text == "hi"));
        assert!(!lexed.tokens.iter().any(|t| t.text == "=="));
        assert!(lexed.tokens.iter().any(|t| t.text == "ok"));
        // Identifiers starting with `br` are still plain identifiers.
        let lexed2 = tokenize("let bridge = 1;");
        assert!(lexed2.tokens.iter().any(|t| t.text == "bridge"));
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_numbers() {
        let src = "let s = \"a\\\nb\";\nmarker();";
        let lexed = tokenize(src);
        let m = lexed.tokens.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(m.line, 3);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let s = \"line1\nline2\";\nlet t /* c\nc */ = 5;\nbad();";
        let lexed = tokenize(src);
        let bad = lexed.tokens.iter().find(|t| t.text == "bad").unwrap();
        assert_eq!(bad.line, 5);
    }
}
