//! A hand-rolled, lossless Rust lexer: the token layer every
//! `csim-analyze` pass stands on.
//!
//! The workspace builds with zero external crates, so the analysis
//! layer cannot lean on `syn` or `rustc_lexer`. This module provides
//! the next best thing: a token-level scan of Rust source that is
//!
//! * **lossless** — the token texts tile the input exactly, so
//!   concatenating them reproduces the file byte-for-byte (a property
//!   test fuzzes this on arbitrary input and checks it on every file in
//!   the workspace);
//! * **panic-free** — arbitrary bytes lex to *something*; malformed
//!   source yields unterminated literal/comment tokens, never an abort;
//! * **honest about the hard cases** — nested block comments
//!   (`/* /* */ */`), raw strings with any hash depth (`r##"…"##`),
//!   byte and raw-byte strings, raw identifiers (`r#type`), multi-byte
//!   character literals (`'é'`), and the char-literal/lifetime
//!   ambiguity (`'a'` vs `&'a str`) are all tokenized correctly. A
//!   line-oriented stripper that mis-lexes a multi-byte char literal
//!   silently corrupts everything after it on the line — a gate that
//!   can be blinded by a unicode literal is not a gate.
//!
//! On top of the lexer sits [`markers`], which extracts `// analyze:`
//! and `// lint:` directives (no kind of either is read by any pass)
//! from *comment tokens only*: prose or a string literal that spells
//! one is not a directive; a directive is only a directive when it is
//! actually a comment.

/// What a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Spaces, tabs, newlines.
    Ws,
    /// `// …` to end of line (newline excluded).
    LineComment,
    /// `/* … */`, nesting tracked; unterminated runs to EOF.
    BlockComment,
    /// `"…"` or `b"…"` with escapes; unterminated runs to EOF.
    Str,
    /// `r"…"`, `r#"…"#`, `br##"…"##`; unterminated runs to EOF.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`, `'é'`; unterminated stops at newline.
    CharLit,
    /// `'a` in `&'a str` (also loop labels).
    Lifetime,
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// Numeric literal, including suffixes (`1.5f64`, `0xFF`, `1e-3`).
    Num,
    /// Any other single character.
    Punct,
}

/// One token. `text` borrows from the lexed source; `start` is its byte
/// offset and `line` the 1-based line its first byte sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tok<'a> {
    /// Classification.
    pub kind: TokKind,
    /// Exact source slice (losslessness: slices tile the input).
    pub text: &'a str,
    /// Byte offset of `text` in the input.
    pub start: usize,
    /// 1-based line number of the token's first byte.
    pub line: usize,
}

#[inline]
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

#[inline]
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Scans past a raw-string body starting at the `r` (or the `b` of
/// `br`). Returns the end offset (just past the closing quote, or EOF
/// when unterminated), or `None` when this is not a raw string at all.
fn raw_string_end(b: &[u8], mut i: usize) -> Option<usize> {
    if b.get(i) == Some(&b'b') {
        i += 1;
    }
    if b.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut closing = 0usize;
            while closing < hashes && b.get(j) == Some(&b'#') {
                closing += 1;
                j += 1;
            }
            if closing == hashes {
                return Some(j);
            }
        }
        i += 1;
    }
    Some(b.len())
}

/// Scans past an escaped (non-raw) string body; `i` points just past
/// the opening quote. Returns the offset past the closing quote, or EOF.
fn str_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' if i + 1 < b.len() => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Lexes `src` into a lossless token stream: the `text` slices of the
/// returned tokens concatenate back to `src` exactly.
///
/// ```
/// use csim_analyze::lex::{lex, TokKind};
/// let toks = lex("let x = r#\"raw\"#; // done");
/// let rebuilt: String = toks.iter().map(|t| t.text).collect();
/// assert_eq!(rebuilt, "let x = r#\"raw\"#; // done");
/// assert!(toks.iter().any(|t| t.kind == TokKind::RawStr));
/// ```
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < b.len() {
        let start = i;
        let kind = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                TokKind::LineComment
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokKind::BlockComment
            }
            b' ' | b'\t' | b'\r' | b'\n' => {
                while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\r' | b'\n') {
                    i += 1;
                }
                TokKind::Ws
            }
            b'"' => {
                i = str_end(b, i + 1);
                TokKind::Str
            }
            b'\'' => {
                let (kind, end) = char_or_lifetime(src, i);
                i = end;
                kind
            }
            c if c.is_ascii_digit() => {
                i += 1;
                loop {
                    match b.get(i) {
                        Some(&c) if c.is_ascii_alphanumeric() || c == b'_' => i += 1,
                        // `.` continues a number only when a digit
                        // follows (`1.5`); `1.max(2)` keeps the dot as
                        // punctuation.
                        Some(&b'.') if b.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                            i += 1;
                        }
                        // Exponent sign: `1e+5` / `2.5E-3`.
                        Some(&(b'+' | b'-'))
                            if matches!(b.get(i.wrapping_sub(1)), Some(b'e' | b'E'))
                                && b.get(i + 1).is_some_and(u8::is_ascii_digit) =>
                        {
                            i += 1;
                        }
                        _ => break,
                    }
                }
                TokKind::Num
            }
            c if is_ident_start(c) => {
                i += 1;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let ident = &src[start..i];
                // Literal prefixes: the greedy ident scan has already
                // absorbed `r`, `b`, or `br`; if a string body follows,
                // extend the token into the literal. Anything longer
                // (`for_x"`) is an ordinary ident followed by a string.
                match ident {
                    "r" | "br" if b.get(i) == Some(&b'"') || b.get(i) == Some(&b'#') => {
                        if let Some(end) = raw_string_end(b, start) {
                            i = end;
                            TokKind::RawStr
                        } else if ident == "r"
                            && b.get(i) == Some(&b'#')
                            && b.get(i + 1).copied().is_some_and(is_ident_start)
                        {
                            // Raw identifier `r#type`.
                            i += 2;
                            while i < b.len() && is_ident_continue(b[i]) {
                                i += 1;
                            }
                            TokKind::Ident
                        } else {
                            TokKind::Ident
                        }
                    }
                    "b" if b.get(i) == Some(&b'"') => {
                        i = str_end(b, i + 1);
                        TokKind::Str
                    }
                    "b" if b.get(i) == Some(&b'\'') => {
                        let (_, end) = char_or_lifetime(src, i);
                        i = end;
                        TokKind::CharLit
                    }
                    _ => TokKind::Ident,
                }
            }
            _ => {
                // One Punct per character; >= 0x80 starters were claimed
                // by the ident arm, so this advances exactly one byte of
                // ASCII and never splits a UTF-8 sequence.
                i += 1;
                TokKind::Punct
            }
        };
        let text = &src[start..i];
        toks.push(Tok { kind, text, start, line });
        line += text.bytes().filter(|&c| c == b'\n').count();
    }
    toks
}

/// Disambiguates `'…` at offset `i` (which holds the `'`): char literal
/// vs lifetime vs lone quote. Returns the kind and the end offset.
fn char_or_lifetime(src: &str, i: usize) -> (TokKind, usize) {
    let b = src.as_bytes();
    let rest = &src[i + 1..];
    let mut chars = rest.chars();
    match chars.next() {
        None => (TokKind::Punct, i + 1),
        // Escaped char literal: scan to the closing quote, but never
        // across a newline (char literals cannot contain raw newlines;
        // stopping keeps a stray quote from swallowing the file).
        Some('\\') => {
            let mut j = i + 1;
            while j < b.len() {
                match b[j] {
                    b'\\' if j + 1 < b.len() && b[j + 1] != b'\n' => j += 2,
                    b'\'' => return (TokKind::CharLit, j + 1),
                    b'\n' => break,
                    _ => j += 1,
                }
            }
            (TokKind::CharLit, j)
        }
        Some(c) => {
            let after = chars.next();
            if c != '\'' && after == Some('\'') {
                // 'x' or 'é' — one char (of any width), then a quote.
                (TokKind::CharLit, i + 1 + c.len_utf8() + 1)
            } else if is_ident_start(c as u8) || !c.is_ascii() {
                // Lifetime or loop label: consume the ident.
                let mut j = i + 1 + c.len_utf8();
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                (TokKind::Lifetime, j)
            } else {
                (TokKind::Punct, i + 1)
            }
        }
    }
}

/// An `// analyze:` or `// lint:` directive extracted from a comment,
/// plus the 1-based line it sits on. No such directive has a kind any
/// pass reads: the former `total` contracts and `lint:`
/// escapes are reasoned `#[expect(clippy::..)]` attributes now, so the
/// escape pass reports every directive rather than let a retired or
/// misspelt one read as a claim that nothing checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Marker {
    /// Line of the directive.
    pub line: usize,
    /// The prefix and the first word after it, as written
    /// (`analyze: pure`, `lint: allow(no-panic)`, or a bare prefix).
    pub directive: String,
}

/// Extracts analysis directives from `source`. Only comment tokens are
/// considered, and the directive must open the comment (after `//`,
/// `/*`, doc markers, and whitespace) — prose that merely *mentions*
/// the syntax, or a string literal containing it, is not a directive.
pub fn markers(source: &str) -> Vec<Marker> {
    let mut out = Vec::new();
    for tok in lex(source) {
        if !matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let body = tok
            .text
            .trim_start_matches(['/', '*', '!'])
            .trim_start()
            .trim_end_matches(['*', '/'])
            .trim_end();
        let (prefix, rest) = if let Some(rest) = body.strip_prefix("analyze:") {
            ("analyze:", rest)
        } else if let Some(rest) = body.strip_prefix("lint:") {
            ("lint:", rest)
        } else {
            continue;
        };
        let word = rest.split_whitespace().next().unwrap_or("");
        let directive = format!("{prefix} {word}").trim_end().to_string();
        out.push(Marker { line: tok.line, directive });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rebuild(src: &str) -> String {
        lex(src).iter().map(|t| t.text).collect()
    }

    #[test]
    fn lex_is_lossless_on_tricky_input() {
        for src in [
            "fn main() { let x = 1; }",
            "/* nested /* deep /* deeper */ */ */ code",
            "let r = r##\"a \"# b\"##; tail",
            "let b = br#\"bytes\"#; let s = b\"esc\\\"aped\";",
            "let c = '\\''; let l: &'a str = x; let label = 'outer: loop {};",
            "let uni = 'é'; let mix = ['é', 'x'];",
            "let f = 1.5e-3f64; let h = 0xFF_u8; let m = 1.max(2);",
            "let raw_id = r#type; // trailing comment",
            "unterminated /* block",
            "unterminated \"string",
            "let q = '",
            "",
        ] {
            assert_eq!(rebuild(src), src, "lossless round-trip failed");
        }
    }

    #[test]
    fn nested_block_comments_lex_as_one_token() {
        let toks = lex("/* a /* b */ c */ x");
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert_eq!(toks[0].text, "/* a /* b */ c */");
        assert!(toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "x"));
    }

    #[test]
    fn raw_strings_and_raw_idents_disambiguate() {
        let toks = lex("r#\"panic!\"# r#match rx\"s\"");
        assert_eq!(toks[0].kind, TokKind::RawStr);
        assert_eq!(toks[2].kind, TokKind::Ident);
        assert_eq!(toks[2].text, "r#match");
        // `rx` is a plain ident; the quote after it opens a normal string.
        assert_eq!(toks[4].kind, TokKind::Ident);
        assert_eq!(toks[5].kind, TokKind::Str);
    }

    #[test]
    fn multibyte_char_literals_do_not_corrupt_the_tail() {
        // A line-oriented stripper treats the closing quote of 'é' as a
        // fresh char-literal opener and swallows real code after it.
        let toks = lex("let v = ['é', 'x']; y.unwrap()");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::CharLit).count(), 2);
        assert!(
            toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "unwrap"),
            "code after a unicode char must survive: {toks:?}"
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 3);
        assert!(toks.iter().all(|t| t.kind != TokKind::CharLit));
    }

    #[test]
    fn markers_come_only_from_comments() {
        let src = "\
// lint: allow(no-panic) — a retired escape, now a directive of no known kind
let s = \"// lint: allow(no-panic) — fake, inside a string\";
fn probe(v: &[u8]) -> u8 {
    // analyze: exact — a retired marker
    v.first().copied().unwrap_or(0)
}
";
        let m = markers(src);
        let found: Vec<(usize, &str)> = m.iter().map(|m| (m.line, m.directive.as_str())).collect();
        assert_eq!(found, [(1, "lint: allow(no-panic)"), (4, "analyze: exact")]);
    }

    #[test]
    fn directives_keep_their_prefix_and_first_word() {
        let src = "// analyze: pure — no such kind\n// analyze:\n// analyze: hotter\n\
                   // analyze: exact — retired\n// analyze: exact\n\
                   // analyze: hot\n// analyze: cold — retired\n\
                   // lint: allow(no-panic) — retired\n// lint: total — not a lint\n";
        let directives: Vec<String> = markers(src).into_iter().map(|m| m.directive).collect();
        assert_eq!(
            directives,
            [
                "analyze: pure",
                "analyze:",
                "analyze: hotter",
                "analyze: exact",
                "analyze: exact",
                "analyze: hot",
                "analyze: cold",
                "lint: allow(no-panic)",
                "lint: total",
            ]
        );
    }

    #[test]
    fn prose_mentioning_directives_is_not_a_directive() {
        let src = "/// Use `// lint: allow(no-panic) — reason` to escape, or mark\n/// a site with `// analyze: exact` markers.\nfn f() {}\n";
        assert!(markers(src).is_empty(), "doc prose must not create markers");
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "let r = r#\"line1\nline2\"#;\n// analyze: exact — why\nfn g() {}\n";
        let m = markers(src);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].line, 3);
        let toks = lex(src);
        let g = toks.iter().find(|t| t.text == "g").unwrap();
        assert_eq!(g.line, 4);
    }

    #[test]
    fn unterminated_char_stops_at_newline() {
        let src = "let q = '\\\nlet next = 1;";
        let toks = lex(src);
        assert!(
            toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "next"),
            "an unterminated char literal must not swallow the next line: {toks:?}"
        );
    }

    #[test]
    fn numbers_with_suffixes_and_exponents_are_single_tokens() {
        for (src, text) in [
            ("1.5e-3f64;", "1.5e-3f64"),
            ("0xFF_u8;", "0xFF_u8"),
            ("1_000_000;", "1_000_000"),
            ("2.5E+7;", "2.5E+7"),
        ] {
            let toks = lex(src);
            assert_eq!(toks[0].kind, TokKind::Num, "{src}");
            assert_eq!(toks[0].text, text, "{src}");
        }
        // `1.max(2)` keeps the dot out of the number.
        let toks = lex("1.max(2)");
        assert_eq!(toks[0].text, "1");
        assert_eq!(toks[1].text, ".");
    }
}
