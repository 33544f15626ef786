//! A dependency-free JSON document builder and validity checker.
//!
//! The workspace builds hermetically (no external crates), so this
//! module hand-rolls the two halves machine-readable reports need:
//!
//! * [`Json`] — an ordered document tree with a deterministic writer:
//!   object keys keep insertion order and numbers are formatted with
//!   Rust's shortest-round-trip `Display`, so identical inputs always
//!   produce byte-identical output (the export-determinism tests rely
//!   on this).
//! * [`parse`] — the one reader: a tree-building recursive-descent
//!   parser. For writer-canonical input (no whitespace, no exponent
//!   notation, shortest-round-trip floats, minimal escapes) the
//!   round-trip `parse(s)?.to_string() == s` holds byte-for-byte — the
//!   property the sweep shard-merge and checkpoint-resume paths rely
//!   on to reassemble reports that are indistinguishable from an
//!   uninterrupted single-process run. [`validate`] / [`validate_jsonl`]
//!   are the well-formedness checks the CI smoke run and the export
//!   tests use; they accept exactly what [`parse`] accepts.

/// An ordered JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, latencies).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values serialize as `null` (JSON has no
    /// NaN/Infinity).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs (convenience constructor).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Appends a key/value pair to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            #[expect(
                clippy::panic,
                reason = "documented builder-misuse panic; a non-object receiver is a bug in the exporter itself"
            )]
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Looks up `key` in an object. `None` for missing keys and for
    /// non-object receivers, so lookups chain without panicking.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned-integer payload, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // Rust's Display is shortest-round-trip and prints
                    // integral floats without a fraction ("2"), which is
                    // still a valid JSON number.
                    out.push_str(&f.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes compactly (no whitespace), deterministically; this is
/// what `Json::to_string()` produces.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Why a document failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth the parser accepts (guards its own stack).
const MAX_DEPTH: usize = 128;

/// Checks that `text` is exactly one well-formed JSON value (plus
/// surrounding whitespace): [`parse`] without keeping the tree.
///
/// # Errors
///
/// A [`JsonError`] locating the first problem.
///
/// ```
/// use csim_obs::json::validate;
/// assert!(validate(r#"{"a":[1,2.5,null],"b":"x\n"}"#).is_ok());
/// assert!(validate("{\"a\":}").is_err());
/// ```
pub fn validate(text: &str) -> Result<(), JsonError> {
    parse(text).map(|_| ())
}

/// Checks that every non-empty line of `text` is a well-formed JSON
/// value (the JSONL trace format).
///
/// # Errors
///
/// The first offending line's error, with the line number prepended.
pub fn validate_jsonl(text: &str) -> Result<(), JsonError> {
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate(line).map_err(|e| JsonError {
            at: e.at,
            message: format!("line {}: {}", i + 1, e.message),
        })?;
    }
    Ok(())
}

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError { at, message: message.into() }
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while matches!(b.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

fn literal(b: &[u8], pos: usize, lit: &str) -> Result<usize, JsonError> {
    if b.get(pos..).is_some_and(|rest| rest.starts_with(lit.as_bytes())) {
        Ok(pos + lit.len())
    } else {
        Err(err(pos, format!("expected '{lit}'")))
    }
}

fn number(b: &[u8], pos: usize) -> Result<usize, JsonError> {
    let start = pos;
    let mut pos = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let int_start = pos;
    while b.get(pos).is_some_and(u8::is_ascii_digit) {
        pos += 1;
    }
    if pos == int_start {
        return Err(err(start, "malformed number"));
    }
    // No leading zeros (except "0" itself).
    if b.get(int_start) == Some(&b'0') && pos - int_start > 1 {
        return Err(err(start, "leading zero in number"));
    }
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        let frac_start = pos;
        while b.get(pos).is_some_and(u8::is_ascii_digit) {
            pos += 1;
        }
        if pos == frac_start {
            return Err(err(start, "missing digits after decimal point"));
        }
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        let exp_start = pos;
        while b.get(pos).is_some_and(u8::is_ascii_digit) {
            pos += 1;
        }
        if pos == exp_start {
            return Err(err(start, "missing exponent digits"));
        }
    }
    Ok(pos)
}

/// Parses `text` into a [`Json`] tree.
///
/// Accepts standard JSON. For documents produced by this module's
/// writer the parse is byte-faithful: `parse(s)?.to_string() == s`
/// (numbers are classified back into the writer's `UInt`/`Int`/`Float`
/// forms and strings re-escape identically). Foreign documents parse
/// too, but may re-serialize with different (canonical) bytes.
///
/// # Errors
///
/// A [`JsonError`] locating the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let b = text.as_bytes();
    let pos = skip_ws(b, 0);
    let (doc, pos) = parse_value(b, pos, 0)?;
    let pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(err(pos, "trailing characters after the document"));
    }
    Ok(doc)
}

fn parse_value(b: &[u8], pos: usize, depth: usize) -> Result<(Json, usize), JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(pos, "nesting too deep"));
    }
    match b.get(pos) {
        None => Err(err(pos, "expected a value, found end of input")),
        Some(b'{') => {
            let mut pairs = Vec::new();
            let mut pos = skip_ws(b, pos + 1);
            if b.get(pos) == Some(&b'}') {
                return Ok((Json::Obj(pairs), pos + 1));
            }
            loop {
                if b.get(pos) != Some(&b'"') {
                    return Err(err(pos, "expected an object key string"));
                }
                let (key, after_key) = parse_string(b, pos)?;
                pos = skip_ws(b, after_key);
                if b.get(pos) != Some(&b':') {
                    return Err(err(pos, "expected ':' after object key"));
                }
                let (val, after_val) = parse_value(b, skip_ws(b, pos + 1), depth + 1)?;
                pairs.push((key, val));
                pos = skip_ws(b, after_val);
                match b.get(pos) {
                    Some(b',') => pos = skip_ws(b, pos + 1),
                    Some(b'}') => return Ok((Json::Obj(pairs), pos + 1)),
                    _ => return Err(err(pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(b'[') => {
            let mut items = Vec::new();
            let mut pos = skip_ws(b, pos + 1);
            if b.get(pos) == Some(&b']') {
                return Ok((Json::Arr(items), pos + 1));
            }
            loop {
                let (val, after) = parse_value(b, pos, depth + 1)?;
                items.push(val);
                pos = skip_ws(b, after);
                match b.get(pos) {
                    Some(b',') => pos = skip_ws(b, pos + 1),
                    Some(b']') => return Ok((Json::Arr(items), pos + 1)),
                    _ => return Err(err(pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'"') => {
            let (s, after) = parse_string(b, pos)?;
            Ok((Json::Str(s), after))
        }
        Some(b't') => Ok((Json::Bool(true), literal(b, pos, "true")?)),
        Some(b'f') => Ok((Json::Bool(false), literal(b, pos, "false")?)),
        Some(b'n') => Ok((Json::Null, literal(b, pos, "null")?)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let after = number(b, pos)?;
            // The number grammar only admits ASCII, so the slice is
            // valid UTF-8 by construction.
            let raw = b
                .get(pos..after)
                .and_then(|raw| std::str::from_utf8(raw).ok())
                .ok_or_else(|| err(pos, "malformed number"))?;
            Ok((classify_number(raw, pos)?, after))
        }
        Some(c) => Err(err(pos, format!("unexpected byte 0x{c:02x}"))),
    }
}

/// Maps a validated number token back onto the writer's variants:
/// plain non-negative integers are `UInt`, plain negative integers are
/// `Int`, anything fractional/exponential (or integral but too large)
/// is `Float` — exactly the classification the writer serializes from,
/// so writer output round-trips through the same variant.
fn classify_number(raw: &str, pos: usize) -> Result<Json, JsonError> {
    let plain_integer = !raw.contains(['.', 'e', 'E']);
    if plain_integer {
        if raw.starts_with('-') {
            if let Ok(i) = raw.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        } else if let Ok(u) = raw.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    raw.parse::<f64>().map(Json::Float).map_err(|_| err(pos, "malformed number"))
}

/// Decodes a string token starting at the opening quote, returning the
/// unescaped payload and the position after the closing quote.
fn parse_string(b: &[u8], pos: usize) -> Result<(String, usize), JsonError> {
    debug_assert_eq!(b.get(pos), Some(&b'"'));
    let mut out = Vec::new();
    let mut pos = pos + 1;
    loop {
        match b.get(pos) {
            None => return Err(err(pos, "unterminated string")),
            Some(b'"') => {
                let s =
                    String::from_utf8(out).map_err(|_| err(pos, "string is not valid UTF-8"))?;
                return Ok((s, pos + 1));
            }
            Some(b'\\') => match b.get(pos + 1) {
                Some(b'"') => {
                    out.push(b'"');
                    pos += 2;
                }
                Some(b'\\') => {
                    out.push(b'\\');
                    pos += 2;
                }
                Some(b'/') => {
                    out.push(b'/');
                    pos += 2;
                }
                Some(b'b') => {
                    out.push(0x08);
                    pos += 2;
                }
                Some(b'f') => {
                    out.push(0x0C);
                    pos += 2;
                }
                Some(b'n') => {
                    out.push(b'\n');
                    pos += 2;
                }
                Some(b'r') => {
                    out.push(b'\r');
                    pos += 2;
                }
                Some(b't') => {
                    out.push(b'\t');
                    pos += 2;
                }
                Some(b'u') => {
                    let (c, after) = parse_unicode_escape(b, pos)?;
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    pos = after;
                }
                _ => return Err(err(pos, "bad escape sequence")),
            },
            Some(&c) if c < 0x20 => return Err(err(pos, "raw control character in string")),
            Some(&c) => {
                out.push(c);
                pos += 1;
            }
        }
    }
}

/// Decodes `\uXXXX` at `pos` (pointing at the backslash), combining a
/// trailing low surrogate when the unit is a high surrogate.
fn parse_unicode_escape(b: &[u8], pos: usize) -> Result<(char, usize), JsonError> {
    let unit = hex4(b, pos + 2).ok_or_else(|| err(pos, "truncated \\u escape"))?;
    if (0xD800..0xDC00).contains(&unit) {
        if b.get(pos + 6) != Some(&b'\\') || b.get(pos + 7) != Some(&b'u') {
            return Err(err(pos, "lone high surrogate"));
        }
        let low = hex4(b, pos + 8).ok_or_else(|| err(pos, "truncated \\u escape"))?;
        if !(0xDC00..0xE000).contains(&low) {
            return Err(err(pos, "invalid low surrogate"));
        }
        let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
        let c = char::from_u32(scalar).ok_or_else(|| err(pos, "bad \\u escape"))?;
        return Ok((c, pos + 12));
    }
    if (0xDC00..0xE000).contains(&unit) {
        return Err(err(pos, "lone low surrogate"));
    }
    let c = char::from_u32(unit).ok_or_else(|| err(pos, "bad \\u escape"))?;
    Ok((c, pos + 6))
}

fn hex4(b: &[u8], pos: usize) -> Option<u32> {
    let hex = b.get(pos..pos + 4)?;
    let mut v = 0u32;
    for &d in hex {
        v = (v << 4) | (d as char).to_digit(16)?;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_validates() {
        let doc = Json::obj([
            ("name", Json::str("csim")),
            ("count", Json::UInt(42)),
            ("neg", Json::Int(-7)),
            ("pi", Json::Float(3.25)),
            ("nan", Json::Float(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::UInt(1), Json::str("x\"y\n")])),
            ("nested", Json::obj([("k", Json::Arr(vec![]))])),
        ]);
        let s = doc.to_string();
        validate(&s).unwrap();
        assert!(s.contains("\"nan\":null"));
        assert!(s.contains("\"pi\":3.25"));
        assert!(s.contains("\"x\\\"y\\n\""));
    }

    #[test]
    fn writer_is_deterministic_and_order_preserving() {
        let mk = || Json::obj([("b", Json::UInt(1)), ("a", Json::UInt(2))]);
        assert_eq!(mk().to_string(), "{\"b\":1,\"a\":2}");
        assert_eq!(mk().to_string(), mk().to_string());
    }

    #[test]
    fn integral_floats_are_valid_json() {
        let s = Json::Float(2.0).to_string();
        assert_eq!(s, "2");
        validate(&s).unwrap();
    }

    #[test]
    fn control_characters_are_escaped() {
        let s = Json::str("a\u{1}b").to_string();
        assert_eq!(s, "\"a\\u0001b\"");
        validate(&s).unwrap();
    }

    /// Standard documents the reader must accept.
    const ACCEPT: [&str; 8] = [
        "null",
        "true",
        "-12.5e+3",
        "0",
        "[]",
        "{}",
        "  [1, 2, {\"a\": [null]}]  ",
        "\"\\u00e9\\t\"",
    ];

    /// Malformed documents the reader must reject.
    const REJECT: [&str; 18] = [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{a:1}",
        "01",
        "1.",
        "1e",
        "\"unterminated",
        "\"bad\\q\"",
        "\"\\u12g4\"",
        "nulL",
        "[1] extra",
        "\"raw\u{1}\"",
        "\"\\ud800\"",
        "\"\\udc00\"",
        "\"\\ud83dA\"",
    ];

    #[test]
    fn validator_accepts_standard_documents() {
        for doc in ACCEPT {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for doc in REJECT {
            assert!(validate(doc).is_err(), "accepted: {doc:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let deep = format!("{}1{}", "[".repeat(500), "]".repeat(500));
        let e = validate(&deep).unwrap_err();
        assert!(e.message.contains("deep"));
    }

    #[test]
    fn jsonl_checks_each_line() {
        validate_jsonl("{\"a\":1}\n{\"b\":2}\n\n").unwrap();
        let e = validate_jsonl("{\"a\":1}\n{oops}\n").unwrap_err();
        assert!(e.message.contains("line 2"));
    }

    #[test]
    fn push_extends_objects() {
        let mut o = Json::obj([("a", Json::UInt(1))]);
        o.push("b", Json::UInt(2));
        assert_eq!(o.to_string(), "{\"a\":1,\"b\":2}");
    }

    #[test]
    fn accessors_navigate_without_panicking() {
        let doc = Json::obj([
            ("name", Json::str("x")),
            ("n", Json::UInt(7)),
            ("arr", Json::Arr(vec![Json::UInt(1)])),
        ]);
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("arr").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::UInt(1).get("k"), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(5).as_u64(), Some(5));
    }

    #[test]
    fn parse_round_trips_writer_output_byte_for_byte() {
        let doc = Json::obj([
            ("name", Json::str("csim \"quoted\"\n\ttab")),
            ("count", Json::UInt(u64::MAX)),
            ("neg", Json::Int(i64::MIN)),
            ("pi", Json::Float(3.25)),
            ("tiny", Json::Float(0.1)),
            ("nan", Json::Float(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("ctrl", Json::str("a\u{1}b")),
            ("arr", Json::Arr(vec![Json::UInt(1), Json::Float(-2.5), Json::Arr(vec![])])),
            ("nested", Json::obj([("k", Json::obj([]))])),
        ]);
        let s = doc.to_string();
        let reparsed = parse(&s).unwrap();
        assert_eq!(reparsed.to_string(), s, "writer output must round-trip byte-for-byte");
    }

    #[test]
    fn parse_classifies_numbers_like_the_writer() {
        assert_eq!(parse("7").unwrap(), Json::UInt(7));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("7.5").unwrap(), Json::Float(7.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        // Too large for i64: falls back to float rather than erroring.
        assert!(matches!(parse("-99999999999999999999").unwrap(), Json::Float(_)));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn parse_decodes_escapes_and_surrogates() {
        assert_eq!(parse(r#""é\t\/""#).unwrap(), Json::str("é\t/"));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\ud83dA""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for doc in ACCEPT.into_iter().chain(REJECT) {
            assert_eq!(parse(doc).is_ok(), validate(doc).is_ok(), "disagree on {doc:?}");
        }
        let deep = format!("{}1{}", "[".repeat(500), "]".repeat(500));
        assert!(parse(&deep).is_err(), "deep nesting must be bounded");
    }

    #[test]
    fn parse_accepts_whitespace_but_round_trip_is_canonical() {
        let doc = parse("  { \"a\" : [ 1 , 2 ] }  ").unwrap();
        assert_eq!(doc.to_string(), "{\"a\":[1,2]}");
    }
}
