//! The workspace's TOML subset, shared by the fault-plan and sweep-plan
//! loaders.
//!
//! `[table]` and `[[table]]` headers, and `key = value` pairs whose
//! value is an integer (`_` separators allowed: `meas = 2_000_000`), a
//! float, a boolean, a double-quoted string, or a one-line list of
//! those (`nodes = [1, 8]`). A `#` starts a comment except inside a
//! string. That is all the plans need, and it keeps the workspace free
//! of external dependencies. Each loader narrows the dialect through
//! the typed accessors and [`TomlItem::array`]: the fault loader takes
//! scalars only, the sweep loader takes no table arrays.

/// A malformed line, or a value of the wrong shape. Each loader maps it
/// into its own `Parse` error with the same line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number of the offending input.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

fn err<T>(line: usize, message: String) -> Result<T, TomlError> {
    Err(TomlError { line, message })
}

/// An error naming what a value should have been and what it is.
fn mismatch<T>(line: usize, want: &str, found: &Scalar) -> Result<T, TomlError> {
    err(line, format!("expected {want}, found {}", clip(&format!("{found:?}"))))
}

/// The first 40 characters of `text`, with `...` when it is longer: an
/// error names the offending input without echoing a value of any size.
pub fn clip(text: &str) -> String {
    let head: String = text.chars().take(40).collect();
    if head.len() < text.len() {
        head + "..."
    } else {
        head
    }
}

/// A parsed scalar value.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// A non-negative integer.
    Integer(u64),
    /// A finite float.
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
    /// A double-quoted string, quotes removed.
    Str(String),
}

/// A parsed value: a scalar or a (possibly empty) list of scalars.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlValue {
    /// A single value.
    Scalar(Scalar),
    /// A one-line `[a, b, ...]` list.
    List(Vec<Scalar>),
}

/// One `[table]` or `[[table]]` occurrence with its key/value entries
/// (each tagged with the 1-based source line for error reporting).
#[derive(Debug)]
pub struct TomlItem {
    /// The table name.
    pub table: String,
    /// 1-based line of the header.
    pub line: usize,
    /// True for a `[[table]]` header.
    pub array: bool,
    /// `(key, value, line)` in source order.
    pub entries: Vec<(String, TomlValue, usize)>,
}

/// Parses the subset. Keys before any table header are rejected; so is
/// anything that does not look like a header or a `key = value` pair.
///
/// # Errors
///
/// [`TomlError`] at the first malformed line.
pub fn parse(input: &str) -> Result<Vec<TomlItem>, TomlError> {
    let mut items: Vec<TomlItem> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        let text = strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        if let Some((name, array)) = header(text) {
            items.push(TomlItem { table: name.to_string(), line, array, entries: Vec::new() });
            continue;
        }
        let Some((key, value)) = text.split_once('=') else {
            return err(
                line,
                format!("expected '[table]' or 'key = value', found '{}'", clip(text)),
            );
        };
        let Some(item) = items.last_mut() else {
            return err(line, "key/value pair before any [table] header".to_string());
        };
        item.entries.push((key.trim().to_string(), value_of(value.trim(), line)?, line));
    }
    Ok(items)
}

/// Drops a `#` comment, but not a `#` inside a double-quoted string
/// (grid entries like `l2 = ["2M8w"] # geometry` must survive with the
/// string intact).
fn strip_comment(raw: &str) -> &str {
    let mut in_str = false;
    for (i, b) in raw.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return raw.get(..i).unwrap_or(raw),
            _ => {}
        }
    }
    raw
}

/// `[name]` yields `(name, false)`, `[[name]]` yields `(name, true)`.
fn header(text: &str) -> Option<(&str, bool)> {
    let (inner, array) = match text.strip_prefix("[[").and_then(|t| t.strip_suffix("]]")) {
        Some(inner) => (inner, true),
        None => (text.strip_prefix('[')?.strip_suffix(']')?, false),
    };
    let name = inner.trim();
    (!name.is_empty() && !name.contains(['[', ']'])).then_some((name, array))
}

fn value_of(text: &str, line: usize) -> Result<TomlValue, TomlError> {
    let Some(inner) = text.strip_prefix('[') else {
        return Ok(TomlValue::Scalar(scalar(text, line)?));
    };
    let Some(inner) = inner.strip_suffix(']') else {
        return err(
            line,
            format!("unterminated list '{}' (lists must close on one line)", clip(text)),
        );
    };
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(TomlValue::List(Vec::new()));
    }
    let items = split_list(inner, line)?
        .into_iter()
        .map(|item| scalar(item.trim(), line))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TomlValue::List(items))
}

/// Splits a list body on commas that sit outside string quotes.
fn split_list(inner: &str, line: usize) -> Result<Vec<&str>, TomlError> {
    let mut in_str = false;
    let parts = inner
        .split(|c| {
            in_str ^= c == '"';
            c == ',' && !in_str
        })
        .collect();
    if in_str {
        return err(line, format!("unterminated string in list '[{}]'", clip(inner)));
    }
    Ok(parts)
}

fn scalar(text: &str, line: usize) -> Result<Scalar, TomlError> {
    match text {
        "true" => return Ok(Scalar::Bool(true)),
        "false" => return Ok(Scalar::Bool(false)),
        _ => {}
    }
    if let Some(inner) = text.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return err(line, format!("unterminated string {}", clip(text)));
        };
        if inner.contains('"') {
            return err(line, format!("stray quote inside string {}", clip(text)));
        }
        return Ok(Scalar::Str(inner.to_string()));
    }
    let plain = text.replace('_', "");
    if let Ok(v) = plain.parse::<u64>() {
        return Ok(Scalar::Integer(v));
    }
    if let Ok(v) = plain.parse::<f64>() {
        if v.is_finite() {
            return Ok(Scalar::Float(v));
        }
    }
    err(line, format!("cannot parse value '{}'", clip(text)))
}

impl Scalar {
    /// The integer, or an error naming what was found instead.
    ///
    /// # Errors
    ///
    /// [`TomlError`] at `line` for any other scalar.
    pub fn as_u64(&self, line: usize) -> Result<u64, TomlError> {
        match self {
            Scalar::Integer(v) => Ok(*v),
            other => mismatch(line, "an integer", other),
        }
    }

    /// The number as f64: floats and integers both qualify.
    ///
    /// # Errors
    ///
    /// [`TomlError`] at `line` for a boolean or a string.
    pub fn as_f64(&self, line: usize) -> Result<f64, TomlError> {
        match self {
            Scalar::Float(v) => Ok(*v),
            Scalar::Integer(v) => Ok(*v as f64),
            other => mismatch(line, "a number", other),
        }
    }

    /// The boolean.
    ///
    /// # Errors
    ///
    /// [`TomlError`] at `line` for any other scalar.
    pub fn as_bool(&self, line: usize) -> Result<bool, TomlError> {
        match self {
            Scalar::Bool(v) => Ok(*v),
            other => mismatch(line, "true or false", other),
        }
    }

    /// The string's contents.
    ///
    /// # Errors
    ///
    /// [`TomlError`] at `line` for any other scalar.
    pub fn as_str(&self, line: usize) -> Result<&str, TomlError> {
        match self {
            Scalar::Str(v) => Ok(v),
            other => mismatch(line, "a quoted string", other),
        }
    }
}

impl TomlValue {
    /// The single value.
    ///
    /// # Errors
    ///
    /// [`TomlError`] at `line` for a list.
    pub fn as_scalar(&self, line: usize) -> Result<&Scalar, TomlError> {
        match self {
            TomlValue::Scalar(s) => Ok(s),
            TomlValue::List(_) => err(line, "expected a single value, found a list".to_string()),
        }
    }

    /// The list's items.
    ///
    /// # Errors
    ///
    /// [`TomlError`] at `line` for a single value.
    pub fn as_list(&self, line: usize) -> Result<&[Scalar], TomlError> {
        match self {
            TomlValue::List(items) => Ok(items),
            TomlValue::Scalar(_) => {
                err(line, "expected a list like [1, 2], found a single value".to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_headers_scalars_and_lists() {
        let items = parse(
            "# intro\n[sweep]\nname = \"fig\" # trailing\nwarm = 2_000\nooo = false\nf = 2.5\n[grid]\nnodes = [1, 8]\nl2 = [\"2M8w\", \"8M1w\"]\nempty = []\n",
        )
        .unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].table, "sweep");
        assert_eq!(
            items[0].entries,
            vec![
                ("name".to_string(), TomlValue::Scalar(Scalar::Str("fig".into())), 3),
                ("warm".to_string(), TomlValue::Scalar(Scalar::Integer(2000)), 4),
                ("ooo".to_string(), TomlValue::Scalar(Scalar::Bool(false)), 5),
                ("f".to_string(), TomlValue::Scalar(Scalar::Float(2.5)), 6),
            ]
        );
        assert_eq!(
            items[1].entries,
            vec![
                (
                    "nodes".to_string(),
                    TomlValue::List(vec![Scalar::Integer(1), Scalar::Integer(8)]),
                    8
                ),
                (
                    "l2".to_string(),
                    TomlValue::List(vec![Scalar::Str("2M8w".into()), Scalar::Str("8M1w".into())]),
                    9
                ),
                ("empty".to_string(), TomlValue::List(Vec::new()), 10),
            ]
        );
    }

    #[test]
    fn table_array_headers_are_marked() {
        let items = parse("[a]\nx = 1\n[[b]]\nw = 0\n[[ b ]]\n").unwrap();
        let shape: Vec<(&str, bool, usize)> =
            items.iter().map(|i| (i.table.as_str(), i.array, i.line)).collect();
        assert_eq!(shape, [("a", false, 1), ("b", true, 3), ("b", true, 5)]);
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let items = parse("[sweep]\nname = \"a#b\"\n").unwrap();
        assert_eq!(items[0].entries[0].1, TomlValue::Scalar(Scalar::Str("a#b".into())));
    }

    #[test]
    fn rejects_orphan_keys_and_garbage() {
        let e = parse("x = 1\n").unwrap_err();
        assert!(e.message.contains("before any"), "{e:?}");
        assert!(parse("[a]\nnot a pair\n").is_err());
        assert!(parse("[a]\nx = what\n").is_err());
        assert!(parse("[]\n").is_err());
        assert!(parse("[[]]\n").is_err());
        assert!(parse("[[a]\n").is_err());
    }

    #[test]
    fn rejects_unterminated_strings_and_lists() {
        assert_eq!(parse("[a]\n\nx = \"open\n").unwrap_err().line, 3);
        assert!(parse("[a]\nx = [1, 2\n").is_err());
        assert!(parse("[a]\nx = [\"open]\n").is_err());
        // An oversized value is echoed as a short prefix.
        let huge = "[".repeat(200_000);
        for text in [huge.clone(), format!("[{huge}]"), format!("\"{huge}"), format!("\"{huge}\"")]
        {
            let e = parse(&format!("[a]\nx = {text}\n"))
                .and_then(|items| items[0].entries[0].1.as_scalar(2)?.as_u64(2))
                .unwrap_err();
            assert!(e.message.len() < 120 && e.message.contains("[[[..."), "{}", e.message);
        }
    }

    #[test]
    fn type_accessors_enforce_shapes() {
        let items = parse("[a]\nn = 3\nb = true\ns = \"x\"\nl = [1]\nf = 0.5\n").unwrap();
        let e = &items[0].entries;
        assert_eq!(e[0].1.as_scalar(2).unwrap().as_u64(2).unwrap(), 3);
        assert_eq!(e[0].1.as_scalar(2).unwrap().as_f64(2).unwrap(), 3.0);
        assert!(e[0].1.as_scalar(2).unwrap().as_bool(2).is_err());
        assert!(e[1].1.as_scalar(3).unwrap().as_bool(3).unwrap());
        assert!(e[1].1.as_scalar(3).unwrap().as_f64(3).is_err());
        assert_eq!(e[2].1.as_scalar(4).unwrap().as_str(4).unwrap(), "x");
        assert!(e[2].1.as_scalar(4).unwrap().as_f64(4).is_err());
        assert_eq!(e[3].1.as_list(5).unwrap().len(), 1);
        assert_eq!(e[3].1.as_scalar(5).unwrap_err().line, 5);
        assert!(e[0].1.as_list(2).is_err());
        assert!(e[4].1.as_scalar(6).unwrap().as_u64(6).is_err());
    }
}
