//! Hand-rolled JSON writing and well-formedness checking.
//!
//! The vendored `serde` stand-in only provides no-op derives (the build
//! environment has no network access), so the [`crate::report::Report`]
//! JSON export is written by hand: a small ordered [`Json`] value type, a
//! writer that follows RFC 8259 (string escaping, `null` for non-finite
//! floats), and a validator the CLI smoke tests use to keep the emitted
//! bytes honest without a full parser dependency.

use std::fmt;

/// An owned JSON value.
///
/// Object keys keep insertion order so two identical [`Json`] trees always
/// serialize to identical bytes (the registry determinism invariant).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a decimal point.
    Int(i64),
    /// A float, printed with enough digits to round-trip; non-finite
    /// values (NaN, ±inf) have no JSON representation and are normalized
    /// to `null`.
    Float(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Appends the compact serialization to `out` (the `Display` impl —
    /// and therefore `.to_string()` — goes through this).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_f64(*f, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
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

impl fmt::Display for Json {
    /// Compact (no-whitespace) JSON serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes a float as a JSON number.
///
/// Finite values use Rust's shortest round-trip formatting, forced to keep
/// a decimal point (`3` prints as `3.0`) so readers can tell metric floats
/// from counts. NaN and ±infinity are normalized to `null` — JSON has no
/// spelling for them, and a crashing exporter is worse than an absent
/// metric.
fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Writes `s` as a quoted JSON string, escaping `"` and `\`, the short
/// forms `\n` `\r` `\t`, and all other control characters as `\u00XX`.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Checks that `s` is one well-formed JSON value (with optional
/// surrounding whitespace).
///
/// This is a structural validator, not a parser: it verifies string
/// escapes, number syntax, and bracket/comma/colon structure. Test
/// oracle: `tests/cli.rs`, `tests/registry.rs`, `tests/explore.rs`,
/// `tests/observability.rs` and the report/obs unit tests check the
/// emitted JSON with it.
pub fn is_well_formed(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if !check_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn check_value(b: &[u8], pos: &mut usize) -> bool {
    match b.get(*pos) {
        Some(b'{') => check_object(b, pos),
        Some(b'[') => check_array(b, pos),
        Some(b'"') => check_string(b, pos),
        Some(b't') => check_lit(b, pos, b"true"),
        Some(b'f') => check_lit(b, pos, b"false"),
        Some(b'n') => check_lit(b, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => check_number(b, pos),
        _ => false,
    }
}

fn check_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn check_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') || !check_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        skip_ws(b, pos);
        if !check_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn check_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if !check_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn check_string(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // consume opening '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6);
                    match hex {
                        Some(h) if h.iter().all(u8::is_ascii_hexdigit) => *pos += 6,
                        _ => return false,
                    }
                }
                _ => return false,
            },
            0x00..=0x1f => return false, // raw control char
            _ => *pos += 1,
        }
    }
    false
}

fn check_number(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: `0` or a nonzero digit followed by digits.
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return false,
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Bool(false).to_string(), "false");
        assert_eq!(Json::Int(-42).to_string(), "-42");
        assert_eq!(Json::str("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn integers_and_floats_format_distinctly() {
        // Int never grows a decimal point; Float always keeps one so a
        // reader can tell a count from a metric.
        assert_eq!(Json::Int(3).to_string(), "3");
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::Float(1.5).to_string(), "1.5");
        assert_eq!(Json::Float(-0.25).to_string(), "-0.25");
        // Shortest round-trip formatting, not fixed precision.
        assert_eq!(Json::Float(0.1).to_string(), "0.1");
        let tiny = Json::Float(1e-300).to_string();
        assert!(tiny.parse::<f64>().unwrap() == 1e-300, "{tiny}");
    }

    #[test]
    fn non_finite_floats_normalize_to_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).to_string(), "null");
        // Inside containers too.
        let arr = Json::Array(vec![Json::Float(f64::NAN), Json::Int(1)]);
        assert_eq!(arr.to_string(), "[null,1]");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(Json::str("a\"b").to_string(), r#""a\"b""#);
        assert_eq!(Json::str("a\\b").to_string(), r#""a\\b""#);
        assert_eq!(Json::str("a\nb\tc\rd").to_string(), r#""a\nb\tc\rd""#);
        assert_eq!(Json::str("\u{1}\u{1f}").to_string(), r#""\u0001\u001f""#);
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(Json::str("§6.2 — 2×").to_string(), "\"§6.2 — 2×\"");
    }

    #[test]
    fn containers_render_in_order() {
        let v = Json::object([
            ("b", Json::Int(1)),
            ("a", Json::Array(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":[null,false]}"#);
        assert_eq!(Json::Array(vec![]).to_string(), "[]");
        assert_eq!(Json::Object(vec![]).to_string(), "{}");
    }

    #[test]
    fn writer_output_is_well_formed() {
        let v = Json::object([
            ("title", Json::str("quote \" backslash \\ newline \n")),
            ("metrics", Json::object([("x", Json::Float(1.25))])),
            ("nan", Json::Float(f64::NAN)),
            (
                "rows",
                Json::Array(vec![Json::Int(0), Json::Float(2.0), Json::str("§")]),
            ),
        ]);
        assert!(is_well_formed(&v.to_string()));
    }

    #[test]
    fn validator_accepts_valid() {
        for s in [
            "null",
            " true ",
            "-12.5e+3",
            "0",
            "[]",
            "{}",
            r#"{"a":[1,2,{"b":null}],"c":"d\u00e9"}"#,
            "[1, 2 , 3]",
        ] {
            assert!(is_well_formed(s), "{s}");
        }
    }

    #[test]
    fn validator_rejects_malformed() {
        for s in [
            "",
            "nul",
            "01",        // leading zero
            "1.",        // bare decimal point
            "+1",        // leading plus
            "[1,]",      // trailing comma
            "{\"a\":}",  // missing value
            "{\"a\" 1}", // missing colon
            "\"abc",     // unterminated string
            "\"\\x\"",   // bad escape
            "\"\u{1}\"", // raw control char
            "1 2",       // trailing garbage
            "{'a':1}",   // single quotes
            "NaN",
        ] {
            assert!(!is_well_formed(s), "{s:?} should be rejected");
        }
    }
}
