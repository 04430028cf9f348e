//! Minimal, dependency-free JSON serialization for reports.
//!
//! The workspace has no serde; this module provides the small subset the
//! reporting paths need: writing *flat* JSON objects (string / integer /
//! float / bool values, no nesting) and parsing them back.  The scenario
//! campaign engine's content-addressed result store persists one such
//! object per line (JSON lines), and the bench snapshot emitters use the
//! same writer.
//!
//! Round-trip guarantees, which the store's byte-identical-cache-hit
//! invariant rests on:
//!
//! * **Floats** are written with Rust's shortest-round-trip `Display`
//!   formatting, so `write → parse` reproduces the exact same `f64` bits
//!   for every finite value.  Non-finite values are rejected by
//!   [`ObjectWriter::field_f64`] (the reports never contain them).
//! * **`u64` identities** (seeds, fingerprints, checksums) are written as
//!   fixed-width hex *strings* — encoding them as JSON numbers would lose
//!   precision beyond 2^53 in standard JSON tooling.
//! * **Key order is preserved** by [`parse_object`], so re-serializing a
//!   parsed object yields the original line byte for byte.

use std::fmt::Write as _;

/// A scalar value of a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A (string) value, unescaped.
    Str(String),
    /// An integer value (no decimal point or exponent in the source).
    Int(i64),
    /// A floating-point value.
    Float(f64),
    /// A boolean value.
    Bool(bool),
}

impl JsonScalar {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonScalar::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Float(v) => Some(*v),
            JsonScalar::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonScalar::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

/// Escapes a string for inclusion in a JSON document (quotes not
/// included).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental writer for one flat JSON object.
///
/// ```
/// use dmpb_metrics::json::ObjectWriter;
/// let mut w = ObjectWriter::new();
/// w.field_str("name", "TeraSort");
/// w.field_int("cells", 8);
/// w.field_f64("ratio", 0.5);
/// assert_eq!(w.finish(), r#"{"name":"TeraSort","cells":8,"ratio":0.5}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Appends a string field.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
    }

    /// Appends an integer field.
    pub fn field_int(&mut self, key: &str, value: i64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a `u64` identity (seed / fingerprint / checksum) as a
    /// fixed-width hex string, lossless beyond JSON's 2^53 number range.
    pub fn field_u64_hex(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.buf, "\"{value:016x}\"");
    }

    /// Appends a float field with shortest-round-trip formatting.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values — the reports this writer serializes
    /// never legitimately contain them, and silently emitting invalid
    /// JSON would corrupt the store.
    pub fn field_f64(&mut self, key: &str, value: f64) {
        assert!(value.is_finite(), "non-finite value for JSON field {key}");
        self.key(key);
        let mut text = format!("{value}");
        // `1.0` renders as "1": add the point back so the reader sees a
        // float, keeping Int/Float round-trips unambiguous.
        if !text.contains(['.', 'e', 'E']) {
            text.push_str(".0");
        }
        self.buf.push_str(&text);
    }

    /// Appends a bool field.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Closes and returns the object.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// Parses one flat JSON object into its `(key, scalar)` pairs, preserving
/// the key order of the source.  Nested objects and arrays are rejected —
/// the report formats this module serves are flat by construction.
pub fn parse_object(src: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.scalar()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        p.pos, other
                    ))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                want as char,
                self.pos.saturating_sub(1),
                other.map(|b| b as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<JsonScalar, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonScalar::Str(self.string()?)),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonScalar::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonScalar::Bool(false))
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("number bytes are ASCII");
                if text.contains(['.', 'e', 'E']) {
                    text.parse::<f64>()
                        .map(JsonScalar::Float)
                        .map_err(|e| format!("bad float `{text}`: {e}"))
                } else {
                    text.parse::<i64>()
                        .map(JsonScalar::Int)
                        .map_err(|e| format!("bad integer `{text}`: {e}"))
                }
            }
            other => Err(format!(
                "unsupported JSON value starting with {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_flat_objects() {
        let mut w = ObjectWriter::new();
        w.field_str("name", "Tera\"Sort\"");
        w.field_int("cells", -3);
        w.field_u64_hex("seed", 0x00D4_17A4_0F1F);
        w.field_f64("ratio", 0.9375);
        w.field_bool("ok", true);
        assert_eq!(
            w.finish(),
            r#"{"name":"Tera\"Sort\"","cells":-3,"seed":"000000d417a40f1f","ratio":0.9375,"ok":true}"#
        );
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }

    #[test]
    fn whole_floats_stay_floats_across_a_round_trip() {
        let mut w = ObjectWriter::new();
        w.field_f64("a", 1.0);
        w.field_f64("b", -2.0);
        w.field_f64("c", 0.5);
        let line = w.finish();
        assert_eq!(line, r#"{"a":1.0,"b":-2.0,"c":0.5}"#);
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields[0].1, JsonScalar::Float(1.0));
        assert_eq!(fields[1].1, JsonScalar::Float(-2.0));
        assert_eq!(fields[2].1, JsonScalar::Float(0.5));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.1f64,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            123_456_789.123_456_79,
            -0.0,
            2.0f64.powi(60),
        ] {
            let mut w = ObjectWriter::new();
            w.field_f64("v", v);
            let line = w.finish();
            let parsed = parse_object(&line).unwrap();
            let back = parsed[0].1.as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{line}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_are_rejected() {
        ObjectWriter::new().field_f64("bad", f64::NAN);
    }

    #[test]
    fn parser_reads_back_what_the_writer_wrote() {
        let mut w = ObjectWriter::new();
        w.field_str("k", "v with \n newline and ünïcode");
        w.field_int("n", 42);
        w.field_f64("f", 2.25);
        w.field_bool("b", false);
        let line = w.finish();
        let fields = parse_object(&line).unwrap();
        assert_eq!(
            fields,
            vec![
                (
                    "k".to_string(),
                    JsonScalar::Str("v with \n newline and ünïcode".to_string())
                ),
                ("n".to_string(), JsonScalar::Int(42)),
                ("f".to_string(), JsonScalar::Float(2.25)),
                ("b".to_string(), JsonScalar::Bool(false)),
            ]
        );
    }

    #[test]
    fn parser_rejects_nesting_and_garbage() {
        assert!(parse_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_object(r#"{"a":[1,2]}"#).is_err());
        assert!(parse_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_object("not json").is_err());
        assert_eq!(parse_object("{}").unwrap(), vec![]);
    }

    #[test]
    fn u64_identities_survive_the_hex_encoding() {
        let mut w = ObjectWriter::new();
        w.field_u64_hex("fp", u64::MAX);
        let line = w.finish();
        let fields = parse_object(&line).unwrap();
        let parsed = u64::from_str_radix(fields[0].1.as_str().unwrap(), 16).unwrap();
        assert_eq!(parsed, u64::MAX);
    }
}
