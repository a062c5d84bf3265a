//! The workspace's one JSON value model (there is no serde): a [`Json`]
//! tree, a strict RFC 8259 parser ([`parse`]), one string escaper and one
//! writer (`Display`).
//!
//! Every document the harness emits is built as a tree and written here,
//! so validity and escaping hold by construction. Integers are kept exact
//! ([`Json::Int`]), so parse → write → parse is the identity on any tree
//! whose floats are finite — the 64-bit seeds and counters of
//! `bench/baselines/*.json` read back as they were written.
//!
//! `{}` writes one line (`{"a": 1, "b": [2, 3]}`). `{:#}` is the document
//! layout: the root and its direct children print one element per line,
//! deeper containers break only when they hold other containers — one
//! record per line, diff-friendly.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without fraction or exponent, held exactly.
    Int(i128),
    /// Any other number. Non-finite values are written as `null`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion / source order.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] from `key => value` pairs; values go through
/// `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

impl Json {
    /// An array of anything convertible.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// An object from computed `(key, value)` pairs (see [`obj!`](crate::obj)
    /// for literal keys).
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` rounded to `decimals` places, the tree counterpart of
    /// `{x:.decimals}`: zero decimals yields an integer, non-finite `null`.
    pub fn fixed(x: f64, decimals: u32) -> Json {
        if !x.is_finite() {
            return Json::Null;
        }
        if decimals == 0 {
            return Json::Int(x.round() as i128);
        }
        let scale = 10f64.powi(decimals as i32);
        Json::Num((x * scale).round() / scale)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Replaces field `key` in place, or appends it. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_string(), value)),
            }
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload (integers widen), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact integer payload, if this is an integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Int(n) => return write!(f, "{n}"),
            // `{:?}` always carries a `.` or an exponent, so a float reads
            // back as a float.
            Json::Num(n) if n.is_finite() => return write!(f, "{n:?}"),
            Json::Num(_) => return f.write_str("null"),
            Json::Str(s) => return write_str(f, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let multiline = f.alternate()
            && !children.is_empty()
            && (depth < 2 || children.iter().any(|(_, v)| v.is_container()));
        f.write_char(open)?;
        for (i, (key, value)) in children.iter().enumerate() {
            if i > 0 {
                f.write_str(if multiline { "," } else { ", " })?;
            }
            if multiline {
                write!(f, "\n{:width$}", "", width = 2 * (depth + 1))?;
            }
            if let Some(key) = key {
                write_str(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        if multiline {
            write!(f, "\n{:width$}", "", width = 2 * depth)?;
        }
        f.write_char(close)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)?;
        if f.alternate() {
            f.write_char('\n')?;
        }
        Ok(())
    }
}

/// `s` with JSON string escaping applied (no surrounding quotes) — the
/// workspace's only escaper.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"{}\"", esc(s))
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
int_from!(u8, u16, u32, u64, usize, i32, i64);

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, text: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    /// Consumes one or more digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u bytes"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte at once. Those three are
                    // ASCII, so the run ends on a scalar boundary of the
                    // &str input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("bad utf8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = parse("{\"a\\n\\\"b\": [1.5, -2e3, true, null, \"\\u0041\", 7]}").unwrap();
        let arr = v.get("a\n\"b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0], Json::Num(1.5));
        assert_eq!(arr[1], Json::Num(-2000.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4].as_str(), Some("A"));
        assert_eq!(arr[5], Json::Int(7));
        assert_eq!(arr[5].as_f64(), Some(7.0));
    }

    #[test]
    fn parser_is_as_strict_as_rfc_8259() {
        for bad in [
            "{\"a\": }",
            "[1,]",
            "[1] extra",
            "\"raw\nnewline\"",
            "\"raw\ttab\"",
            "\"raw\u{1}control\"",
            "01",
            "1.",
            "-",
            "+1",
            "1e",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn u64_max_survives_a_parse_write_parse_round_trip() {
        // The case the textual splicer existed for: `repro --seed
        // 18446744073709551615 bench`, then `repro serve` rewrites the file.
        let doc = obj! {"seed" => u64::MAX, "neg" => -3i64, "f" => 2.0, "tiny" => 1e-9};
        for text in [format!("{doc}"), format!("{doc:#}")] {
            let back = parse(&text).expect(&text);
            assert_eq!(back, doc, "{text}");
            assert_eq!(back.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        }
        assert!(format!("{doc}").contains("\"seed\": 18446744073709551615"));
        assert!(format!("{doc}").contains("\"f\": 2.0"));
    }

    #[test]
    fn non_finite_floats_print_null() {
        let doc = Json::arr([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(doc.to_string(), "[null, null, null]");
        assert_eq!(Json::fixed(f64::INFINITY, 2), Json::Null);
    }

    #[test]
    fn fixed_mirrors_format_precision() {
        assert_eq!(Json::fixed(2.0, 2).to_string(), "2.0");
        assert_eq!(Json::fixed(0.78645, 4).to_string(), "0.7865");
        assert_eq!(Json::fixed(31256.4, 0), Json::Int(31256));
    }

    #[test]
    fn every_escape_round_trips_and_key_order_is_preserved() {
        let plain = "a long plain run ".repeat(64);
        let nasty = &*format!("q\" b\\ n\n r\r t\t bell\u{7} nul\u{0} é ✓ 🦀 {plain}");
        let doc = obj! {"z" => nasty, nasty => 1u32, "a" => Json::Null};
        let text = doc.to_string();
        assert!(!text.contains('\n'), "control characters escaped: {text}");
        assert!(text.contains("\\u0007") && text.contains("\\u0000"));
        let back = parse(&text).expect("round trip");
        assert_eq!(back, doc);
        let keys: Vec<&str> = match &back {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys, ["z", nasty, "a"]);
    }

    #[test]
    fn document_layout_breaks_outer_levels_and_keeps_records_on_one_line() {
        let doc = obj! {
            "scalar" => 1u32,
            "flat" => obj! {"a" => 1u32, "b" => 2u32},
            "rows" => Json::arr([obj! {"k" => "v", "n" => Json::arr([1u32, 2])}]),
            "empty" => Json::Arr(Vec::new()),
        };
        let expected = "{\n  \"scalar\": 1,\n  \"flat\": {\n    \"a\": 1,\n    \"b\": 2\n  },\n  \
                        \"rows\": [\n    {\n      \"k\": \"v\",\n      \"n\": [1, 2]\n    }\n  ],\n  \
                        \"empty\": []\n}\n";
        assert_eq!(format!("{doc:#}"), expected);
        assert_eq!(parse(expected).unwrap(), doc);
    }

    #[test]
    fn set_replaces_in_place_or_appends() {
        let mut doc = parse(r#"{"run": {"old": 1}, "trajectory": [{"seed": 1}]}"#).unwrap();
        doc.set("run", obj! {"new" => 2u32});
        doc.set("serving", obj! {});
        assert_eq!(
            doc.to_string(),
            r#"{"run": {"new": 2}, "trajectory": [{"seed": 1}], "serving": {}}"#
        );
    }
}
