//! A minimal, dependency-free JSON value type with a parser and writer.
//!
//! The workspace builds offline with no `serde`, so this is the one JSON
//! codec every layer shares: reports, the daemon protocol, the
//! verdict-cache entries, histograms and metrics all encode to a [`Json`]
//! tree beside their type and render through its [`Display`], the only
//! place that escapes strings. Input is the full JSON grammar (including
//! `\uXXXX` escapes and surrogate pairs), parsed in time linear in its
//! length and nested at most [`MAX_DEPTH`] deep; output is a canonical
//! single-line rendering.
//!
//! [`Display`]: fmt::Display

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so without a bound one line of
/// `[` could overflow a thread stack; the workspace's own documents nest
/// about six levels deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (and emitted) as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole number ≥ 0.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document. The whole input must be consumed (modulo
    /// surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Canonical single-line rendering (no extra whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 prints shortest-roundtrip: "5" for 5.0,
                    // "1.25" for 1.25 — both valid JSON.
                    write!(f, "{n}")
                } else {
                    f.write_str("null") // JSON has no NaN/inf
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    fmt::Display::fmt(item, f)?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal (quotes included): `"`, `\` and
/// C0 control characters are escaped (the named short forms where JSON
/// has them), everything else — non-ASCII included — passes through raw.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` is a char boundary.
        f.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(short)?;
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Parses one value nested `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one step: both
            // are ASCII, so the run ends on a char boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(
                std::str::from_utf8(&rest[..run])
                    .map_err(|_| "non-utf8 string content".to_owned())?,
            );
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.hex4()?;
                    let c = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: require \uXXXX for the low half.
                        if self.peek() != Some(b'\\') {
                            return Err("lone high surrogate".into());
                        }
                        self.pos += 1;
                        if self.peek() != Some(b'u') {
                            return Err("lone high surrogate".into());
                        }
                        self.pos += 1;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("bad low surrogate".into());
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or("bad surrogate pair")?
                    } else {
                        char::from_u32(hi).ok_or("bad \\u escape")?
                    };
                    out.push(c);
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-utf8 \\u escape".to_owned())?;
        self.pos = end;
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
        assert_eq!(
            Json::parse("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(vec![]),
            ])
        );
        let obj = Json::parse(r#"{"a": 1, "b": [true, null]}"#).unwrap();
        assert_eq!(obj.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(obj.get("b").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in [
            "plain",
            "quote \" backslash \\ slash /",
            "tab\tnewline\ncr\r",
            "control \u{1} \u{1f}",
            "unicode ü λ 中",
            "emoji 🦀 (surrogate pair in \\u form)",
        ] {
            let rendered = Json::str(s).to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), Json::str(s), "{rendered}");
        }
        // Explicit \u forms, including a surrogate pair.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83e\\udd80\"").unwrap(),
            Json::str("Aé🦀")
        );
    }

    #[test]
    fn string_escaping_covers_every_control_character() {
        let render = |s: &str| Json::str(s).to_string();
        assert_eq!(render("plain"), "\"plain\"");
        assert_eq!(render("a\"b\\c"), "\"a\\\"b\\\\c\"");
        // Every C0 control character comes out escaped; the named short
        // forms win where JSON defines them.
        for c in (0u32..0x20).map(|c| char::from_u32(c).unwrap()) {
            let expected = match c {
                '\n' => "\"\\n\"".to_owned(),
                '\r' => "\"\\r\"".to_owned(),
                '\t' => "\"\\t\"".to_owned(),
                _ => format!("\"\\u{:04x}\"", c as u32),
            };
            assert_eq!(
                render(&c.to_string()),
                expected,
                "control char {:#x}",
                c as u32
            );
        }
        // Backslash runs and quote/backslash adjacency do not collapse.
        assert_eq!(render("\\\\"), "\"\\\\\\\\\"");
        assert_eq!(render("\\\""), "\"\\\\\\\"\"");
        // Non-ASCII and DEL (0x7f, not a C0 control) pass through raw.
        assert_eq!(render("αβ 中 🦀 \u{7f}"), "\"αβ 中 🦀 \u{7f}\"");
        // Keys escape exactly like values.
        let doc = Json::Obj(vec![("k\"\n".to_owned(), Json::Null)]);
        assert_eq!(doc.to_string(), "{\"k\\\"\\n\":null}");
    }

    #[test]
    fn long_strings_with_escapes_and_multibyte_text_roundtrip() {
        // ≥256 KiB mixing raw multi-byte characters, escaped controls,
        // quotes and backslashes: parsing stays linear and lossless.
        let chunk = "ü λ 中 🦀 \"quoted\" back\\slash\ttab\nline\u{1} ";
        let text = chunk.repeat(256 * 1024 / chunk.len() + 1);
        assert!(text.len() >= 256 * 1024);
        let doc = Json::Arr(vec![
            Json::str(text.as_str()),
            Json::obj([("k", Json::str(text.as_str()))]),
        ]);
        let rendered = doc.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // A line of 100 000 `[` is an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "\"unterminated", "{\"a\" 1}", "nul", "01x",
            "\"\\q\"", "\"\\ud800\"", "[1] trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_is_parseable_and_stable() {
        let doc = Json::obj([
            ("name", Json::str("x \"y\"")),
            ("n", Json::Num(3.0)),
            ("t", Json::Num(1.25)),
            ("items", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        let text = doc.to_string();
        assert_eq!(text, "{\"name\":\"x \\\"y\\\"\",\"n\":3,\"t\":1.25,\"items\":[null,false]}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
