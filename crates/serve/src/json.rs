//! Minimal JSON parsing and rendering for the serving CLI and the bench
//! artifact files (`BENCH_serve.json` / `BENCH_train.json`).
//!
//! The build environment is offline, so instead of `serde_json` this is a
//! ~150-line recursive-descent parser covering the JSON subset the request
//! protocol and bench artifacts need: objects, arrays, strings with the
//! standard escapes, finite numbers, booleans and null. Rendering uses
//! Rust's shortest-roundtrip float formatting, so probabilities survive a
//! parse→render→parse cycle bit-exactly. Arrays and objects nest at most
//! 32 deep, so a hostile body cannot recurse the parser off its thread's
//! stack.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// An exact unsigned integer — used when **rendering** external ids,
    /// which are `u64` and would silently lose precision past 2^53 if
    /// routed through `Num`'s `f64`. The parser never produces this
    /// variant (JSON numbers parse as `f64`); it exists so responses can
    /// carry any ingested id verbatim.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number (exact for `Int`
    /// values up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            Json::Int(n) => usize::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a non-negative 64-bit integer, if it is one. Parsed
    /// numbers are stored as `f64`, so integers are only unambiguous
    /// strictly below 2^53 (2^53 itself is the first value a larger
    /// integer collapses onto) — anything past that is rejected rather
    /// than silently resolved to a neighbouring id.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
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

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; null is the least-bad rendering
                    write!(f, "null")
                }
            }
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\r' => write!(f, "\\r")?,
                        '\t' => write!(f, "\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. Requests
/// and replies nest two levels; the parser recurses once per level, so
/// this bounds its stack.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        v
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
            self.skip_ws();
            fields.push((key, self.value()?));
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

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("truncated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number `{text}` at byte {start}"))
    }
}

/// Shorthand for building [`Json::Obj`] values.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shapes() {
        let warm = Json::parse(r#"{"user": 17, "m": 10}"#).unwrap();
        assert_eq!(warm.get("user").unwrap().as_usize(), Some(17));
        assert_eq!(warm.get("m").unwrap().as_usize(), Some(10));
        let cold = Json::parse(r#"{"basket": [1, 2, 3]}"#).unwrap();
        let basket = cold.get("basket").unwrap().as_array().unwrap();
        assert_eq!(basket.len(), 3);
        assert_eq!(basket[2].as_usize(), Some(3));
    }

    #[test]
    fn int_renders_u64_exactly_past_f64_precision() {
        // 2^53 + 1 is the first integer f64 cannot represent
        let big = (1u64 << 53) + 1;
        assert_eq!(Json::Int(big).to_string(), big.to_string());
        assert_eq!(Json::Int(u64::MAX).to_string(), u64::MAX.to_string());
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert_eq!(Json::Int(big).as_u64(), Some(big));
        assert_eq!(Json::Int(3).as_usize(), Some(3));
        assert_eq!(Json::Int(4).as_f64(), Some(4.0));
    }

    #[test]
    fn parsed_ids_at_the_f64_ambiguity_boundary_are_rejected() {
        // 2^53 parses exactly, but 2^53 + 1 collapses onto the same f64 —
        // a request for either must not silently resolve to a neighbour
        let at = Json::parse(&(1u64 << 53).to_string()).unwrap();
        assert_eq!(at.as_u64(), None);
        let below = Json::parse(&((1u64 << 53) - 1).to_string()).unwrap();
        assert_eq!(below.as_u64(), Some((1 << 53) - 1));
    }

    #[test]
    fn roundtrips_values() {
        for text in [
            r#"{"a":[1,2.5,-3e-2],"b":"x\"y\\z","c":true,"d":null,"e":{}}"#,
            r#"[[],{},[[1]]]"#,
            "0.1",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn float_render_is_shortest_roundtrip() {
        let v = Json::Num(0.1 + 0.2);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\" 1}",
            "\"\\q\"",
            "1 2",
            "{\"a\":}",
            "--1",
            "\"\\u12\"",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        // a million unclosed brackets is an error, not a stack overflow
        let deep = format!("{{\"user\": {}", "[".repeat(1_000_000));
        assert!(Json::parse(&deep).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn escapes_render() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn as_usize_guards() {
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        assert_eq!(Json::Str("7".into()).as_usize(), None);
    }

    #[test]
    fn obj_builder() {
        let v = obj(vec![("x", Json::Num(1.0)), ("y", Json::Bool(false))]);
        assert_eq!(v.to_string(), r#"{"x":1,"y":false}"#);
    }
}
