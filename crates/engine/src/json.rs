//! A minimal JSON value type, parser and writer.
//!
//! The serving protocol is newline-delimited JSON. The build environment
//! has no `serde`, and the protocol surface is small, so this module
//! implements exactly what's needed: a dynamic [`Json`] value with a
//! recursive-descent parser (depth-capped; see [`MAX_DEPTH`]) and a
//! writer with full string escaping. Integer literals keep exact `i64`
//! precision ([`Json::Int`]); other numbers are `f64`.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that must survive exactly (database constants can be
    /// any `i64`; `f64` corrupts values above 2⁵³). The parser produces
    /// this variant for undecorated integer literals that fit.
    Int(i64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps serialized output deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Mutable member lookup on objects.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(m) => m.get_mut(key),
            _ => None,
        }
    }

    /// Sets a member on an object (no-op on non-objects). The serving
    /// layer uses this to decorate rendered responses — e.g. the front
    /// door tagging each routed response with its serving `shard`.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(m) = self {
            m.insert(key.to_string(), value);
        }
    }

    /// Removes a member from an object (no-op on non-objects). The route
    /// proxy uses this when rewriting a `prepared` answer to its inline
    /// query text before forwarding.
    pub fn remove(&mut self, key: &str) {
        if let Json::Obj(m) = self {
            m.remove(key);
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        match i64::try_from(n) {
            Ok(v) => Json::Int(v),
            Err(_) => Json::Num(n as f64),
        }
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. Recursive descent uses
/// the thread's stack, so an unbounded depth would let one crafted line
/// (`[[[[…`) abort the whole server with a stack overflow.
pub const MAX_DEPTH: u32 = 128;

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after value"));
    }
    Ok(value)
}

fn err(at: usize, msg: impl Into<String>) -> JsonError {
    JsonError {
        at,
        msg: msg.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH}")));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected {lit:?}")))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    // Undecorated integers keep exact i64 precision; everything else
    // (fractions, exponents, out-of-range) falls back to f64.
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("invalid number {text:?}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the unescaped run up to the next `"` or `\` as one slice:
        // both are ASCII, so the run ends on a char boundary of the
        // `&str` being parsed and each byte is validated exactly once.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        let text = std::str::from_utf8(&bytes[*pos..*pos + run])
            .map_err(|_| err(*pos, "invalid UTF-8"))?;
        out.push_str(text);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1; // the backslash
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = read_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: combine with the following
                            // \uDC00–\uDFFF escape (standard serializers
                            // ASCII-escape non-BMP text this way).
                            if bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") {
                                let low = read_hex4(bytes, *pos + 3)?;
                                if (0xDC00..=0xDFFF).contains(&low) {
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(char::from_u32(combined).unwrap_or('\u{FFFD}'));
                                    *pos += 6;
                                } else {
                                    out.push('\u{FFFD}'); // unpaired high
                                }
                            } else {
                                out.push('\u{FFFD}'); // unpaired high
                            }
                        } else {
                            // Lone low surrogates map to the replacement
                            // character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn read_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| err(at, "bad \\u escape"))?,
        16,
    )
    .map_err(|_| err(at, "bad \\u escape"))
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut members = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after key"));
        }
        *pos += 1;
        members.insert(key, parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let src = r#"{"op":"answer","eps":0.05,"tuple":["a",-3,true,null],"nested":{"k":"v"}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("answer"));
        assert_eq!(v.get("eps").and_then(Json::as_f64), Some(0.05));
        let reparsed = parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("line\n\"quoted\"\tαβ".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp() {
        // Python json.dumps("😀") with default ensure_ascii emits the
        // surrogate-pair escape form.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("😀".into()));
        // Raw UTF-8 non-BMP text also survives.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        // Unpaired surrogates degrade to U+FFFD, not an error.
        assert_eq!(
            parse(r#""\ud83dX""#).unwrap(),
            Json::Str("\u{FFFD}X".into())
        );
        assert_eq!(parse(r#""\ude00""#).unwrap(), Json::Str("\u{FFFD}".into()));
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // 2 MiB of plain, multi-byte and escaped text. Validating the
        // whole rest of the input once per character took over a minute.
        let chunk = "plain αβγ 😀 \"quoted\" \\ \n\t";
        let text = chunk.repeat((2 << 20) / chunk.len());
        let rendered = Json::Str(text.clone()).to_string();
        let t = std::time::Instant::now();
        assert_eq!(parse(&rendered).unwrap(), Json::Str(text));
        assert!(t.elapsed().as_secs() < 5, "{:?}", t.elapsed());
        assert_eq!(parse("\"abc").unwrap_err().at, 4, "unterminated");
        assert_eq!(parse(r#""a\q""#).unwrap_err().at, 3, "bad escape");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1}x").is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(150.0).to_string(), "150");
        assert_eq!(Json::Num(0.45).to_string(), "0.45");
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn nesting_bomb_rejected_not_crashed() {
        let bomb = "[".repeat(100_000);
        let e = parse(&bomb).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        // Depths at the limit still parse.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn large_integers_survive_exactly() {
        for v in [i64::MAX, i64::MIN, (1i64 << 53) + 1, -((1i64 << 53) + 3)] {
            let rendered = Json::Int(v).to_string();
            assert_eq!(rendered, v.to_string());
            assert_eq!(parse(&rendered).unwrap(), Json::Int(v), "{v}");
        }
        // Out-of-range integer literals degrade to f64 rather than error.
        assert!(matches!(
            parse("99999999999999999999999").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn u64_bounds() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
    }
}
