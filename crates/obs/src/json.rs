//! A minimal JSON value type with a writer and a parser.
//!
//! The workspace builds offline (no serde); metrics documents and
//! trace events need only this small, dependency-free subset: the
//! seven JSON value kinds, string escaping, and a recursive-descent
//! parser used by tests, by consumers of `--metrics-json` output, and by
//! `ccs serve` on untrusted request lines. The parser bounds its
//! recursion at [`MAX_DEPTH`], so no input can overflow the stack.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Numbers are `f64` (integers round-trip exactly up to
/// 2^53, far beyond any counter this crate emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are kept sorted for deterministic output.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member lookup: `v.get("phases")` on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Writes `s` as a JSON string literal (with escapes) into `out`.
pub fn escape_into(out: &mut String, s: &str) {
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

fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        // Integral values print without a decimal point or exponent so
        // counters stay greppable. i128 covers every integral f64 up to
        // ±u64::MAX (and beyond); values above 2^53 are the nearest
        // representable f64, printed exactly.
        if n.fract() == 0.0 && n.abs() <= 1.8446744073709552e19 {
            out.push_str(&format!("{}", n as i128));
        } else {
            out.push_str(&format!("{n}"));
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        f.write_str(&s)
    }
}

impl Value {
    /// Serializes with two-space indentation.
    pub fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    v.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Value::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad_in);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Serializes without any whitespace (one line; used for trace
    /// events).
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes nests 12 levels: a `ccs-bench-v1` document
/// whose per-case `ccs-profile-v1` call tree accounts for 9 of them.
/// The cap leaves a wide margin and keeps the recursion shallow enough
/// for any thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// [`ParseError`] on malformed input, trailing garbage, or nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(v)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected {:?}", c as char)))
    }
}

/// Parses one value that sits inside `depth` enclosing arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'[' | b'{')) {
        return Err(err(*pos, "nesting too deep"));
    }
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Value::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, &format!("expected {lit:?}")))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "invalid utf-8"))?;
    text.parse::<f64>()
        .map_err(|_| err(start, "invalid number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // step. Both are ASCII, so the run ends on a character
                // boundary of the (valid UTF-8) input.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| err(start, "invalid utf-8"))?;
                s.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_pretty_and_compact() {
        let mut obj = BTreeMap::new();
        obj.insert(
            "name".to_string(),
            Value::Str("wan \"paper\"\n".to_string()),
        );
        obj.insert("count".to_string(), Value::Num(42.0));
        obj.insert("ratio".to_string(), Value::Num(0.125));
        obj.insert("ok".to_string(), Value::Bool(true));
        obj.insert("nothing".to_string(), Value::Null);
        obj.insert(
            "items".to_string(),
            Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5)]),
        );
        let v = Value::Obj(obj);

        let pretty = v.to_string();
        assert_eq!(parse(&pretty).unwrap(), v);

        let mut compact = String::new();
        v.write_compact(&mut compact);
        assert!(!compact.contains('\n'));
        assert_eq!(parse(&compact).unwrap(), v);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        let mut s = String::new();
        Value::Num(1_234_567.0).write_compact(&mut s);
        assert_eq!(s, "1234567");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(200_000);
        assert!(parse(&arrays).is_err());
        let objects = "{\"a\":".repeat(200_000);
        assert!(parse(&objects).is_err());
        // Exactly at the cap still parses; one more level does not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = parse(&over).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert!(e.message.contains("too deep"), "{e}");
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": {"b": [1, {"c": "d"}]}, "e": -3.5e2}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")).map(|b| match b {
                Value::Arr(items) => items.len(),
                _ => 0,
            }),
            Some(2)
        );
        assert_eq!(v.get("e").and_then(Value::as_num), Some(-350.0));
    }

    #[test]
    fn unicode_escapes_decode() {
        // A \u escape and a literal multibyte char both decode to é.
        let text = "\"caf\\u00e9 é\"";
        let v = parse(text).unwrap();
        assert_eq!(v, Value::Str("café é".to_string()));
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        // Every C0 control character must be escaped (RFC 8259 §7) and
        // survive a round trip.
        let all_controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Value::Str(all_controls.clone());
        let mut compact = String::new();
        v.write_compact(&mut compact);
        for c in compact[1..compact.len() - 1].chars() {
            assert!(
                (c as u32) >= 0x20,
                "raw control character {:#04x} leaked into output {compact:?}",
                c as u32
            );
        }
        assert!(compact.contains("\\u0000"));
        assert!(compact.contains("\\n"));
        assert!(compact.contains("\\u000b"));
        assert_eq!(parse(&compact).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            Value::Num(bad).write_compact(&mut s);
            assert_eq!(s, "null");
        }
        // A gauge map containing a NaN still yields a parseable doc.
        let mut obj = BTreeMap::new();
        obj.insert("residual".to_string(), Value::Num(f64::NAN));
        let text = Value::Obj(obj).to_string();
        assert_eq!(parse(&text).unwrap().get("residual"), Some(&Value::Null));
    }

    #[test]
    fn u64_counters_above_2_pow_53_round_trip() {
        // Counters are carried as f64; above 2^53 the nearest
        // representable value must still print as an exact integer (no
        // exponent, no decimal point) and re-parse to the same f64.
        for n in [
            (1u64 << 53) + 2, // first even value above the exact range
            1u64 << 60,
            u64::MAX, // rounds to 2^64 as f64
        ] {
            let as_f = n as f64;
            let mut s = String::new();
            Value::Num(as_f).write_compact(&mut s);
            assert!(
                !s.contains('e') && !s.contains('.'),
                "expected plain integer for {n}, got {s}"
            );
            let back = parse(&s).unwrap().as_num().unwrap();
            assert_eq!(back, as_f, "{n} printed as {s}");
            // Saturating cast recovers the u64 for in-range values.
            assert_eq!(back as u64, if n == u64::MAX { u64::MAX } else { n });
        }
        assert_eq!(
            {
                let mut s = String::new();
                Value::Num(u64::MAX as f64).write_compact(&mut s);
                s
            },
            "18446744073709551616"
        );
    }
}
