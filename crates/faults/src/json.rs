//! A minimal hand-rolled JSON reader for journal lines.
//!
//! The workspace's serde is a no-op shim, so the journal's writer *and*
//! reader are both ours: the grammar is exactly what [`crate::journal`]
//! emits — objects, arrays, strings with `\\` and `\"` escapes, and
//! unsigned integers. Anything else is a parse error, which the journal
//! loader treats as a torn line. [`Json::parse_fragment`] also accepts
//! negative integers, for the report fragments record journal lines carry
//! (the fleet arms write `-1` latencies when nothing completed).
//!
//! The reader recurses once per `[`/`{`, so nesting is bounded by
//! [`MAX_DEPTH`]: a line of a million brackets is an error, not a stack
//! overflow.

/// Deepest array/object nesting the reader accepts — far above the four
/// levels any journal line or fragment uses.
pub(crate) const MAX_DEPTH: usize = 32;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Json {
    /// Key/value pairs in document order.
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(u64),
    /// A negative integer (only from [`Json::parse_fragment`]).
    Neg(i64),
}

impl Json {
    /// Parses one complete JSON document; trailing garbage is an error.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        parse_document(text, false)
    }

    /// [`Json::parse`], also accepting negative integers.
    pub(crate) fn parse_fragment(text: &str) -> Result<Json, String> {
        parse_document(text, true)
    }

    /// Object member lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn parse_document(text: &str, signed: bool) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0, signed)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at offset {pos}",
            char::from(byte),
            pos = *pos
        ))
    }
}

/// One value nested in `depth` arrays and objects; `signed` admits
/// negative integers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize, signed: bool) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1, signed),
        Some(b'[') => parse_array(bytes, pos, depth + 1, signed),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(b'-') if signed => parse_number(bytes, pos),
        Some(other) => Err(format!(
            "unexpected byte '{}' at offset {pos}",
            char::from(*other),
            pos = *pos
        )),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize, signed: bool) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth, signed)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize, signed: bool) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth, signed)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| format!("invalid UTF-8: {e}"));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    // The writer only escapes backslash and quote; pass the
                    // escaped byte through verbatim.
                    Some(&escaped) => {
                        out.push(escaped);
                        *pos += 1;
                    }
                    None => return Err("dangling escape at end of input".to_string()),
                }
            }
            Some(&byte) => {
                out.push(byte);
                *pos += 1;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// An unsigned integer, or a negative one when it starts with `-`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    *pos += usize::from(negative);
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    let number = if negative {
        text.parse().map(Json::Neg)
    } else {
        text.parse().map(Json::Num)
    };
    number.map_err(|e| format!("bad number '{text}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": 1, "b": [2, {"c": "x\"y\\z"}], "d": []}"#;
        let v = Json::parse(doc).expect("valid document");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let b = v.get("b").and_then(Json::as_array).expect("array");
        assert_eq!(b[0].as_u64(), Some(2));
        assert_eq!(
            b[1].get("c").and_then(Json::as_str),
            Some(r#"x"y\z"#),
            "escapes must round-trip"
        );
        assert_eq!(v.get("d").and_then(Json::as_array), Some(&[][..]));
    }

    #[test]
    fn torn_documents_are_errors_not_panics() {
        for torn in [
            "",
            "{",
            r#"{"a""#,
            r#"{"a": 1"#,
            r#"{"a": 1}}"#,
            r#"{"a": "unterminated"#,
            r#"[1, 2"#,
            r#"{"a": 18446744073709551616}"#, // u64 overflow
            r#"{"a": -3}"#,                   // journal never emits negatives
        ] {
            assert!(Json::parse(torn).is_err(), "accepted torn input {torn:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let brackets = "[".repeat(1_000_000);
        assert!(Json::parse(&brackets).is_err());
        assert!(Json::parse_fragment(&brackets).is_err());
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn only_fragments_accept_negative_integers() {
        let doc = r#"{"p50":-1,"max":-9223372036854775808,"n":[3]}"#;
        assert!(Json::parse(doc).is_err());
        let v = Json::parse_fragment(doc).expect("fragment parses");
        assert_eq!(v.get("p50"), Some(&Json::Neg(-1)));
        assert_eq!(v.get("max"), Some(&Json::Neg(i64::MIN)));
        for bad in ["-", "-x", "--1", "-9223372036854775809", "{\"a\":-}"] {
            assert!(Json::parse_fragment(bad).is_err(), "accepted {bad:?}");
        }
    }
}
