//! Shared serde-free JSON plumbing for every schema-pinned JSONL stream
//! the solver emits: the trace journal (`docs/trace.schema.json`), the
//! metrics snapshot (`docs/metrics.schema.json`), and the query cost
//! ledger (`docs/ledger.schema.json`).
//!
//! The workspace is serde-free by construction, so this module carries
//! its own minimal JSON reader, a string escaper for the writers, and a
//! validator for the `oneOf` subset of JSON Schema the checked-in
//! documents use (per-`kind` `required` lists plus `properties` type
//! checks, unknown fields failing closed). Before PR 6 the trace and
//! metrics subsystems each embedded a private copy of this machinery;
//! they now share this one.

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------

/// Validates a JSONL document against an event schema (the `oneOf`
/// subset of JSON Schema the checked-in files use: per-kind `required`
/// lists and `properties` type checks). Returns the number of validated
/// events.
///
/// # Errors
///
/// Returns `line N: <problem>` for the first invalid line, or a
/// description of a malformed schema.
pub fn validate_jsonl(schema_src: &str, jsonl: &str) -> Result<usize, String> {
    let schema = Schema::parse(schema_src)?;
    let mut count = 0usize;
    for (i, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        schema
            .validate_line(line)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        count += 1;
    }
    Ok(count)
}

/// The event kinds a schema document covers (the `kind` consts of its
/// `oneOf` branches) — used by the drift tests to compare against the
/// emitters' own kind lists.
///
/// # Errors
///
/// Returns a description of a malformed schema.
pub fn schema_kinds(schema_src: &str) -> Result<Vec<String>, String> {
    Ok(Schema::parse(schema_src)?
        .branches
        .iter()
        .map(|b| b.kind.clone())
        .collect())
}

struct Schema {
    branches: Vec<SchemaBranch>,
}

struct SchemaBranch {
    kind: String,
    required: Vec<String>,
    /// property name → allowed JSON type names.
    properties: Vec<(String, Vec<String>)>,
}

impl Schema {
    fn parse(src: &str) -> Result<Schema, String> {
        let value = Json::parse(src).map_err(|e| format!("schema: {e}"))?;
        let obj = value.as_object().ok_or("schema: not a JSON object")?;
        let one_of = lookup(obj, "oneOf")
            .and_then(Json::as_array)
            .ok_or("schema: missing oneOf array")?;
        let mut branches = Vec::new();
        for branch in one_of {
            let bobj = branch
                .as_object()
                .ok_or("schema: oneOf entry not an object")?;
            let props = lookup(bobj, "properties")
                .and_then(Json::as_object)
                .ok_or("schema: branch without properties")?;
            let kind = props
                .iter()
                .find(|(k, _)| k == "kind")
                .and_then(|(_, v)| v.as_object())
                .and_then(|k| lookup(k, "const"))
                .and_then(Json::as_str)
                .ok_or("schema: branch kind without const")?
                .to_owned();
            let required = lookup(bobj, "required")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default();
            let mut properties = Vec::new();
            for (name, spec) in props {
                if name == "kind" {
                    continue;
                }
                let types = spec
                    .as_object()
                    .and_then(|s| lookup(s, "type"))
                    .map(|t| match t {
                        Json::Str(s) => vec![s.clone()],
                        Json::Arr(items) => items
                            .iter()
                            .filter_map(|v| v.as_str().map(str::to_owned))
                            .collect(),
                        _ => Vec::new(),
                    })
                    .unwrap_or_default();
                properties.push((name.clone(), types));
            }
            branches.push(SchemaBranch {
                kind,
                required,
                properties,
            });
        }
        if branches.is_empty() {
            return Err("schema: oneOf has no branches".to_owned());
        }
        Ok(Schema { branches })
    }

    fn validate_line(&self, line: &str) -> Result<(), String> {
        let value = Json::parse(line)?;
        let obj = value.as_object().ok_or("not a JSON object")?;
        let kind = lookup(obj, "kind")
            .and_then(Json::as_str)
            .ok_or("missing string field `kind`")?;
        let branch = self
            .branches
            .iter()
            .find(|b| b.kind == kind)
            .ok_or_else(|| format!("event kind {kind:?} is not covered by the schema"))?;
        for req in &branch.required {
            if lookup(obj, req).is_none() {
                return Err(format!("{kind}: missing required field `{req}`"));
            }
        }
        for (name, types) in &branch.properties {
            let Some(actual) = lookup(obj, name) else {
                continue;
            };
            if !types.is_empty() && !types.iter().any(|t| actual.type_matches(t)) {
                return Err(format!(
                    "{kind}: field `{name}` has type {}, expected one of {types:?}",
                    actual.type_name()
                ));
            }
        }
        // Unknown fields fail closed: the schema is the contract.
        for (name, _) in obj {
            if name != "kind" && !branch.properties.iter().any(|(p, _)| p == name) {
                return Err(format!("{kind}: unexpected field `{name}`"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// A minimal JSON reader
// ---------------------------------------------------------------------

/// A parsed JSON value. Only what the JSONL tooling needs: enough to
/// read back events, requests, and the checked-in schema documents.
/// Objects preserve field order (a `Vec` of pairs, not a map), which is
/// what keeps round-tripped output deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are `f64`s with zero fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, and so does dropping the value it builds, so
/// without a bound a single hostile line (say, a `dprle serve` request of
/// 300 000 `[`s) overflows the stack and aborts the process. Every
/// document the tooling reads nests a handful of levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// First value under `key` in an object's field list, if present.
pub fn lookup<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl Json {
    /// Parses one complete JSON document (trailing content is an error).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset description of the first syntax problem, or
    /// of the first array or object nested deeper than
    /// [`MAX_JSON_DEPTH`].
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = Json::parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Parses the value at `pos`, which sits inside `depth` open arrays
    /// and objects.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}"
            )),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    let value = Json::parse_value(bytes, pos, depth + 1)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(Json::parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
            Some(b't') if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if bytes[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = *pos;
                while let Some(&c) = bytes.get(*pos) {
                    if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                        *pos += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("bad number at byte {start}"))?;
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
        }
    }

    /// The object's field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(n) if n.fract() == 0.0 => "integer",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn type_matches(&self, schema_type: &str) -> bool {
        match schema_type {
            "integer" => matches!(self, Json::Num(n) if n.fract() == 0.0),
            "number" => matches!(self, Json::Num(_)),
            "string" => matches!(self, Json::Str(_)),
            "boolean" => matches!(self, Json::Bool(_)),
            "null" => matches!(self, Json::Null),
            "array" => matches!(self, Json::Arr(_)),
            "object" => matches!(self, Json::Obj(_)),
            _ => false,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&c) = bytes.get(*pos) {
        if c.is_ascii_whitespace() {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_owned());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let ch = parse_unicode_escape(bytes, pos)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err("bad escape".to_owned()),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

/// Decodes the `\uXXXX` escape whose `u` is at `*pos`, leaving `*pos` on
/// its last hex digit. A high surrogate must be followed by an escaped low
/// surrogate, and the pair is one code point (how UTF-16-minded encoders
/// such as Python's `json.dumps` write characters outside the BMP); a lone
/// or reversed surrogate is an error naming the escape's byte offset.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos - 1;
    let hex4 = |from: usize| -> Option<u32> {
        bytes
            .get(from..from + 4)?
            .iter()
            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
    };
    let code = hex4(*pos + 1).ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
    *pos += 4;
    let code = match code {
        0xd800..=0xdbff => {
            let low = match bytes.get(*pos + 1..*pos + 3) {
                Some(b"\\u") => hex4(*pos + 3),
                _ => None,
            };
            match low {
                Some(low @ 0xdc00..=0xdfff) => {
                    *pos += 6;
                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                }
                _ => return Err(format!("lone surrogate \\u{code:04x} at byte {at}")),
            }
        }
        0xdc00..=0xdfff => return Err(format!("lone surrogate \\u{code:04x} at byte {at}")),
        code => code,
    };
    Ok(char::from_u32(code).expect("surrogates are excluded"))
}

/// Escapes `s` as a JSON string literal (including quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Typed field accessors shared by the JSONL readers
// ---------------------------------------------------------------------

pub(crate) fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    lookup(obj, key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

pub(crate) fn get_usize(obj: &[(String, Json)], key: &str) -> Result<usize, String> {
    get_u64(obj, key).map(|v| v as usize)
}

pub(crate) fn get_bool(obj: &[(String, Json)], key: &str) -> Result<bool, String> {
    match lookup(obj, key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean field `{key}`")),
    }
}

pub(crate) fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    lookup(obj, key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

pub(crate) fn get_opt_str(obj: &[(String, Json)], key: &str) -> Result<Option<String>, String> {
    match lookup(obj, key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("field `{key}` is not a string")),
    }
}

pub(crate) fn get_opt_u32(obj: &[(String, Json)], key: &str) -> Result<Option<u32>, String> {
    match lookup(obj, key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as u32))
            .ok_or_else(|| format!("field `{key}` is neither integer nor null")),
    }
}

pub(crate) fn get_u32_array(obj: &[(String, Json)], key: &str) -> Result<Vec<u32>, String> {
    lookup(obj, key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array field `{key}`"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|n| n as u32)
                .ok_or_else(|| format!("non-integer element in `{key}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY_SCHEMA: &str = r#"{
        "oneOf": [
            {
                "properties": {
                    "kind": { "const": "Ping" },
                    "seq": { "type": "integer" },
                    "tag": { "type": ["string", "null"] }
                },
                "required": ["kind", "seq"]
            }
        ]
    }"#;

    #[test]
    fn validates_conforming_lines_and_counts_them() {
        let jsonl = "{\"kind\":\"Ping\",\"seq\":1}\n\n{\"kind\":\"Ping\",\"seq\":2,\"tag\":null}\n";
        assert_eq!(validate_jsonl(TOY_SCHEMA, jsonl), Ok(2));
    }

    #[test]
    fn rejects_unknown_kind_and_unknown_field_with_line_numbers() {
        let err = validate_jsonl(TOY_SCHEMA, "{\"kind\":\"Pong\",\"seq\":1}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err =
            validate_jsonl(TOY_SCHEMA, "{\"kind\":\"Ping\",\"seq\":1,\"x\":2}\n").unwrap_err();
        assert!(err.contains("unexpected field `x`"), "{err}");
    }

    #[test]
    fn rejects_type_mismatches_and_truncated_lines() {
        let err = validate_jsonl(TOY_SCHEMA, "{\"kind\":\"Ping\",\"seq\":\"one\"}\n").unwrap_err();
        assert!(err.contains("expected one of"), "{err}");
        let err = validate_jsonl(TOY_SCHEMA, "{\"kind\":\"Ping\",\"seq").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn schema_kinds_lists_branches() {
        assert_eq!(schema_kinds(TOY_SCHEMA), Ok(vec!["Ping".to_owned()]));
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn json_roundtrip_accessors() {
        let v = Json::parse("{\"a\":1,\"b\":[true,null],\"c\":\"x\"}").unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(get_u64(obj, "a"), Ok(1));
        assert_eq!(get_str(obj, "c"), Ok("x"));
        assert!(get_bool(obj, "a").is_err());
        assert_eq!(lookup(obj, "b").and_then(Json::as_array).unwrap().len(), 2);
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        let decode = |text: &str| Json::parse(text).map(|v| v.as_str().map(str::to_owned));
        assert_eq!(decode("\"\\u0041\\u00e9\""), Ok(Some("A\u{e9}".to_owned())));
        // U+1F600 as an escaped UTF-16 pair, as `json.dumps` writes it.
        assert_eq!(
            decode("\"x\\ud83d\\ude00y\""),
            Ok(Some("x\u{1f600}y".to_owned()))
        );
        assert_eq!(
            decode("\"\\uDBFF\\uDFFF\""),
            Ok(Some("\u{10ffff}".to_owned()))
        );
    }

    #[test]
    fn bad_unicode_escapes_are_errors_naming_the_offset() {
        for (text, error) in [
            ("\"\\ud83d\"", "lone surrogate \\ud83d at byte 1"),
            ("\"ab\\ud83dx\"", "lone surrogate \\ud83d at byte 3"),
            ("\"\\ud83d\\u0041\"", "lone surrogate \\ud83d at byte 1"),
            // Reversed pair: the low half first.
            ("\"\\ude00\\ud83d\"", "lone surrogate \\ude00 at byte 1"),
            // Exactly four hex digits: no sign, no short or non-hex forms.
            ("\"\\u+041\"", "bad \\u escape at byte 1"),
            ("\"\\u-041\"", "bad \\u escape at byte 1"),
            ("\"\\u04g1\"", "bad \\u escape at byte 1"),
            ("\"\\u04\"", "bad \\u escape at byte 1"),
        ] {
            assert_eq!(Json::parse(text), Err(error.to_owned()), "{text}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_naming_the_offset() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_JSON_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_JSON_DEPTH} levels at byte {MAX_JSON_DEPTH}")
        );
        // Objects count too, mixed with arrays.
        let mixed = "{\"a\":[".repeat(MAX_JSON_DEPTH) + "1";
        let err = Json::parse(&mixed).expect_err("too deep");
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // A request line nested 300 000 deep is rejected after 128 levels,
        // on a 1 MiB stack: far less than the recursion it would otherwise need.
        let hostile = format!("{{\"id\":\"b\",\"input\":{}}}", nested(300_000));
        let err = std::thread::Builder::new()
            .stack_size(1024 * 1024)
            .spawn(move || Json::parse(&hostile))
            .expect("spawn")
            .join()
            .expect("no stack overflow")
            .expect_err("too deep");
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }
}
