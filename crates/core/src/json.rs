//! The workspace's one JSON codec: one object writer ([`obj`]) and one
//! typed field reader ([`Json::field`] / [`Json::req`]) over one parser
//! ([`parse_json`]). Every trace line, journal record, artifact and wire
//! frame the workspace writes goes through the writer and is read back
//! through the reader, so how a record becomes JSON text is decided
//! here and nowhere else. Everything is hand-rolled: the workspace
//! builds offline, no serde.
//!
//! Writer rules:
//! - keys and string values are escaped by [`esc`] (the lower crate's
//!   `ifko_fko::diag::json_escape`, shared with its diagnostics): quote,
//!   backslash and every control character, so a journal line or a wire
//!   frame never carries a raw newline;
//! - fields are separated by `,` with no whitespace, in the order they
//!   are written;
//! - an absent value is `null` when the field is always present
//!   (`Option<T>` as a [`Value`]) and is left out when the field is
//!   optional ([`Obj::maybe`]);
//! - floats are either fixed precision ([`Fixed`]) or Rust's shortest
//!   round-trip form ([`Float`]), which reads back bit-identical;
//! - pre-serialized objects and arrays are spliced in verbatim ([`Raw`]).
//!
//! Reader rule: an absent optional field takes its default; a field
//! present with the wrong type, or out of range, is refused with a
//! [`FieldError`] — never a truncation, never a silent default.

use std::fmt::Write as _;

/// A parsed JSON value. An integer token in `i64::MIN..=u64::MAX` is
/// kept exactly as [`Json::Int`] — seeds and fingerprints use all 64 bits
/// and an `f64` holds 53 — and every other number is an `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    /// A `Num` holding a whole number inside `range`.
    fn whole(&self, range: std::ops::Range<f64>) -> Option<f64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && range.contains(n) => Some(*n),
            _ => None,
        }
    }
    /// The number as a `u64`, if it is one: `None` for a fractional,
    /// negative or out-of-range value, never a truncation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => self.whole(0.0..u64::MAX as f64).map(|n| n as u64),
        }
    }
    /// The number as a `u32`, under the same rule as [`Json::as_u64`].
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }
    /// The number as an `i64`, under the same rule as [`Json::as_u64`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            _ => self
                .whole(i64::MIN as f64..i64::MAX as f64)
                .map(|n| n as i64),
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// An array whose every item is a number.
    pub fn as_f64s(&self) -> Option<Vec<f64>> {
        match self {
            Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. Every record written today
/// nests fewer than 8 levels; a value nested deeper than this is a
/// syntax error, so no input can run the recursive parser off its stack.
const MAX_DEPTH: usize = 128;

/// Parse one complete JSON value; `None` on any syntax error, trailing
/// garbage or nesting deeper than `MAX_DEPTH`.
pub fn parse_json(s: &str) -> Option<Json> {
    let b = s.as_bytes();
    let mut i = 0;
    let v = parse_value(b, &mut i, MAX_DEPTH)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Some(v)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\r' | b'\n') {
        *i += 1;
    }
}

/// One value, inside at most `depth` more levels of nesting.
fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Option<Json> {
    skip_ws(b, i);
    match *b.get(*i)? {
        b'{' => {
            let depth = depth.checked_sub(1)?;
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return None;
                }
                *i += 1;
                let val = parse_value(b, i, depth)?;
                fields.push((key, val));
                skip_ws(b, i);
                match b.get(*i)? {
                    b',' => *i += 1,
                    b'}' => {
                        *i += 1;
                        return Some(Json::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            let depth = depth.checked_sub(1)?;
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i, depth)?);
                skip_ws(b, i);
                match b.get(*i)? {
                    b',' => *i += 1,
                    b']' => {
                        *i += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => Some(Json::Str(parse_string(b, i)?)),
        b't' => {
            if b[*i..].starts_with(b"true") {
                *i += 4;
                Some(Json::Bool(true))
            } else {
                None
            }
        }
        b'f' => {
            if b[*i..].starts_with(b"false") {
                *i += 5;
                Some(Json::Bool(false))
            } else {
                None
            }
        }
        b'n' => {
            if b[*i..].starts_with(b"null") {
                *i += 4;
                Some(Json::Null)
            } else {
                None
            }
        }
        _ => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                *i += 1;
            }
            if *i == start {
                return None;
            }
            let tok = std::str::from_utf8(&b[start..*i]).ok()?;
            match tok.parse::<i128>() {
                Ok(n) if (i64::MIN as i128..=u64::MAX as i128).contains(&n) => Some(Json::Int(n)),
                _ => tok.parse::<f64>().ok().map(Json::Num),
            }
        }
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Option<String> {
    if b.get(*i) != Some(&b'"') {
        return None;
    }
    *i += 1;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or escape in one piece;
        // both are ASCII, so the run ends on a character boundary.
        let run = b[*i..].iter().position(|&c| c == b'"' || c == b'\\')?;
        out.push_str(std::str::from_utf8(&b[*i..*i + run]).ok()?);
        *i += run + 1;
        if b[*i - 1] == b'"' {
            return Some(out);
        }
        match *b.get(*i)? {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'u' => {
                let hex = b.get(*i + 1..*i + 5)?;
                let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                out.push(char::from_u32(code)?);
                *i += 4;
            }
            _ => return None,
        }
        *i += 1;
    }
}

pub use ifko_fko::diag::json_escape as esc;
use ifko_fko::diag::json_escape_into;

// ---------------------------------------------------------------------------
// The field reader
// ---------------------------------------------------------------------------

/// Why a record was refused: a field it must carry is missing, or a
/// field it carries has the wrong type or is out of range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldError {
    Missing(String),
    Wrong { field: String, want: &'static str },
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::Missing(field) => write!(f, "missing field `{field}`"),
            FieldError::Wrong { field, want } => write!(f, "field `{field}` must be {want}"),
        }
    }
}

/// A type [`Json::field`] reads: which values are one, and what the
/// refusal of any other value says it must be.
pub trait FromJson<'a>: Sized {
    const WANT: &'static str;
    fn from_json(v: &'a Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty, $want:literal, |$v:ident| $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            const WANT: &'static str = $want;
            fn from_json($v: &'a Json) -> Option<$t> {
                $read
            }
        }
    )*};
}

from_json! {
    &'a str, "a string", |v| v.as_str();
    String, "a string", |v| v.as_str().map(str::to_string);
    bool, "a boolean", |v| v.as_bool();
    u64, "a non-negative integer", |v| v.as_u64();
    u32, "a non-negative integer below 2^32", |v| v.as_u32();
    usize, "a non-negative integer", |v| v.as_u64().and_then(|n| usize::try_from(n).ok());
    i64, "an integer", |v| v.as_i64();
    f64, "a number", |v| v.as_f64();
    Vec<f64>, "an array of numbers", |v| v.as_f64s();
    &'a [Json], "an array", |v| match v {
        Json::Arr(items) => Some(items.as_slice()),
        _ => None,
    };
    &'a Json, "an object", |v| matches!(v, Json::Obj(_)).then_some(v);
}

/// `null` or a `T`: a field that is always written, as `null` when absent.
impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    const WANT: &'static str = T::WANT;
    fn from_json(v: &'a Json) -> Option<Option<T>> {
        match v {
            Json::Null => Some(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl Json {
    /// The one field reader: field `name` as a `T`, `None` when absent,
    /// and a [`FieldError`] when present as anything that is not a `T`.
    pub fn field<'a, T: FromJson<'a>>(&'a self, name: &str) -> Result<Option<T>, FieldError> {
        self.get(name)
            .map(|v| {
                T::from_json(v).ok_or_else(|| FieldError::Wrong {
                    field: name.to_string(),
                    want: T::WANT,
                })
            })
            .transpose()
    }

    /// [`Json::field`] for a field the record must carry.
    pub fn req<'a, T: FromJson<'a>>(&'a self, name: &str) -> Result<T, FieldError> {
        self.field(name)?
            .ok_or_else(|| FieldError::Missing(name.to_string()))
    }
}

// ---------------------------------------------------------------------------
// The object writer
// ---------------------------------------------------------------------------

/// A value the object writer writes.
pub trait Value {
    fn write(&self, out: &mut String);
}

impl Value for str {
    fn write(&self, out: &mut String) {
        out.push('"');
        json_escape_into(out, self);
        out.push('"');
    }
}

impl Value for String {
    fn write(&self, out: &mut String) {
        self.as_str().write(out)
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write(&self, out: &mut String) {
        (**self).write(out)
    }
}

macro_rules! display_value {
    ($($t:ty)*) => {$(
        impl Value for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_value!(bool u32 u64 usize i64);

/// `null` when absent.
impl<T: Value> Value for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// Pre-serialized JSON (an object or an array), spliced in verbatim.
pub struct Raw<'a>(pub &'a str);

impl Value for Raw<'_> {
    fn write(&self, out: &mut String) {
        out.push_str(self.0)
    }
}

/// A float at a fixed number of decimals: `Fixed(v, 4)` is `{v:.4}`.
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// A float in Rust's shortest round-trip form (`{v:?}`): it reads back
/// bit-identical.
pub struct Float(pub f64);

impl Value for Float {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{:?}", self.0);
    }
}

/// An array of the values an iterator yields.
pub struct Array<I>(pub I);

impl<I> Value for Array<I>
where
    I: IntoIterator + Clone,
    I::Item: Value,
{
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.0.clone().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write(out);
        }
        out.push(']');
    }
}

/// A JSON object under construction: fields in the order written, all
/// appended into one `String`.
pub struct Obj(String);

/// Start an object.
pub fn obj() -> Obj {
    let mut out = String::with_capacity(128);
    out.push('{');
    Obj(out)
}

impl Obj {
    /// Append field `key`.
    pub fn field(mut self, key: &str, v: impl Value) -> Obj {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        key.write(&mut self.0);
        self.0.push(':');
        v.write(&mut self.0);
        self
    }

    /// Append field `key` when `v` is present; leave it out otherwise.
    pub fn maybe(self, key: &str, v: Option<impl Value>) -> Obj {
        match v {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// A nested object.
impl Value for Obj {
    fn write(&self, out: &mut String) {
        out.push_str(&self.0);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_exact_and_never_a_truncation() {
        let u = |s: &str| parse_json(s).unwrap().as_u64();
        assert_eq!(u("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("1e3"), Some(1000));
        assert_eq!(u("1024.0"), Some(1024));
        for refused in ["1024.7", "-1", "18446744073709551616", "1e300", "\"7\""] {
            assert_eq!(u(refused), None, "{refused}");
        }
        let u32_ = |s: &str| parse_json(s).unwrap().as_u32();
        assert_eq!(u32_("4294967295"), Some(u32::MAX));
        assert_eq!(u32_("4294967297"), None);
        assert_eq!(u32_("-1"), None);
        let i = |s: &str| parse_json(s).unwrap().as_i64();
        assert_eq!(i("-128"), Some(-128));
        assert_eq!(i("9223372036854775807"), Some(i64::MAX));
        assert_eq!(i("9223372036854775808"), None);
        assert_eq!(i("-0.5"), None);
        // An integer is still a number to a reader that wants a float.
        assert_eq!(parse_json("7").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn nesting_past_max_depth_is_a_syntax_error() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse_json(&nested("[", "]", MAX_DEPTH)).is_some());
        assert!(parse_json(&nested("[", "]", MAX_DEPTH + 1)).is_none());
        let objects = "{\"k\":".repeat(MAX_DEPTH - 1) + "{}" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse_json(&objects).is_some());
        assert!(parse_json(&format!("[{objects}]")).is_none());
        assert!(parse_json(&"[".repeat(200_000)).is_none());
    }

    #[test]
    fn object_serializes_and_escapes() {
        let s = obj()
            .field("ok", true)
            .field("name", "a\"b\nc")
            .field("n", 42u64)
            .maybe("absent", None::<u64>)
            .field("none", None::<u64>)
            .field("params", Raw("{\"x\":1}"))
            .field("r", Fixed(1.0 / 3.0, 4))
            .field("f", Float(0.1))
            .field("xs", Array([1u32, 2]))
            .finish();
        assert_eq!(
            s,
            r#"{"ok":true,"name":"a\"b\nc","n":42,"none":null,"params":{"x":1},"r":0.3333,"f":0.1,"xs":[1,2]}"#
        );
        let v = parse_json(&s).unwrap();
        assert_eq!(v.req::<&str>("name"), Ok("a\"b\nc"));
        assert_eq!(v.field::<u64>("absent"), Ok(None));
        assert_eq!(v.req::<Option<u64>>("none"), Ok(None));
        assert_eq!(
            v.req::<&Json>("params").and_then(|p| p.req::<u64>("x")),
            Ok(1)
        );
    }

    #[test]
    fn the_field_reader_refuses_what_it_cannot_read_exactly() {
        let v = parse_json(r#"{"n":4294967297,"s":"x","neg":-1,"f":1.5}"#).unwrap();
        let wrong = |field: &str, want| FieldError::Wrong {
            field: field.to_string(),
            want,
        };
        assert_eq!(v.req::<u64>("n"), Ok(4294967297));
        assert_eq!(v.req::<u32>("n"), Err(wrong("n", u32::WANT)));
        assert_eq!(v.req::<u32>("s"), Err(wrong("s", u32::WANT)));
        assert_eq!(v.req::<u64>("neg"), Err(wrong("neg", u64::WANT)));
        assert_eq!(v.req::<i64>("f"), Err(wrong("f", i64::WANT)));
        assert_eq!(v.field::<u32>("absent"), Ok(None));
        assert_eq!(
            v.req::<u32>("absent"),
            Err(FieldError::Missing("absent".into()))
        );
        assert_eq!(
            wrong("n", u64::WANT).to_string(),
            "field `n` must be a non-negative integer"
        );
    }

    #[test]
    fn negative_integers_are_exact() {
        let i = |s: &str| parse_json(s).unwrap().as_i64();
        assert_eq!(i("-9007199254740993"), Some(-(1 << 53) - 1));
        assert_eq!(i("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(i("-1e30"), None);
        assert_eq!(parse_json("-3").unwrap().as_u64(), None);
    }
}
