//! The workspace's one JSON reader.
//!
//! Everything here is hand-rolled (the workspace builds offline, no
//! serde): a minimal parser ([`parse_json`] into [`Json`]) used by the
//! trace reader, the tuned-results database, the artifact format, the
//! worker and daemon wire protocol and the Chrome-trace validator. The
//! string escaper every hand-written serializer goes through is
//! `ifko_fko::diag::json_escape`, re-exported here as [`esc`] so the
//! lower crate's diagnostics and this crate share one. A string that
//! [`esc`] wrote is read back unchanged by [`parse_json`] — including
//! control characters, which a journal line or a wire frame must never
//! carry raw.

/// A parsed JSON value. An unsigned integer token that fits a `u64` is
/// kept exactly as [`Json::Int`] — seeds and fingerprints use all 64 bits
/// and an `f64` holds 53 — and every other number is an `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
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
            Json::Int(n) => Some(*n),
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

/// Parse one complete JSON value; `None` on any syntax error or trailing
/// garbage.
pub fn parse_json(s: &str) -> Option<Json> {
    let b = s.as_bytes();
    let mut i = 0;
    let v = parse_value(b, &mut i)?;
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

fn parse_value(b: &[u8], i: &mut usize) -> Option<Json> {
    skip_ws(b, i);
    match *b.get(*i)? {
        b'{' => {
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
                let val = parse_value(b, i)?;
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
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
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
            match tok.parse::<u64>() {
                Ok(n) => Some(Json::Int(n)),
                Err(_) => tok.parse::<f64>().ok().map(Json::Num),
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
}
