//! A small JSON value: enough to write result lines and trace files, and to
//! read `BENCHMARK.json` and result files back for `compare`. Std-only by
//! necessity (no registry in the build sandbox).

use std::fmt::Write as _;

/// A JSON document. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

/// Compact one-line rendering. Numbers print with every digit `f64` needs
/// to round-trip; whole numbers print without a fraction.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN/inf; a metric that is one is a bug upstream.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", quote(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn quote(s: &str) -> String {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.error("expected a member name"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error("expected ':'"));
            }
            pairs.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in the files this
                            // reads; map them to the replacement character.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_line() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            (
                "metrics",
                Json::obj([(
                    "latency_p50_ms",
                    Json::obj([
                        ("value", Json::Num(0.2871234567)),
                        ("unit", Json::Str("ms".into())),
                    ]),
                )]),
            ),
            ("note", Json::Str("a \"quoted\"\nline".into())),
            ("none", Json::Arr(vec![Json::Null, Json::Num(-1.5e-7)])),
        ]);
        let text = doc.to_string();
        assert!(text.contains("\"attempted\": 1000,"), "{text}");
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text), Ok(doc));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "\"open", "{\"a\":1} x", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn reads_nested_members() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}, "c": "A\/"}"#).expect("parse");
        let b = doc
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Json::as_array);
        assert_eq!(b.map(<[Json]>::len), Some(3));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("A/"));
        assert_eq!(doc.get("missing"), None);
    }
}
