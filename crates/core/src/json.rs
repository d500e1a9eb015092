//! Minimal JSON: one [`Value`] tree, a compact writer (`Value`'s
//! `Display`), a standard-JSON parser ([`parse`]), the string escaper
//! ([`esc_json`]) the hand-written report writers share, and
//! [`json_object!`](crate::json_object) for encoders.
//!
//! Integers stay exact: a number written without a fraction or exponent
//! is held as an `i128`, which covers the whole `u64` and `i64` ranges,
//! and the typed accessors ([`Value::as_u64`], [`Value::int_field`])
//! return `None`/`Err` for a value out of the asked type's range instead
//! of rounding or truncating it. Objects keep their members in insertion
//! (or document) order, so an encoder's output lists fields as written.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without a fraction or exponent, held exactly.
    Int(i128),
    /// A number written with a fraction or exponent.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in order ([`parse`] rejects duplicate keys).
    Object(Vec<(String, Value)>),
}

/// An object [`Value`] from `name` or `name: expr` entries, in order. A
/// bare `name` is the variable of that name; each value goes through
/// `Value::from`.
///
/// The struct form `json_object!(Ty { a, b: f(b) } = src)` first
/// destructures `src` with no `..`, so a field added to `Ty` fails to
/// compile until its encoder lists it.
#[macro_export]
macro_rules! json_object {
    (@value $f:ident) => { $crate::json::Value::from($f) };
    (@value $f:ident $v:expr) => { $crate::json::Value::from($v) };
    ($ty:ident { $($f:ident $(: $v:expr)?),* $(,)? } = $src:expr) => {{
        let $ty { $($f),* } = $src;
        $crate::json_object!($($f $(: $v)?),*)
    }};
    ($($f:ident $(: $v:expr)?),* $(,)?) => {
        $crate::json::Value::object([$((stringify!($f), $crate::json_object!(@value $f $($v)?))),*])
    };
}

static NULL: Value = Value::Null;

impl Value {
    /// An object with `members` in the given order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The integer, if it is one in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this is an integer in `u64` range.
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// Whether this is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// Member `key` of an object (`None` for a missing key or a
    /// non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Member `key`, which must be present.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Member `key` as an integer of type `T`. `Err` when it is missing,
    /// not an integer (a float such as `4.0` included), or out of `T`'s
    /// range.
    pub fn int_field<T: TryFrom<i128>>(&self, key: &str) -> Result<T, String> {
        match self.field(key)? {
            Value::Int(i) => {
                T::try_from(*i).map_err(|_| format!("field `{key}`: {i} is out of range"))
            }
            _ => Err(format!("field `{key}`: expected an integer")),
        }
    }

    /// Member `key` as a boolean, which must be present.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("field `{key}`: expected a boolean")),
        }
    }

    /// Member `key` as a string, which must be present.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?.as_str().ok_or_else(|| format!("field `{key}`: expected a string"))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

macro_rules! int_conversions {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                *self == Value::Int(i128::from(*other))
            }
        }
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Int(i128::from(v))
            }
        }
    )*};
}
int_conversions!(u8, u32, u64, i32);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Compact JSON (no whitespace). Non-finite floats, which JSON cannot
/// represent, are written as `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if !x.is_finite() => f.write_str("null"),
            // Keep a fraction so the number reads back as a float.
            Value::Float(x) if x.fract() == 0.0 => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::String(s) => write!(f, "\"{}\"", esc_json(s)),
            Value::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { "," } else { "" })?;
                }
                f.write_str("]")
            }
            Value::Object(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    write!(f, "{}\"{}\":{v}", if i > 0 { "," } else { "" }, esc_json(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// enough for benchmark labels and panic messages.
pub fn esc_json(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\r' => o.push_str("\\r"),
            '\t' => o.push_str("\\t"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o
}

/// Deepest array/object nesting [`parse`] accepts, so hostile input
/// cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// Parse one standard JSON document (RFC 8259), surrounded by optional
/// whitespace. Duplicate object keys, lone surrogate escapes and numbers
/// beyond `f64` range are errors. The error names the byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `word` if the input continues with it.
    fn eat(&mut self, word: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(word);
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Consume `word` after optional whitespace, or fail.
    fn expect(&mut self, word: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(word) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        let literals = [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ];
        for (word, v) in literals {
            if self.eat(word) {
                return Ok(v);
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.items("]", |p| p.value(depth + 1)).map(Value::Array),
            Some(b'{') => {
                let members = self.items("}", |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(":")?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                for (i, (k, _)) in members.iter().enumerate() {
                    if members[..i].iter().any(|(seen, _)| seen == k) {
                        return Err(self.err(&format!("duplicate key `{k}`")));
                    }
                }
                Ok(Value::Object(members))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, the cursor on
    /// its opening bracket.
    fn items<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            if !self.eat(",") {
                self.expect(close)?;
                return Ok(out);
            }
        }
    }

    /// A string literal, the cursor on its opening quote.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// One escape sequence, the cursor just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                // A high surrogate must pair with a low one (UTF-16).
                if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let hex = hex.ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Consume a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat("-");
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits > 0 && !(leading_zero && int_digits > 1);
        let mut float = false;
        if self.eat(".") {
            ok &= self.digits() > 0;
            float = true;
        }
        if self.eat("e") || self.eat("E") {
            let _ = self.eat("+") || self.eat("-");
            ok &= self.digits() > 0;
            float = true;
        }
        if !ok {
            return Err(self.err("bad number"));
        }
        let lit = &self.text[start..self.pos];
        if !float {
            if let Ok(i) = lit.parse() {
                return Ok(Value::Int(i));
            }
        }
        match lit.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_the_awkward_cases() {
        assert_eq!(esc_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc_json("\u{1}"), "\\u0001");
        assert_eq!(esc_json("plain"), "plain");
    }

    #[test]
    fn writer_output_parses_back_to_the_same_value() {
        let text = "quote \" tab \t \u{1} é 𝄞";
        let v = json_object!(
            max: u64::MAX,
            min: Value::Int(i128::from(i64::MIN)),
            half: Value::Float(0.5),
            two: Value::Float(2.0),
            text,
            list: vec![Value::Null, true.into(), Value::Array(vec![])],
            empty: Value::object([]),
        );
        let out = v.to_string();
        assert!(
            out.starts_with(
                r#"{"max":18446744073709551615,"min":-9223372036854775808,"half":0.5,"two":2.0,"#
            ),
            "{out}"
        );
        assert_eq!(parse(&out), Ok(v));
    }

    #[test]
    fn struct_form_writes_every_field_in_order() {
        #[derive(Clone, Copy)]
        struct Pair {
            a: u32,
            b: bool,
        }
        let p = Pair { a: 7, b: true };
        assert_eq!(json_object!(Pair { b, a: a + 1 } = p).to_string(), r#"{"b":true,"a":8}"#);
    }

    #[test]
    fn parser_reads_standard_json() {
        let text = r#" { "a" : [1, -2, 3.5e2, true, null, 0, -0.25E-1],
            "s": "\u00e9\ud834\udd1e\/" } "#;
        let v = parse(text).unwrap();
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][2], Value::Float(350.0));
        assert_eq!(v["a"][3], Value::Bool(true));
        assert_eq!(v["a"][4], Value::Null);
        assert_eq!(v["a"][5], 0);
        assert_eq!(v["a"][6], Value::Float(-0.025));
        assert_eq!(v["s"], "é𝄞/");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn integers_stay_exact() {
        let v = parse("[18446744073709551615, 18446744073709551616, -1, 4.0]").unwrap();
        assert_eq!(v[0].as_u64(), Some(u64::MAX));
        assert_eq!(v[1].as_u64(), None, "beyond u64 is not clamped");
        assert_eq!(v[2].as_u64(), None, "negative is not wrapped");
        assert_eq!(v[3].as_u64(), None, "a float is not an integer");
        let o = parse(r#"{"a": 256, "b": 255, "c": 1.5}"#).unwrap();
        assert!(o.int_field::<u8>("a").is_err());
        assert_eq!(o.int_field::<u8>("b"), Ok(255));
        assert!(o.int_field::<u32>("c").is_err());
        assert!(o.int_field::<u32>("d").is_err());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{a:1}", "01", "-01", "1.", "-", "1e", ".5",
            "+1", "\"abc", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"", "\"\\udc00\"",
            "\"\\ud800\\u0041\"", "\"a\nb\"", "{\"a\":1,\"a\":2}", "[1] 2", "nul", "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }
}
