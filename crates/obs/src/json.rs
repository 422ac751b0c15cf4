//! The workspace's one JSON reader ([`Json::parse`]) and string writer
//! ([`write_string`]).
//!
//! Plans, journal records, trace spans, the bench trajectory and
//! `STATS_JSON` snapshots all read through [`Json::parse`]. Several come
//! off disk or a socket, so it is strict and never panics: trailing bytes,
//! missing separators, bad escapes and nesting past [`MAX_DEPTH`] are each
//! a [`JsonError`]. A digits-only literal that fits a `u64` stays exact
//! ([`Json::U64`]): trace ids and seeds go past 2^53.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest nesting [`Json::parse`] accepts. The workspace's formats
/// nest four levels; the cap keeps hostile input off the end of the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A digits-only literal that fits a `u64`, kept exact.
    U64(u64),
    /// Every other number.
    F64(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; a repeated key keeps its last value.
    Obj(BTreeMap<String, Json>),
}

/// Why a document did not parse: the first problem and its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one document; only whitespace may follow it.
    ///
    /// # Errors
    ///
    /// The first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        match p.skip_ws() {
            None => Ok(v),
            Some(_) => Err(p.err("trailing characters after document")),
        }
    }

    /// An object's field; `None` when missing or not an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(o) => o.get(key),
            _ => None,
        }
    }

    /// The exact value of a [`Json::U64`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number, as the nearest `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// A string's contents.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Appends `s` as a quoted JSON string literal: `"` and `\` escaped, `\n`,
/// `\r` and `\t` by name, every other character below U+0020 as `\u00XX`.
pub fn write_string(out: &mut String, s: &str) {
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
}

/// A recursive-descent cursor. It only ever steps over ASCII bytes, so
/// every slice it takes falls on a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl std::fmt::Display) -> JsonError {
        JsonError(format!("{message} at byte {}", self.pos))
    }

    /// Consumes the longest run of bytes matching `keep`.
    fn take_while(&mut self, keep: impl Fn(&u8) -> bool) -> &'a str {
        let text: &'a str = self.text;
        let start = self.pos;
        self.pos += text.as_bytes()[start..]
            .iter()
            .take_while(|b| keep(b))
            .count();
        &text[start..self.pos]
    }

    /// Skips whitespace; returns the next byte without consuming it.
    fn skip_ws(&mut self) -> Option<u8> {
        self.take_while(u8::is_ascii_whitespace);
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace, then consumes `b` or fails naming `what`.
    fn expect(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.skip_ws() != Some(b) {
            return Err(self.err(format!("expected {what}")));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.skip_ws() {
            None => Err(self.err("unexpected end")),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = BTreeMap::new();
                self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':', "':' after a key")?;
                    fields.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't' | b'f' | b'n') => match self.take_while(u8::is_ascii_alphabetic) {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Null),
                word => Err(self.err(format!("unknown keyword {word:?}"))),
            },
            Some(b'-' | b'0'..=b'9') => {
                let lit = self.take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b));
                match lit.parse() {
                    Ok(n) if lit.bytes().all(|b| b.is_ascii_digit()) => Ok(Json::U64(n)),
                    _ => lit
                        .parse()
                        .map(Json::F64)
                        .map_err(|_| self.err(format!("bad number {lit:?}"))),
                }
            }
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// `open item (',' item)* close`, with the cursor on `open`.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        if self.skip_ws() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.skip_ws() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(format!("expected ',' or '{}'", char::from(close)))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "a string")?;
        let mut s = String::new();
        loop {
            s.push_str(self.take_while(|&b| b != b'"' && b != b'\\'));
            let bytes = self.text.as_bytes();
            match bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => self.pos += 1, // the backslash
            }
            s.push(match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let c = (self.text.get(self.pos + 1..self.pos + 5))
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?))
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    c
                }
                _ => return Err(self.err("bad escape")),
            });
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_past_the_depth_cap_is_an_error_not_a_stack_overflow() {
        let nest = |n: usize| Json::parse(&("[".repeat(n) + &"]".repeat(n)));
        assert!(nest(MAX_DEPTH).is_ok());
        assert!(nest(MAX_DEPTH + 1).is_err_and(|e| e.0.contains("nesting")));
    }
}
