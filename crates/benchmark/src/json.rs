//! A small JSON reader, enough for `BENCHMARK.json` and the result lines
//! this benchmark itself prints (no crates.io access, so no serde).

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document; `Err` carries the byte offset of the problem.
pub fn parse(text: &str) -> Result<Value, usize> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at == p.s.len() {
        Ok(v)
    } else {
        Err(p.at)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), usize> {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(self.at)
        }
    }

    fn value(&mut self) -> Result<Value, usize> {
        self.skip_ws();
        match self.s.get(self.at).copied().ok_or(self.at)? {
            b'n' => self.eat("null").map(|()| Value::Null),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            b'f' => self.eat("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.at),
                    }
                }
            }
            b'{' => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(":")?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(self.at),
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, usize> {
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.s[start..self.at])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or(start)
    }

    fn string(&mut self) -> Result<String, usize> {
        if self.s.get(self.at) != Some(&b'"') {
            return Err(self.at);
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at).copied().ok_or(self.at)? {
                b'"' => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.at);
                }
                b'\\' => {
                    let esc = self.s.get(self.at + 1).copied().ok_or(self.at)?;
                    self.at += 2;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or(self.at)?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(self.at)?;
                            self.at += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.at - 1),
                    }
                }
                c => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let v = parse(
            r#"{"correct": true, "attempted": 12, "failed": 0,
                "metrics": {"a.b_s": {"value": 1.5e-3, "unit": "s"}}, "l": [1, "x\n", null]}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
        let m = v.get("metrics").and_then(|m| m.get("a.b_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.0015));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(v.get("l").and_then(Value::as_array).unwrap().len(), 3);
        assert_eq!(
            v.get("l").unwrap().as_array().unwrap()[1],
            Value::Str("x\n".into())
        );
    }

    #[test]
    fn rejects_malformed_input_with_an_offset() {
        assert_eq!(parse("{\"a\": }"), Err(6));
        assert_eq!(parse("[1, 2"), Err(5));
        assert_eq!(parse("{} x"), Err(3));
        assert!(parse("\"open").is_err());
    }
}
