//! The little JSON this benchmark speaks (the build is offline, no serde):
//! a trial child prints one flat object of numbers, the parent prints the
//! driver's result line. Strings are metric names and units, whose
//! charset needs no escaping; anything else is rejected, not escaped.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Num(f64),
    Str(String),
    Bool(bool),
    Obj(Vec<(String, Json)>),
}

/// Names are `[A-Za-z0-9_.-]`, units add `/` and `%`.
pub fn plain(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-/%".contains(&b))
}

fn write(out: &mut String, v: &Json) {
    match v {
        // `{}` prints the shortest digits that read back as the same f64.
        Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Json::Num(_) => out.push('0'),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Str(s) => {
            assert!(plain(s), "string {s:?} needs escaping");
            out.push('"');
            out.push_str(s);
            out.push('"');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(out, &Json::Str(k.clone()));
                out.push_str(": ");
                write(out, v);
            }
            out.push('}');
        }
    }
}

impl Json {
    pub fn render(&self) -> String {
        let mut out = String::new();
        write(&mut out, self);
        out
    }

    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        self.ws();
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat("\"") {
            return None;
        }
        let start = self.i;
        while *self.s.get(self.i)? != b'"' {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.s[start..self.i]).ok()?;
        self.i += 1;
        plain(s).then(|| s.to_string())
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat("}") {
                    return Some(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    if !self.eat(":") {
                        return None;
                    }
                    fields.push((key, self.value()?));
                    if self.eat("}") {
                        return Some(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return None;
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.eat("true").then_some(Json::Bool(true)),
            b'f' => self.eat("false").then_some(Json::Bool(false)),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                let n: f64 = std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .parse()
                    .ok()?;
                Some(Json::Num(n))
            }
        }
    }
}

/// A flat object of numbers: what a trial child hands its parent.
pub fn flat(pairs: &[(String, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn round_trips_every_metric_name_and_unit() {
        let metrics: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        let obj = Json::Obj(
            metrics
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let cell = Json::Obj(vec![
                        ("value".into(), Json::Num(i as f64 * 1.000_000_1 + 1e-9)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]);
                    (m.name.to_string(), cell)
                })
                .collect(),
        );
        assert_eq!(Json::parse(&obj.render()), Some(obj));
    }

    #[test]
    fn round_trips_the_name_charset() {
        let name = "AZaz09_.-";
        let unit = "1/s%";
        let obj = Json::Obj(vec![
            (name.into(), Json::Str(unit.into())),
            ("ok".into(), Json::Bool(true)),
            ("n".into(), Json::Num(-0.000_001_234_567_890_123)),
        ]);
        assert_eq!(Json::parse(&obj.render()), Some(obj));
    }

    #[test]
    fn rejects_what_it_cannot_represent() {
        assert!(!plain("a b"));
        assert!(!plain("\"q\""));
        assert!(!plain("µs"));
        assert_eq!(Json::parse("{\"a\": 1} trailing"), None);
        assert_eq!(Json::parse("{\"a b\": 1}"), None);
        assert_eq!(Json::parse("{\"a\": }"), None);
    }
}
