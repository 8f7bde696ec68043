//! A minimal JSON object writer: every sub-command prints exactly one JSON
//! object on stdout, which `run.py` parses. The workspace has no JSON
//! crate, and the records here are flat enough not to need one.

use std::fmt::Write;

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// A float, printed with all its digits (non-finite values become
    /// `null`, which `run.py` rejects as a failed measurement).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Obj {
        let rendered = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        self.raw(key, rendered)
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Obj {
        self.raw(key, value.to_string())
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Obj {
        self.raw(key, value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Obj {
        self.raw(key, quote(value))
    }

    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut Obj {
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    pub fn obj(&mut self, key: &str, value: &Obj) -> &mut Obj {
        self.raw(key, value.render())
    }

    /// An already-rendered JSON value.
    pub fn raw(&mut self, key: &str, rendered: String) -> &mut Obj {
        self.fields.push((key.to_string(), rendered));
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", quote(key), value);
        }
        out.push('}');
        out
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
