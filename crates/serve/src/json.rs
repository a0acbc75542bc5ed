//! Hand-rolled JSON rendering (the build environment is offline; no serde).
//!
//! Only what the HTTP responses need: objects, arrays, numbers, strings,
//! booleans, null. `f64` renders via Rust's shortest-roundtrip `Display`,
//! which is valid JSON for every finite value; non-finite values render as
//! `null` (they cannot occur in converged estimates, but a renderer must
//! not emit invalid JSON under any input).

use std::fmt::Write as _;

/// Incremental JSON object/array writer.
///
/// ```
/// use dppr_serve::json::JsonBuf;
/// let mut j = JsonBuf::new();
/// j.begin_obj();
/// j.key("ok").bool(true);
/// j.key("count").num(2.0);
/// j.key("name").str("a \"b\"");
/// j.end_obj();
/// assert_eq!(j.finish(), r#"{"ok":true,"count":2,"name":"a \"b\""}"#);
/// ```
#[derive(Default)]
pub struct JsonBuf {
    out: String,
    /// Whether the next element at the current nesting level needs a comma.
    need_comma: Vec<bool>,
}

impl JsonBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        JsonBuf::default()
    }

    fn elem(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    /// Opens an object value.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.elem();
        self.out.push('{');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.out.push('}');
        self
    }

    /// Opens an array value.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.elem();
        self.out.push('[');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The value that follows must not add its own comma.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
        self
    }

    /// Writes a number (integers render without a trailing `.0`).
    pub fn num(&mut self, v: f64) -> &mut Self {
        self.elem();
        if v.is_finite() {
            write!(self.out, "{v}").unwrap();
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes an unsigned integer exactly.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.elem();
        write!(self.out, "{v}").unwrap();
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.out, s);
        self
    }

    /// Writes a boolean.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.elem();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.elem();
        self.out.push_str("null");
        self
    }

    /// The rendered JSON.
    pub fn finish(self) -> String {
        self.out
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a one-field error object.
pub fn error_body(msg: &str) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("error").str(msg);
    j.end_obj();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures_and_escapes() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("xs").begin_arr();
        j.num(1.5).num(2.0).null();
        j.begin_obj();
        j.key("s").str("line\nbreak \"q\" \\ \u{1}");
        j.end_obj();
        j.end_arr();
        j.key("e").num(1e-5);
        j.key("inf").num(f64::INFINITY);
        j.end_obj();
        assert_eq!(
            j.finish(),
            r#"{"xs":[1.5,2,null,{"s":"line\nbreak \"q\" \\ \u0001"}],"e":0.00001,"inf":null}"#
        );
    }

    #[test]
    fn error_body_shape() {
        assert_eq!(error_body("no session"), r#"{"error":"no session"}"#);
    }
}
