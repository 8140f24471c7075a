//! The workspace's single JSON writer.
//!
//! Every JSON emitter in the workspace — the profiler report, server
//! statistics, the experiment jobs' reports and the JSONL
//! event log — routes through [`JsonWriter`], so escaping and number
//! formatting are defined in exactly one place (`scripts/verify.sh`
//! grep-gates that [`json_escape`] stays the only escape implementation).
//!
//! Formatting policy:
//!
//! * **Strings** are escaped per RFC 8259: `"` and `\` are backslash
//!   escaped, the common control characters use their short forms
//!   (`\n`, `\r`, `\t`), all other control characters become `\u00XX`.
//!   Non-ASCII characters pass through verbatim (the output is UTF-8).
//! * **Floats** use Rust's shortest round-trip `Display` form, which is
//!   always a valid JSON number (no exponent, no trailing `.`). Non-finite
//!   values (`NaN`, `±∞`) have no JSON representation and are written as
//!   `null` — consumers must treat a null metric as "not a number" rather
//!   than drop the record.
//! * **Commas and colons** are managed by the writer; callers only state
//!   structure (`begin_object` … `key` … values … `end_object`).
//!
//! The writer is append-only and infallible: misuse (a value in an object
//! position without a [`JsonWriter::key`], mismatched `end_*`) panics in
//! debug builds via `debug_assert` and produces well-formed-but-wrong JSON
//! in release builds rather than aborting a long training run.
//!
//! # Example
//!
//! ```
//! use alf_obs::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.field_str("name", "conv1");
//! w.field_u64("flops", 1500);
//! w.key("per_block");
//! w.begin_array();
//! w.value_f64(0.5);
//! w.value_f64(f64::NAN); // -> null
//! w.end_array();
//! w.end_object();
//! assert_eq!(
//!     w.finish(),
//!     r#"{"name":"conv1","flops":1500,"per_block":[0.5,null]}"#
//! );
//! ```

/// Escapes `s` into `out` as the *interior* of a JSON string literal
/// (no surrounding quotes). This is the workspace's only escape
/// implementation; see the module docs for the exact policy.
pub fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xF;
                    out.push(char::from_digit(digit, 16).expect("hex digit"));
                }
            }
            c => out.push(c),
        }
    }
}

/// What the writer is currently inside of, for comma/colon management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Object,
    Array,
}

/// Streaming JSON writer over an owned `String`. See the module docs for
/// the formatting policy and an example.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    stack: Vec<Frame>,
    /// Whether the current container already holds at least one item.
    needs_comma: Vec<bool>,
    /// A `key(..)` was written and its value has not arrived yet.
    pending_key: bool,
}

impl JsonWriter {
    /// Fresh writer with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer reusing `buf`'s allocation (cleared first). The event log
    /// uses this to serialise one record per step without per-step heap
    /// traffic.
    pub fn reusing(mut buf: String) -> Self {
        buf.clear();
        Self {
            out: buf,
            ..Self::default()
        }
    }

    /// The JSON produced so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the writer, returning the JSON. Debug-asserts that every
    /// opened container was closed.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        debug_assert!(!self.pending_key, "key without a value");
        self.out
    }

    // ---- structure -----------------------------------------------------

    /// Opens a `{`. Valid at the root, after a `key`, or inside an array.
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.stack.push(Frame::Object);
        self.needs_comma.push(false);
    }

    /// Closes the innermost `{`.
    pub fn end_object(&mut self) {
        debug_assert_eq!(self.stack.last(), Some(&Frame::Object), "not in an object");
        debug_assert!(!self.pending_key, "key without a value");
        self.stack.pop();
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Opens a `[`. Valid at the root, after a `key`, or inside an array.
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.stack.push(Frame::Array);
        self.needs_comma.push(false);
    }

    /// Closes the innermost `[`.
    pub fn end_array(&mut self) {
        debug_assert_eq!(self.stack.last(), Some(&Frame::Array), "not in an array");
        self.stack.pop();
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Writes an object key (escaped) and its `:`; the next write supplies
    /// the value.
    pub fn key(&mut self, name: &str) {
        debug_assert_eq!(
            self.stack.last(),
            Some(&Frame::Object),
            "key outside an object"
        );
        debug_assert!(!self.pending_key, "two keys in a row");
        if let Some(nc) = self.needs_comma.last_mut() {
            if *nc {
                self.out.push(',');
            }
            *nc = true;
        }
        self.out.push('"');
        json_escape(&mut self.out, name);
        self.out.push_str("\":");
        self.pending_key = true;
    }

    // ---- scalar values -------------------------------------------------

    /// Writes a string value (escaped, quoted).
    pub fn value_str(&mut self, s: &str) {
        self.before_value();
        self.out.push('"');
        json_escape(&mut self.out, s);
        self.out.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.before_value();
        self.out.push_str(itoa_buffer(v, false).as_str());
    }

    /// Writes a signed integer value.
    pub fn value_i64(&mut self, v: i64) {
        self.before_value();
        if v < 0 {
            self.out
                .push_str(itoa_buffer(v.unsigned_abs(), true).as_str());
        } else {
            self.out.push_str(itoa_buffer(v as u64, false).as_str());
        }
    }

    /// Writes an `f64` value: shortest round-trip decimal for finite
    /// values, `null` for `NaN`/`±∞` (the workspace NaN policy).
    pub fn value_f64(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            // Rust's float Display is the shortest decimal that parses
            // back to the same bits and never uses exponent notation, so
            // it is always a valid JSON number.
            let mut buf = String::new();
            fmt_push(&mut buf, format_args!("{v}"));
            self.out.push_str(&buf);
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes an `f32` value under the same policy as
    /// [`JsonWriter::value_f64`] (formatted at `f32` precision, so the
    /// text round-trips through `f32` exactly).
    pub fn value_f32(&mut self, v: f32) {
        self.before_value();
        if v.is_finite() {
            let mut buf = String::new();
            fmt_push(&mut buf, format_args!("{v}"));
            self.out.push_str(&buf);
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a `null`.
    pub fn value_null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    // ---- key/value conveniences ---------------------------------------

    /// `key` + [`JsonWriter::value_str`].
    pub fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.value_str(v);
    }

    /// `key` + [`JsonWriter::value_u64`].
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.value_u64(v);
    }

    /// `key` + [`JsonWriter::value_i64`].
    pub fn field_i64(&mut self, key: &str, v: i64) {
        self.key(key);
        self.value_i64(v);
    }

    /// `key` + [`JsonWriter::value_f64`].
    pub fn field_f64(&mut self, key: &str, v: f64) {
        self.key(key);
        self.value_f64(v);
    }

    /// `key` + [`JsonWriter::value_f32`].
    pub fn field_f32(&mut self, key: &str, v: f32) {
        self.key(key);
        self.value_f32(v);
    }

    /// `key` + [`JsonWriter::value_bool`].
    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.value_bool(v);
    }

    /// `key` + an array of `u64`s.
    pub fn field_u64s(&mut self, key: &str, vals: impl IntoIterator<Item = u64>) {
        self.key(key);
        self.begin_array();
        for v in vals {
            self.value_u64(v);
        }
        self.end_array();
    }

    /// `key` + an array of `f64`s (each under the NaN policy).
    pub fn field_f64s(&mut self, key: &str, vals: impl IntoIterator<Item = f64>) {
        self.key(key);
        self.begin_array();
        for v in vals {
            self.value_f64(v);
        }
        self.end_array();
    }

    /// `key` + an array of `f32`s (each under the NaN policy).
    pub fn field_f32s(&mut self, key: &str, vals: impl IntoIterator<Item = f32>) {
        self.key(key);
        self.begin_array();
        for v in vals {
            self.value_f32(v);
        }
        self.end_array();
    }

    // ---- internals -----------------------------------------------------

    fn before_value(&mut self) {
        match self.stack.last() {
            Some(Frame::Object) => {
                debug_assert!(self.pending_key, "object value without a key");
                self.pending_key = false;
            }
            Some(Frame::Array) => {
                if let Some(nc) = self.needs_comma.last_mut() {
                    if *nc {
                        self.out.push(',');
                    }
                    *nc = true;
                }
            }
            None => {}
        }
    }
}

/// Formats into a stack-adjacent `String` via `fmt::Write` (infallible for
/// `String`).
fn fmt_push(buf: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    buf.write_fmt(args).expect("String fmt is infallible");
}

/// Allocation-light integer formatting (one small String; the hot path is
/// the event log, where the buffer is reused anyway).
fn itoa_buffer(v: u64, negative: bool) -> String {
    let mut s = String::with_capacity(21);
    if negative {
        s.push('-');
    }
    fmt_push(&mut s, format_args!("{v}"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_object_with_every_scalar() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("s", "a\"b\\c\nd");
        w.field_u64("u", u64::MAX);
        w.field_i64("i", -42);
        w.field_f64("f", 0.25);
        w.field_bool("b", true);
        w.key("n");
        w.value_null();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"s":"a\"b\\c\nd","u":18446744073709551615,"i":-42,"f":0.25,"b":true,"n":null}"#
        );
    }

    #[test]
    fn nested_arrays_and_objects_manage_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        for i in 0..2u64 {
            w.begin_object();
            w.field_u64("i", i);
            w.end_object();
        }
        w.value_u64(7);
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"rows":[{"i":0},{"i":1},7]}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.value_f64(f64::NAN);
        w.value_f64(f64::INFINITY);
        w.value_f32(f32::NEG_INFINITY);
        w.value_f64(1.5);
        w.end_array();
        assert_eq!(w.finish(), "[null,null,null,1.5]");
    }

    #[test]
    fn control_characters_use_u_escapes() {
        let mut out = String::new();
        json_escape(&mut out, "\u{1}\u{1f}\t");
        assert_eq!(out, "\\u0001\\u001f\\t");
    }

    #[test]
    fn root_scalar_is_valid() {
        let mut w = JsonWriter::new();
        w.value_str("just a string");
        assert_eq!(w.finish(), r#""just a string""#);
    }

    #[test]
    fn reusing_clears_previous_content() {
        let w = JsonWriter::reusing(String::from("garbage"));
        assert_eq!(w.as_str(), "");
    }

    #[test]
    fn float_display_round_trips() {
        for v in [0.1f64, 1e-9, 123456789.123456, f64::MIN_POSITIVE, -0.0] {
            let mut w = JsonWriter::new();
            w.value_f64(v);
            let s = w.finish();
            let back: f64 = s.parse().expect("parses back");
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
    }
}
