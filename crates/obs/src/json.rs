//! The workspace's one hand-rolled JSON writer.
//!
//! The environment has no crates.io access, so serialisation is written by
//! hand rather than derived via serde. It lives here, at the bottom of
//! the dependency graph, so the trace exporters of this crate and every
//! crate above it (the wire layer via `rbqa_api::json`, `rbqa-bench`'s
//! experiment reports) share one emitter. Writing only — the wire
//! protocol's *request* side is the line-oriented DSL, not JSON.

/// Escapes a string for inclusion in a JSON document (without the
/// surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a string as a quoted JSON string literal.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Renders pre-serialised items as a JSON array.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(","))
}

/// Incremental writer for one JSON object; fields appear in insertion
/// order.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field (escaped).
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("{}:{}", json_string(key), json_string(value)));
        self
    }

    /// Adds a field whose value is already valid JSON (number, bool, array,
    /// nested object, `null`).
    pub fn field_raw(mut self, key: &str, raw: &str) -> Self {
        self.fields.push(format!("{}:{}", json_string(key), raw));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(self, key: &str, value: bool) -> Self {
        self.field_raw(key, if value { "true" } else { "false" })
    }

    /// Adds an unsigned integer field.
    pub fn field_u128(self, key: &str, value: u128) -> Self {
        self.field_raw(key, &value.to_string())
    }

    /// Finalises the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_handles_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn objects_render_in_insertion_order() {
        let obj = JsonObject::new()
            .field_str("name", "u\"ni")
            .field_bool("ok", true)
            .field_u128("n", 7)
            .field_raw(
                "rows",
                &json_array(vec![json_string("a"), json_string("b")]),
            )
            .finish();
        assert_eq!(obj, r#"{"name":"u\"ni","ok":true,"n":7,"rows":["a","b"]}"#);
    }
}
