//! A hand-rolled parser for the TOML subset the scenario harness uses.
//!
//! This environment has no TOML crate (dependencies are vendored), and
//! scenario files only need a small, boring slice of the format:
//!
//! - `[section]` headers (dotted names allowed, kept verbatim);
//! - `key = value` pairs, with bare or `"quoted"` keys (quoted keys let
//!   tolerance tables address dotted metric names like `"latency.p99"`);
//! - values: strings, integers, floats, booleans, and flat arrays of
//!   those; an array may span lines (comments allowed between its items)
//!   and may end with a trailing comma;
//! - `#` comments and blank lines.
//!
//! No inline tables, no multi-line strings, no datetimes, no array
//! nesting. Anything outside the subset is a parse *error*, not a silent
//! skip — a typoed scenario file should fail loudly in CI.

use std::collections::BTreeMap;

/// A parsed TOML-subset value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer (no decimal point or exponent in the source).
    Int(i64),
    /// A float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A flat array.
    Array(Vec<Value>),
}

impl Value {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64 (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a vector of strings, if it is an array of strings.
    pub fn as_str_array(&self) -> Option<Vec<&str>> {
        self.as_array()?.iter().map(Value::as_str).collect()
    }
}

/// One section's key-value pairs.
pub type Section = BTreeMap<String, Value>;

/// A parsed document: sections by header name; keys before the first
/// header live in the `""` section.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Doc {
    sections: BTreeMap<String, Section>,
}

impl Doc {
    /// A section by name, if present.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.get(name)
    }

    /// A key inside a section, if both exist.
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.sections.get(section)?.get(key)
    }

    /// Section names, ascending.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }
}

/// Parse a document. Errors carry the 1-based line number.
pub fn parse(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    let mut current = String::new();
    doc.sections.entry(current.clone()).or_default();
    let mut lines = text.lines().enumerate();
    while let Some((i, raw)) = lines.next() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                .trim();
            if name.is_empty() {
                return Err(format!("line {lineno}: empty section name"));
            }
            current = name.to_string();
            if doc.sections.contains_key(&current) && !doc.sections[&current].is_empty() {
                return Err(format!("line {lineno}: duplicate section [{current}]"));
            }
            doc.sections.entry(current.clone()).or_default();
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`, got {line:?}"))?;
        let key = parse_key(line[..eq].trim())
            .ok_or_else(|| format!("line {lineno}: bad key {:?}", line[..eq].trim()))?;
        let mut raw_value = line[eq + 1..].trim().to_string();
        while array_open(&raw_value) {
            let (_, next) =
                lines.next().ok_or_else(|| format!("line {lineno}: unterminated array"))?;
            raw_value.push(' ');
            raw_value.push_str(strip_comment(next).trim());
        }
        let value = parse_value(&raw_value).map_err(|e| format!("line {lineno}: {e}"))?;
        let section = doc.sections.entry(current.clone()).or_default();
        if section.insert(key.clone(), value).is_some() {
            return Err(format!("line {lineno}: duplicate key {key:?}"));
        }
    }
    Ok(doc)
}

/// Strip a `#` comment, honoring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Whether `raw` (a comment-stripped, trimmed value) opens an array that
/// continues on the next line: a complete array ends in `]`.
fn array_open(raw: &str) -> bool {
    raw.starts_with('[') && !raw.ends_with(']')
}

/// Bare keys: letters/digits/`_`/`-`/`.`; quoted keys: any string.
fn parse_key(raw: &str) -> Option<String> {
    if let Some(inner) = raw.strip_prefix('"') {
        return Some(inner.strip_suffix('"')?.to_string());
    }
    let ok = !raw.is_empty()
        && raw.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    ok.then(|| raw.to_string())
}

fn parse_value(raw: &str) -> Result<Value, String> {
    if raw.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let inner = rest.strip_suffix(']').ok_or("unterminated array")?.trim();
        let inner = inner.strip_suffix(',').unwrap_or(inner);
        if inner.is_empty() {
            return Ok(Value::Array(Vec::new()));
        }
        let items = split_array(inner)?
            .into_iter()
            .map(|s| parse_value(s.trim()))
            .collect::<Result<Vec<Value>, String>>()?;
        if items.iter().any(|v| matches!(v, Value::Array(_))) {
            return Err("nested arrays are outside the subset".to_string());
        }
        return Ok(Value::Array(items));
    }
    if let Some(rest) = raw.strip_prefix('"') {
        let inner = rest.strip_suffix('"').ok_or("unterminated string")?;
        return unescape(inner).map(Value::Str);
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let plain = raw.replace('_', "");
    if !plain.contains('.') && !plain.contains('e') && !plain.contains('E') {
        if let Ok(i) = plain.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    plain.parse::<f64>().map(Value::Float).map_err(|_| format!("unrecognized value {raw:?}"))
}

/// Split a flat array body on top-level commas (commas inside quoted
/// strings do not split).
fn split_array(inner: &str) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    if in_str {
        return Err("unterminated string in array".to_string());
    }
    parts.push(&inner[start..]);
    Ok(parts)
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => return Err(format!("unsupported escape \\{}", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scenario_subset() {
        let doc = parse(
            r#"
# a scenario
[scenario]
name = "burst-qw"        # trailing comment
devices = ["titan-black", "titan-x"]
seed = 42
load_frac = 0.7
adaptive = false

[tolerances]
default = 0.02
"latency.p99" = 0.05
"#,
        )
        .unwrap();
        assert_eq!(doc.get("scenario", "name").unwrap().as_str(), Some("burst-qw"));
        assert_eq!(
            doc.get("scenario", "devices").unwrap().as_str_array(),
            Some(vec!["titan-black", "titan-x"])
        );
        assert_eq!(doc.get("scenario", "seed").unwrap().as_u64(), Some(42));
        assert_eq!(doc.get("scenario", "load_frac").unwrap().as_f64(), Some(0.7));
        assert_eq!(doc.get("scenario", "adaptive"), Some(&Value::Bool(false)));
        // Quoted keys keep their dots; bare ints coerce to f64 on demand.
        assert_eq!(doc.get("tolerances", "latency.p99").unwrap().as_f64(), Some(0.05));
        assert_eq!(doc.get("scenario", "seed").unwrap().as_f64(), Some(42.0));
        assert!(doc.section("missing").is_none());
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse("[unclosed").is_err());
        assert!(parse("key").is_err());
        assert!(parse("key = ").is_err());
        assert!(parse("key = [1, [2]]").is_err());
        assert!(parse("key = \"unterminated").is_err());
        assert!(parse("key = 2024-01-01").is_err());
        assert!(parse("k = 1\nk = 2").is_err());
        assert!(parse("[a]\nx = 1\n[a]\ny = 2").is_err(), "duplicate sections must error");
    }

    #[test]
    fn arrays_span_lines() {
        let doc =
            parse("[s]\nd = [\n  \"a\", \"b\",  # first row\n  \"c,]\",\n]\nk = 1\n").unwrap();
        assert_eq!(doc.get("s", "d").unwrap().as_str_array(), Some(vec!["a", "b", "c,]"]));
        assert_eq!(doc.get("s", "k").unwrap().as_u64(), Some(1));
        assert_eq!(
            parse("d = [1, 2,]").unwrap().get("", "d"),
            parse("d = [1, 2]").unwrap().get("", "d")
        );
        assert!(parse("d = [\n1,\n").is_err(), "an array must close");
        assert!(parse("d = [1,,]").is_err(), "only one trailing comma");
    }

    #[test]
    fn comments_respect_strings() {
        let doc = parse("k = \"a # b\" # real comment").unwrap();
        assert_eq!(doc.get("", "k").unwrap().as_str(), Some("a # b"));
    }
}
