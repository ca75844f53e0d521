//! The one JSON writer behind every `BENCH_N.json` export.
//!
//! An exporter builds a small typed [`Json`] tree and [`render`] prints it
//! in the artifacts' layout: nested containers indented two spaces per
//! level, each leaf row (a table row, a sweep cell) on one line, keys in
//! insertion order. The workspace is offline and serde-free, so this is
//! the whole serializer. It refuses a non-finite float instead of printing
//! `null`, so a written artifact never hides a NaN.

use std::fmt::Write;

/// A JSON value as an artifact holds it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Must be finite when rendered.
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Fields in insertion order.
    Object(Vec<(String, Json)>),
    /// The wrapped array or object printed on one line, however deep it
    /// nests. A container holding only scalars is one line without it.
    Row(Box<Json>),
}

impl Json {
    /// Print this container on one line.
    pub fn row(self) -> Json {
        Json::Row(Box::new(self))
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_) | Json::Row(_))
    }
}

/// Build a [`Json::Object`] from `key => value` pairs, in order.
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::artifact::Json::Object(vec![
            $(($key.to_string(), $crate::artifact::Json::from($value))),*
        ])
    };
}
pub(crate) use obj;

/// Build a [`Json::Object`] keyed by field names:
/// `fields!(c => ranks, makespan)` is
/// `obj! { "ranks" => c.ranks, "makespan" => c.makespan }`.
macro_rules! fields {
    ($src:expr => $($field:ident),* $(,)?) => {
        $crate::artifact::obj! { $(stringify!($field) => $src.$field),* }
    };
}
pub(crate) use fields;

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Int(v as u64)
            }
        }
    )*};
}
from_int!(u32, u64, usize);

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl<T: Copy + Into<Json>> From<&[T]> for Json {
    fn from(vs: &[T]) -> Self {
        Json::Array(vs.iter().map(|&v| v.into()).collect())
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(iter: I) -> Self {
        Json::Array(iter.into_iter().collect())
    }
}

/// A `BENCH_N.json` export: checked by [`Artifact::validate`] before it is
/// written, serialized through [`Artifact::to_tree`].
pub trait Artifact {
    /// Reject empty sweeps, non-finite metrics and failed acceptance gates.
    fn validate(&self) -> Result<(), String>;

    /// The export as a JSON tree.
    fn to_tree(&self) -> Json;

    /// The export rendered to its file contents.
    fn to_json(&self) -> Result<String, String> {
        render(&self.to_tree())
    }
}

/// `Err("{what}: {name} is {v}")` for the first non-finite value of
/// `fields`, the shared form of every export's finiteness check.
pub fn check_finite(what: &str, fields: &[(&str, f64)]) -> Result<(), String> {
    match fields.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("{what}: {name} is {v}")),
        None => Ok(()),
    }
}

/// Render `value` as a file: the layout above plus a trailing newline.
/// Fails on the first non-finite float, naming its path in the tree.
pub fn render(value: &Json) -> Result<String, String> {
    let mut out = String::new();
    write_value(&mut out, value, 0, false).map_err(|(path, v)| {
        format!("non-finite float {v} at {}", path.strip_prefix('.').unwrap_or(&path))
    })?;
    out.push('\n');
    Ok(out)
}

/// On failure: the path to the offending float and its value.
type Refused = (String, f64);

fn write_value(out: &mut String, value: &Json, depth: usize, inline: bool) -> Result<(), Refused> {
    match value {
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) if f.is_finite() => out.push_str(&f.to_string()),
        Json::Float(f) => return Err((String::new(), *f)),
        Json::Str(s) => write_str(out, s),
        Json::Row(inner) => write_value(out, inner, depth, true)?,
        Json::Array(items) => {
            let entries: Vec<_> = items.iter().map(|v| (None, v)).collect();
            write_container(out, ('[', ']'), &entries, depth, inline)?;
        }
        Json::Object(fields) => {
            let entries: Vec<_> = fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
            write_container(out, ('{', '}'), &entries, depth, inline)?;
        }
    }
    Ok(())
}

fn write_container(
    out: &mut String,
    (open, close): (char, char),
    entries: &[(Option<&str>, &Json)],
    depth: usize,
    inline: bool,
) -> Result<(), Refused> {
    let inline = inline || entries.iter().all(|(_, v)| v.is_scalar());
    out.push(open);
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
            if inline {
                out.push(' ');
            }
        }
        if !inline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, value, depth + 1, inline).map_err(|(path, v)| {
            let step = key.map_or_else(|| format!("[{i}]"), |k| format!(".{k}"));
            (step + &path, v)
        })?;
    }
    if !inline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
    Ok(())
}

/// A JSON string literal: quotes, backslashes and control characters
/// escaped.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_row_per_line_layout() {
        let tree = obj! {
            "bench" => 9u64,
            "workload" => obj! { "scale" => 10.0, "frames" => 25u64 },
            "ranks" => &[8usize, 64][..],
            "tables" => obj! {
                "t" => Json::from_iter([
                    obj! { "label" => "a", "ours" => &[1.5, 2.0][..] }.row(),
                    obj! { "label" => "b", "ours" => &[0.25][..] }.row(),
                ]),
            },
            "cells" => Json::from_iter([obj! { "ok" => true, "x" => 0.5 }]),
            "empty" => Json::Array(Vec::new()),
        };
        let golden = r#"{
  "bench": 9,
  "workload": {"scale": 10, "frames": 25},
  "ranks": [8, 64],
  "tables": {
    "t": [
      {"label": "a", "ours": [1.5, 2]},
      {"label": "b", "ours": [0.25]}
    ]
  },
  "cells": [
    {"ok": true, "x": 0.5}
  ],
  "empty": []
}
"#;
        assert_eq!(render(&tree).unwrap(), golden);
    }

    #[test]
    fn refuses_non_finite_floats_with_their_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let tree = obj! { "cells" => Json::from_iter([obj! { "makespan" => bad }]) };
            let err = render(&tree).expect_err("non-finite float must be refused");
            assert!(err.contains("cells[0].makespan"), "{err}");
            assert!(render(&Json::Float(bad)).is_err());
        }
        assert_eq!(render(&Json::Float(-0.5)).unwrap(), "-0.5\n");
    }

    #[test]
    fn escapes_strings_to_valid_json() {
        let tree = obj! { "a\"b" => "say \"hi\" C:\\tmp\n\t\r\u{1}\u{1f} é" };
        assert_eq!(
            render(&tree).unwrap(),
            "{\"a\\\"b\": \"say \\\"hi\\\" C:\\\\tmp\\n\\t\\r\\u0001\\u001f é\"}\n"
        );
    }

    #[test]
    fn check_finite_names_the_first_bad_field() {
        assert!(check_finite("cell", &[("a", 1.0), ("b", -2.0)]).is_ok());
        let err = check_finite("cell 8r", &[("a", 1.0), ("b", f64::NAN), ("c", f64::INFINITY)]);
        assert_eq!(err.unwrap_err(), "cell 8r: b is NaN");
    }
}
