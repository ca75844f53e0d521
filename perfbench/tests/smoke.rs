//! Smoke test: every workload at tiny size, untraced and traced, prints a
//! correct result whose metrics are exactly the ones `BENCHMARK.json`
//! declares, each a finite number carrying its declared unit.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Just enough JSON to read the result line and `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                    assert_eq!(self.s[self.i - 1], b',', "bad object separator");
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                    assert_eq!(self.s[self.i - 1], b',', "bad array separator");
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(text.parse().unwrap_or_else(|e| panic!("bad number {text:?}: {e}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.s[self.i..self.i + 4]).expect("hex");
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                .expect("char")
                        }
                        other => other as char,
                    });
                }
                _ => {
                    // Copy a whole UTF-8 sequence.
                    let len = match c {
                        0xF0.. => 4,
                        0xE0.. => 3,
                        0xC0.. => 2,
                        _ => 1,
                    };
                    let start = self.i - 1;
                    self.i = start + len;
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).expect("utf-8"));
                }
            }
        }
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    match Parser::parse(&text).get(section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
            .collect(),
        other => panic!("{section} is {other:?}"),
    }
}

fn trace_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke")
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(trace_dir())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

fn check(workload: &str, trace: bool) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}: {result:?}");
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let Json::Obj(metrics) = result.get("metrics") else { panic!("metrics is not an object") };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{workload} trace={trace}: metric names");
    for (name, unit) in &want {
        let m = result.get("metrics").get(name);
        let v = m.get("value").num();
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
    }
    if trace {
        let file = trace_dir().join(format!("trace-{workload}-seed7.json"));
        let spans = Parser::parse(&std::fs::read_to_string(&file).expect("trace file written"));
        let Json::Arr(spans) = spans.get("spans") else { panic!("spans is not an array") };
        assert!(spans.iter().any(|s| s.get("name").str() == "psa-workloads.scene_build"));
        for s in spans {
            assert!(s.get("end_ns").num() >= s.get("start_ns").num());
        }
    }
}

#[test]
fn snow() {
    check("snow", false);
    check("snow", true);
}

#[test]
fn fountain() {
    check("fountain", false);
    check("fountain", true);
}

#[test]
fn render() {
    check("render", false);
    check("render", true);
}

#[test]
fn wide() {
    check("wide", false);
    check("wide", true);
}

#[test]
fn sessions() {
    check("sessions", false);
    check("sessions", true);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in
        [&["--workload", "nope"][..], &["--seed"][..], &["--workload", "snow", "--trace", "2"][..]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
