//! Schema self-test: `BENCHMARK.json`, `spec.rs` and what the binary
//! prints must name the same things. Runs every workload for 2 s,
//! untraced and traced.

use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line. Objects
/// keep member order and duplicates, so "emitted exactly once" is
/// checkable.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.bytes.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let start = self.at;
        while self.bytes[self.at] != b'"' {
            assert_ne!(
                self.bytes[self.at], b'\\',
                "escapes are not used in these files"
            );
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.bytes[start..self.at - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_space();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(members);
                }
                loop {
                    let key = self.string();
                    self.expect(b':');
                    members.push((key, self.value()));
                    self.skip_space();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => self.skip_space(),
                        b'}' => return Json::Obj(members),
                        other => panic!("unexpected {:?} in object", other as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.skip_space();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => {}
                        b']' => return Json::Arr(items),
                        other => panic!("unexpected {:?} in array", other as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| !b",]} \n\r\t".contains(b))
                {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.bytes[start..self.at]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Num(
                        number
                            .parse()
                            .unwrap_or_else(|_| panic!("number {number:?}")),
                    ),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_space();
    assert_eq!(parser.at, text.len(), "trailing bytes after the JSON value");
    value
}

impl Json {
    fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        let mut found = self.members().iter().filter(|(k, _)| k == key);
        let (_, value) = found.next().unwrap_or_else(|| panic!("no member {key:?}"));
        assert!(found.next().is_none(), "member {key:?} appears twice");
        value
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        self.members().iter().map(|(k, _)| k.as_str()).collect()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` metric list.
fn declared(list: &Json) -> Vec<(String, String)> {
    list.items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs one workload for 2 s and returns its result object.
fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_rackbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            trace,
        ])
        .output()
        .expect("start rackbench");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn benchmark_json_and_output_agree() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = parse(&std::fs::read_to_string(manifest).expect("read BENCHMARK.json"));
    assert_eq!(
        bench.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        bench.get("paths").items(),
        [Json::Str("benchmark".to_string())]
    );
    let run_seconds = bench.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let workloads: Vec<&str> = bench
        .get("workloads")
        .items()
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            let why = w.get("why").str();
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
            w.get("name").str()
        })
        .collect();
    assert_eq!(
        workloads,
        ["hot_read", "hot_write", "cold_uniform", "skew_udp"]
    );

    let end_to_end = declared(bench.get("end_to_end"));
    let per_layer = declared(bench.get("per_layer"));
    assert!(workloads.len() <= 8 && end_to_end.len() <= 16 && per_layer.len() <= 128);
    for metric in bench.get("end_to_end").items() {
        assert_eq!(metric.keys(), ["name", "unit", "better", "bound"]);
        let bound = metric.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound of {metric:?}");
    }
    for metric in bench.get("per_layer").items() {
        assert_eq!(metric.keys(), ["name", "unit", "better"]);
    }
    let mut names: Vec<&str> = workloads.clone();
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        names.push(name);
        assert!(
            unit.len() <= 16
                && unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "unit {unit:?} of {name}"
        );
    }
    for (i, name) in names.iter().enumerate() {
        assert!(valid_name(name), "name {name:?}");
        assert!(!names[..i].contains(name), "name {name:?} is used twice");
    }
    assert!(end_to_end
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));

    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(workload, trace);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
            assert_eq!(result.get("failed").num(), 0.0, "{workload}");
            assert!(result.get("attempted").num() >= 1.0);
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .members()
                .iter()
                .map(|(name, m)| {
                    assert_eq!(m.keys(), ["value", "unit"]);
                    assert!(m.get("value").num().is_finite(), "{workload} {name}");
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(&printed, expected, "{workload} --trace {trace}");

            let value = |name: &str| result.get("metrics").get(name).get("value").num();
            if trace == "0" {
                for (name, _) in &end_to_end {
                    assert!(value(name) > 0.0, "{workload} {name} must never be 0");
                }
            } else {
                // Group A: everything up to the first traced-run metric.
                for (name, _) in per_layer
                    .iter()
                    .take_while(|(name, _)| name != "host.echo_round_trips_s")
                {
                    assert!(value(name) > 0.0, "{workload} {name}");
                }
                assert_eq!(value("client.put_p50_us") == 0.0, *workload == "hot_read");
                assert!(value("trace.sampled_ops") > 0.0, "{workload} traced no op");
            }
        }
    }
}
