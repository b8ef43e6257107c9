//! `BENCH_history.jsonl` at the repository root is the benchmark's memory:
//! one line per measured series, appended and never rewritten. A line is a
//! JSON object holding
//!
//! - `pr`, and `commit` (the measured commit's hash; `null` for a change
//!   measured before it was committed, whose `parent` then names the commit
//!   it was measured against);
//! - `source`: `"rackbench"` for a series read off rackbench's `record {…}`
//!   and result lines, `"changes"` for one backfilled from `CHANGES.md`;
//! - `series` (`"parent"` or `"change"`) and `host` (`nproc`, `cpu`,
//!   `kernel`; `null` where the source does not say);
//! - `runs`: how many runs each workload's cells are the median of;
//! - `cells`: for every workload of `BENCHMARK.json`, every end-to-end
//!   metric, as `{"median", "q1", "q3"}` (quartiles `null` where the source
//!   gives none) or `null` where the source does not give the cell.
//!
//! Lines compare only with lines of the same host fingerprint, and then
//! only as a trend. This suite checks that every line parses and carries
//! those fields.

use std::collections::BTreeMap;

/// A parsed JSON value. `benchmark/tests/schema.rs` has its own reader, in
/// a test of another package that this one cannot import.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// Parses one JSON document: no escapes (none of the files needs one), a
/// member twice is an error.
fn parse(text: &str) -> Result<Json, String> {
    let mut rest = text;
    let value = value(&mut rest)?;
    match rest.trim() {
        "" => Ok(value),
        tail => Err(format!("trailing {tail:.20?}")),
    }
}

/// Parses the value at the front of `s` and moves `s` past it.
fn value(s: &mut &str) -> Result<Json, String> {
    *s = s.trim_start();
    if let Some(r) = s.strip_prefix('"') {
        let end = r.find('"').ok_or("an unterminated string")?;
        let (text, r) = (&r[..end], &r[end + 1..]);
        if text.contains('\\') {
            return Err(format!("an escape in {text:?}"));
        }
        *s = r;
        return Ok(Json::Str(text.to_string()));
    }
    if let Some(r) = s.strip_prefix('[') {
        *s = r;
        let mut items = Vec::new();
        seq(s, ']', |s| value(s).map(|v| items.push(v)))?;
        return Ok(Json::Arr(items));
    }
    if let Some(r) = s.strip_prefix('{') {
        *s = r;
        let mut members = BTreeMap::new();
        seq(s, '}', |s| {
            let Json::Str(key) = value(s)? else {
                return Err("a member name that is not a string".to_string());
            };
            *s = (s.trim_start().strip_prefix(':')).ok_or(format!("no ':' after {key:?}"))?;
            match members.insert(key.clone(), value(s)?) {
                None => Ok(()),
                Some(_) => Err(format!("member {key:?} twice")),
            }
        })?;
        return Ok(Json::Obj(members));
    }
    for (word, value) in [
        ("null", Json::Null),
        ("true", Json::Bool(true)),
        ("false", Json::Bool(false)),
    ] {
        if let Some(r) = s.strip_prefix(word) {
            *s = r;
            return Ok(value);
        }
    }
    let len = s.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
    let (number, r) = s.split_at(len.unwrap_or(s.len()));
    let number = number
        .parse()
        .map_err(|_| format!("not a value: {s:.20?}"))?;
    *s = r;
    Ok(Json::Num(number))
}

/// The comma-separated items of an array or object up to `close`, each
/// parsed by `item`.
fn seq(
    s: &mut &str,
    close: char,
    mut item: impl FnMut(&mut &str) -> Result<(), String>,
) -> Result<(), String> {
    if let Some(r) = s.trim_start().strip_prefix(close) {
        *s = r;
        return Ok(());
    }
    loop {
        item(s)?;
        let r = s.trim_start();
        match r.strip_prefix(',') {
            Some(r) => *s = r,
            None => {
                *s = r
                    .strip_prefix(close)
                    .ok_or(format!("no ',' or {close:?}"))?;
                return Ok(());
            }
        }
    }
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The `name` member of every element of the array at `key`.
    fn names(&self, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = self.get(key) else {
            panic!("no array {key:?}")
        };
        (items.iter())
            .map(|item| match item.get("name") {
                Some(Json::Str(name)) => name.clone(),
                other => panic!("an entry of {key:?} without a name: {other:?}"),
            })
            .collect()
    }
}

fn repo_file(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Checks one cell: `null`, or a median with quartiles around it.
fn check_cell(cell: &Json) -> Result<(), String> {
    if *cell == Json::Null {
        return Ok(());
    }
    let median = cell.get("median").and_then(Json::num).ok_or("no median")?;
    let quartile = |name| match cell.get(name) {
        Some(Json::Null) => Ok(None),
        Some(Json::Num(q)) => Ok(Some(*q)),
        other => Err(format!("{name} is {other:?}")),
    };
    let (q1, q3) = (quartile("q1")?, quartile("q3")?);
    if q1.is_some_and(|q1| q1 > median) || q3.is_some_and(|q3| q3 < median) {
        return Err(format!("quartiles {q1:?} {q3:?} do not bracket {median}"));
    }
    Ok(())
}

/// Checks one history line against the spec's workloads and metrics.
fn check_line(line: &Json, workloads: &[String], metrics: &[String]) -> Result<(), String> {
    let has_str = |key| matches!(line.get(key), Some(Json::Str(s)) if !s.is_empty());
    line.get("pr").and_then(Json::num).ok_or("no pr")?;
    match line.get("commit") {
        Some(Json::Str(_)) => {}
        Some(Json::Null) if has_str("parent") => {}
        other => return Err(format!("commit is {other:?} and no parent is named")),
    }
    match line.get("source") {
        Some(Json::Str(s)) if s == "rackbench" || s == "changes" => {}
        other => return Err(format!("source is {other:?}")),
    }
    match line.get("series") {
        Some(Json::Str(s)) if s == "parent" || s == "change" => {}
        other => return Err(format!("series is {other:?}")),
    }
    let host = line.get("host").ok_or("no host")?;
    for key in ["nproc", "cpu", "kernel"] {
        host.get(key).ok_or(format!("host without {key}"))?;
    }
    let runs = line.get("runs").ok_or("no runs")?;
    let cells = line.get("cells").ok_or("no cells")?;
    for w in workloads {
        runs.get(w).ok_or(format!("no runs of {w}"))?;
        let row = cells.get(w).ok_or(format!("no cells of {w}"))?;
        let Json::Obj(members) = row else {
            return Err(format!("{w}'s cells are not an object"));
        };
        if members
            .keys()
            .ne(metrics.iter().collect::<std::collections::BTreeSet<_>>())
        {
            return Err(format!("{w}'s cells are {:?}", members.keys()));
        }
        for (metric, cell) in members {
            check_cell(cell).map_err(|e| format!("{w} {metric}: {e}"))?;
        }
    }
    Ok(())
}

#[test]
fn every_history_line_parses_and_carries_the_cells_of_the_spec() {
    let spec = parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let (workloads, metrics) = (spec.names("workloads"), spec.names("end_to_end"));
    assert_eq!((workloads.len(), metrics.len()), (4, 5), "20 cells");
    let history = repo_file("BENCH_history.jsonl");
    assert!(history.lines().count() > 0, "the history has lines");
    for (n, text) in history.lines().enumerate() {
        let line = parse(text).unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
        check_line(&line, &workloads, &metrics).unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
    }
}

#[test]
fn the_checker_refuses_a_line_without_its_cells() {
    let workloads = vec!["w".to_string()];
    let metrics = vec!["m".to_string()];
    let line = |cells: &str| {
        let text = format!(
            r#"{{"pr": 1, "commit": "abc", "source": "changes", "series": "change",
                "host": {{"nproc": 2, "cpu": null, "kernel": null}}, "runs": {{"w": 3}}, "cells": {cells}}}"#
        );
        check_line(&parse(&text).expect("parses"), &workloads, &metrics)
    };
    assert_eq!(
        line(r#"{"w": {"m": {"median": 2, "q1": 1, "q3": null}}}"#),
        Ok(())
    );
    assert_eq!(line(r#"{"w": {"m": null}}"#), Ok(()));
    assert!(line(r#"{"w": {}}"#).is_err());
    assert!(line(r#"{"w": {"m": {"median": 2, "q1": 3, "q3": 4}}}"#).is_err());
    assert!(line(r#"{}"#).is_err());
    assert!(parse(r#"{"a": 1,}"#).is_err());
}
