//! Minimal-length runs of every workload: each must finish correct and
//! print every named metric with its unit. Also keeps the metric catalog
//! and `BENCHMARK.json` in step.
//!
//! Run with `cargo test --release`: a debug build of the buffer manager
//! makes the `txn-tiered` set-up slow.

use std::process::Command;

use spitfire_e2ebench::report::{END_TO_END, PER_LAYER};
use spitfire_e2ebench::WORKLOADS;

/// The unit of metric `name` in a result line, if the metric is there.
fn json_unit<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let at = json.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &json[at..];
    let rest = &rest[rest.find("\"unit\": \"")? + "\"unit\": \"".len()..];
    Some(&rest[..rest.find('"')?])
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run e2ebench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check_result(workload: &str, stdout: &str, catalog: &[(&str, &str)]) {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: {last}"
    );
    for &(name, unit) in catalog {
        assert_eq!(
            json_unit(last, name),
            Some(unit),
            "{workload}: {name} in {last}"
        );
    }
    assert!(
        stdout.starts_with("meta {"),
        "{workload}: metadata comes first"
    );
}

#[test]
fn smoke_runs_emit_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        let traced = run(workload, true);
        check_result(workload, &traced, PER_LAYER);
        // The traced run prints the end-to-end metrics too, one per line.
        for &(name, unit) in END_TO_END {
            let line = format!("metric {name} = ");
            let found = traced.lines().find(|l| l.starts_with(&line));
            assert!(
                found.is_some_and(|l| l.ends_with(&format!(" {unit}"))),
                "{workload}: {name}"
            );
        }
    }
    check_result("page-hot", &run("page-hot", false), END_TO_END);
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run e2ebench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json` (one metric object per line).
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{section}\": [")).expect("section");
    let body = &json[start..start + json[start..].find(']').expect("section end")];
    body.lines()
        .filter_map(|l| {
            let field = |key: &str| {
                let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                Some(l[at..at + l[at..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", ")),
            "workload {w}"
        );
    }
}
