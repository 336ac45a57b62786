//! Runs the benchmark binary end to end at the tiny size and checks what it
//! prints, and that `BENCHMARK.json` lists the metrics it prints.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["road-cold", "gnp-hot", "road-swap"];

fn data_dir(workload: &str, trace: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{workload}-{trace}"))
}

fn run(workload: &str, trace: &str) -> String {
    let data = data_dir(workload, trace);
    let out = Command::new(env!("CARGO_BIN_EXE_ftbfs-e2ebench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "4"])
        .args(["--trace", trace, "--size", "tiny", "--data"])
        .arg(&data)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.lines().last().expect("a result line").to_string()
}

/// `(name, unit)` pairs listed under `key` in `BENCHMARK.json`, in order.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
            let unit = entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

/// `(name, unit)` pairs of a result line, in order.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics present")..];
    metrics
        .split("}, \"")
        .map(|entry| {
            let entry = entry.trim_start_matches("\"metrics\": {\"");
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
            let unit = entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

#[test]
fn tiny_runs_are_correct_and_print_every_metric_with_its_unit() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in WORKLOADS {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} trace {trace}: {line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            assert_eq!(&printed(&line), expected, "{workload} trace {trace}");
            if trace == "0" {
                assert!(line.contains("\"ok_frac\": {\"value\": 1.0, "), "{line}");
            } else {
                let spans =
                    data_dir(workload, trace).join(format!("{workload}-5-tiny/trace-0.jsonl"));
                let spans =
                    std::fs::read_to_string(spans).expect("the traced pass writes its spans");
                for name in [
                    "setup",
                    "corpus.ingest",
                    "serve.launch",
                    "request",
                    "gen.late",
                ] {
                    assert!(
                        spans.contains(&format!("\"name\": \"{name}\"")),
                        "{workload}: no {name} span"
                    );
                }
            }
        }
    }
}

#[test]
fn unknown_workloads_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ftbfs-e2ebench"))
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
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
