//! End-to-end and per-layer benchmark of the FT-BFS serving system.
//!
//! ```text
//! ftbfs-e2ebench --workload W --seed N --seconds S --trace 0|1 [--size full|tiny] [--data DIR]
//! ftbfs-e2ebench gen   --workload W --seed N --out DIR [--size ...]
//! ftbfs-e2ebench serve --workload W --dir DIR --seconds S --trace 0|1 --part I [--size ...]
//! ```
//!
//! The first form is the benchmark: it runs `gen` in a child process to
//! write the inputs, then the workload's `processes` `serve` children one
//! after another, each measuring its share of `--seconds`, merges their
//! results and prints one JSON result line last.  With `--trace 1` it
//! makes an untraced pass and then a traced one, and prints the per-layer
//! metrics of the traced pass and the tracing overhead between the two.

mod check;
mod drive;
mod host;
mod metrics;
mod run;
mod schedule;
mod setup;
mod spec;
mod trace;

use metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use spec::{Size, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    data: PathBuf,
    dir: Option<PathBuf>,
    part: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1).peekable();
    let command = match raw.peek() {
        Some(c) if !c.starts_with("--") => raw.next(),
        _ => None,
    };
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        data: PathBuf::from(".bench_data"),
        dir: None,
        part: 0,
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("size")),
                }
            }
            "--data" => args.data = PathBuf::from(&value),
            "--dir" | "--out" => args.dir = Some(PathBuf::from(&value)),
            "--part" => args.part = value.parse().map_err(|_| bad("part"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn size_flag(size: Size) -> &'static str {
    match size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    }
}

/// Writes the inputs of `spec` for `seed` into `dir`.
pub fn generate(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let graph = schedule::generate_graph(spec);
    let sched = schedule::generate_schedule(spec, &graph, seed);
    ftbfs_corpus::write_binary_path(&graph, &dir.join(run::GRAPH_FILE))
        .map_err(|e| format!("writing graph: {e}"))?;
    std::fs::write(dir.join(run::SCHEDULE_FILE), sched.encode())
        .map_err(|e| format!("writing schedule: {e}"))
}

/// Prints a pass's values in the line form [`read_pass`] parses.
fn print_pass(outcome: &Outcome) {
    for (name, value) in &outcome.values.0 {
        println!("metric {name} {value}");
    }
    println!(
        "result {} {} {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}

/// Parses the output of a `serve` child.
fn read_pass(stdout: &str) -> Result<Outcome, String> {
    let mut values = Values::default();
    let mut result = None;
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value] => values.set(
                name,
                value.parse().map_err(|_| format!("bad value: {line}"))?,
            ),
            ["result", correct, attempted, failed] => {
                result = Some((
                    *correct == "true",
                    attempted
                        .parse()
                        .map_err(|_| format!("bad result: {line}"))?,
                    failed.parse().map_err(|_| format!("bad result: {line}"))?,
                ))
            }
            _ => {}
        }
    }
    let (correct, attempted, failed) = result.ok_or("serve pass printed no result")?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        values,
    })
}

/// Runs this binary as a child with `args`, waits for it, and returns its
/// standard output.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{args:?} failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| "child output is not UTF-8".into())
}

/// The whole benchmark: generate, measure, report.
fn bench(args: &Args, spec: &Spec) -> Result<String, String> {
    let dir = args.data.join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        size_flag(args.size)
    ));
    let common = |cmd: &str| {
        vec![
            cmd.to_string(),
            "--workload".into(),
            spec.name.into(),
            "--seed".into(),
            args.seed.to_string(),
            "--size".into(),
            size_flag(args.size).into(),
        ]
    };
    let mut gen = common("gen");
    gen.extend(["--out".into(), dir.display().to_string()]);
    child(&gen)?;
    let serve = |trace: bool| {
        let passes = (0..spec.processes)
            .map(|part| {
                let mut a = common("serve");
                a.extend([
                    "--dir".into(),
                    dir.display().to_string(),
                    "--seconds".into(),
                    (args.seconds / spec.processes as f64).to_string(),
                    "--trace".into(),
                    if trace { "1" } else { "0" }.into(),
                    "--part".into(),
                    part.to_string(),
                ]);
                child(&a).and_then(|out| read_pass(&out))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>(Outcome::merge(&passes))
    };
    let untraced = serve(false)?;
    let line = if args.trace {
        let traced = serve(true)?;
        let mut outcome = traced.clone();
        let ratio = |name: &str| {
            let (t, u) = (traced.values.get(name), untraced.values.get(name));
            t.zip(u).map_or(0.0, |(t, u)| t / u)
        };
        let overheads = [
            ("trace.overhead_setup_frac", ratio("setup_s") - 1.0),
            ("trace.overhead_cpu_frac", ratio("cpu_us_per_req") - 1.0),
            ("trace.overhead_qps_frac", 1.0 - ratio("client.max_qps")),
            ("trace.overhead_p50_frac", ratio("client.p50_us") - 1.0),
        ];
        for (name, value) in overheads {
            outcome.values.set(name, value);
        }
        outcome.correct &= untraced.correct;
        outcome.attempted += untraced.attempted;
        outcome.failed += untraced.failed;
        outcome.to_json(PER_LAYER)?
    } else {
        // Recorded for telling a noisy host from a slow program; not gated.
        let diagnostics: Vec<String> = [
            "client.max_qps",
            "client.p50_us",
            "client.p95_us",
            "client.p99_us",
            "host.ref_loop_rate",
            "host.ref_loop_drift",
            "host.steal_frac",
        ]
        .iter()
        .filter_map(|n| untraced.values.get(n).map(|v| format!("{n}={v}")))
        .collect();
        println!("diagnostics {}", diagnostics.join(" "));
        untraced.to_json(END_TO_END)?
    };
    // The inputs are regenerated from the seed on every run.
    for file in [run::GRAPH_FILE, run::SCHEDULE_FILE] {
        let _ = std::fs::remove_file(dir.join(file));
    }
    Ok(line)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let name = args.workload.clone().ok_or("--workload is required")?;
        let spec = spec::workload(&name, args.size)
            .ok_or_else(|| format!("unknown workload {name}; known: {:?}", spec::WORKLOADS))?;
        match args.command.as_deref() {
            None => {
                let line = bench(&args, &spec)?;
                println!("{line}");
                Ok(())
            }
            Some("gen") => generate(
                &spec,
                args.seed,
                args.dir.as_deref().ok_or("gen needs --out")?,
            ),
            Some("serve") => {
                let dir = args.dir.as_deref().ok_or("serve needs --dir")?;
                if args.part >= spec.processes {
                    return Err(format!("--part must be below {}", spec.processes));
                }
                let outcome = run::serve_pass(&spec, dir, args.seconds, args.trace, args.part)?;
                print_pass(&outcome);
                Ok(())
            }
            Some(other) => Err(format!("unknown command {other}")),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
