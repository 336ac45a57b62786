//! `ftbfs-snapshot` — the ops CLI of the snapshot and telemetry plane.
//!
//! Three subcommands, all file-in/text-out so they compose with shell
//! tooling:
//!
//! * `inspect <snapshot> [--check]` — prints the v2 outer layout of a
//!   snapshot file (format, version, fingerprint, base range, and the
//!   full section table with decoded four-character kind tags).  Parsing
//!   already validates frame and per-section checksums; `--check`
//!   additionally opens the snapshot as a serving view, running the full
//!   semantic validation a server would.
//! * `verify <snapshot>...` — deep-validates each file (v1 snapshots are
//!   loaded, v2 snapshots are opened as views) and reports one `ok`/
//!   `FAIL` line per file; exits non-zero if any file fails.
//! * `scrape <telemetry.json> [--json]` — converts a JSON telemetry
//!   snapshot (as written by [`TelemetrySnapshot::to_json`], e.g. from
//!   `StreamServer::scrape`) to Prometheus text exposition format; with
//!   `--json` re-emits normalised JSON instead (a round-trip check).
//!
//! Exit codes: 0 on success, 1 on validation/parse failure, 2 on usage
//! errors.

use ftbfs_bench::Table;
use ftbfs_oracle::{
    snapshot_layout, FrozenMultiStructure, FrozenMultiView, FrozenStructure, FrozenView,
    SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC,
};
use ftbfs_telemetry::TelemetrySnapshot;
use std::process::ExitCode;

/// Decodes a little-endian four-character section kind tag for display.
fn fourcc(kind: u32) -> String {
    kind.to_le_bytes()
        .iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
        .collect()
}

/// The snapshot family, by magic.
fn family(data: &[u8]) -> Option<&'static str> {
    if data.len() < 4 {
        None
    } else if data[..4] == SNAPSHOT_MAGIC {
        Some("single (FTBO)")
    } else if data[..4] == SNAPSHOT_MULTI_MAGIC {
        Some("multi (FTBM)")
    } else {
        None
    }
}

/// Opens `data` the way a server would, running full semantic validation.
/// v2 bytes open as zero-rebuild views; v1 bytes take the load path.
fn deep_validate(data: &[u8]) -> Result<&'static str, String> {
    match family(data) {
        Some("single (FTBO)") => match snapshot_layout(data) {
            Ok(_) => FrozenView::open_bytes(data)
                .map(|_| "v2 view opened")
                .map_err(|e| e.to_string()),
            Err(SnapshotError::UnsupportedVersion(1)) => FrozenStructure::load(data)
                .map(|_| "v1 loaded")
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        },
        Some(_) => match snapshot_layout(data) {
            Ok(_) => FrozenMultiView::open_bytes(data)
                .map(|_| "v2 view opened")
                .map_err(|e| e.to_string()),
            Err(SnapshotError::UnsupportedVersion(1)) => FrozenMultiStructure::load(data)
                .map(|_| "v1 loaded")
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        },
        None => Err("not an FT-BFS snapshot (bad magic)".to_string()),
    }
}

fn inspect(path: &str, check: bool) -> ExitCode {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    let Some(kind) = family(&data) else {
        eprintln!("{path}: not an FT-BFS snapshot (bad magic)");
        return ExitCode::from(1);
    };
    let layout = match snapshot_layout(&data) {
        Ok(l) => l,
        Err(SnapshotError::UnsupportedVersion(1)) => {
            println!(
                "{path}: {kind} v1 snapshot, {} bytes (no section table; v1 rebuilds on load)",
                data.len()
            );
            if check {
                return report_check(path, &data);
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{path}: {kind} v{} snapshot, {} bytes",
        layout.version,
        data.len()
    );
    println!(
        "fingerprint {:#018x}, base payload bytes {}..{}",
        layout.fingerprint, layout.base.start, layout.base.end
    );
    let mut table = Table::new(
        "section table (checksums validated on parse)",
        &["kind", "offset", "len", "checksum"],
    );
    for s in &layout.sections {
        table.row(vec![
            fourcc(s.kind),
            s.offset.to_string(),
            s.len.to_string(),
            format!("{:#018x}", s.checksum),
        ]);
    }
    table.print();
    if check {
        return report_check(path, &data);
    }
    ExitCode::SUCCESS
}

fn report_check(path: &str, data: &[u8]) -> ExitCode {
    match deep_validate(data) {
        Ok(how) => {
            println!("check ok: {how}, full semantic validation passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: CHECK FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

fn verify(paths: &[String]) -> ExitCode {
    let mut failed = false;
    for path in paths {
        match std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|d| deep_validate(&d))
        {
            Ok(how) => println!("{path}: ok ({how})"),
            Err(e) => {
                println!("{path}: FAIL ({e})");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn scrape(path: &str, as_json: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    match TelemetrySnapshot::from_json(&text) {
        Ok(snapshot) => {
            if as_json {
                print!("{}", snapshot.to_json());
            } else {
                print!("{}", snapshot.to_prometheus());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: telemetry JSON parse failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ftbfs-snapshot inspect <snapshot> [--check]\n       \
         ftbfs-snapshot verify <snapshot>...\n       \
         ftbfs-snapshot scrape <telemetry.json> [--json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    match (args.first().map(String::as_str), positional.len()) {
        (Some("inspect"), 2) => inspect(positional[1], args.iter().any(|a| a == "--check")),
        (Some("verify"), n) if n >= 2 => {
            let paths: Vec<String> = positional[1..].iter().map(|s| s.to_string()).collect();
            verify(&paths)
        }
        (Some("scrape"), 2) => scrape(positional[1], args.iter().any(|a| a == "--json")),
        _ => usage(),
    }
}
