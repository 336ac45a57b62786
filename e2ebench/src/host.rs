//! What the host is doing: a fixed reference loop, steal time, the
//! process's CPU time and peak memory.  Linux `/proc` only.  The
//! diagnostics (reference loop, steal, build CPU time) read a missing file
//! as zero; the sources of gated metrics (thread CPU time, peak memory)
//! make it an error.

use std::time::Instant;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100
/// on Linux).
const USER_HZ: f64 = 100.0;

/// Iterations of the fixed reference loop per second: the median of nine
/// short rounds (~20 ms in all).  The loop is the same integer work on
/// every run, so its rate tells a slow host from a slow program.
pub fn reference_loop_rate() -> f64 {
    const ITERS: u64 = 1_000_000;
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            for i in 0..ITERS {
                x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
            }
            std::hint::black_box(x);
            ITERS as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    crate::metrics::median(&rounds)
}

/// Keeps a CPU busy for ~300 ms, so that set-up timings do not depend on
/// how long the host let this vCPU idle before the run (short set-ups ran
/// up to 2x slower in their first repetitions without it).
pub fn spin_up() {
    let start = Instant::now();
    while start.elapsed() < std::time::Duration::from_millis(300) {
        reference_loop_rate();
    }
}

/// Aggregate `(steal, total)` jiffies from the `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time stolen between two [`cpu_jiffies`] readings.
pub fn steal_fraction(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        return 0.0;
    }
    end.0.saturating_sub(start.0) as f64 / total as f64
}

/// User plus system CPU seconds of this process, all threads (exited ones
/// included).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, 12 and 13
    // after the name.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Nanoseconds the process's live threads have run on a CPU (scheduler
/// run time from `/proc/self/task/*/schedstat`; excludes time the host
/// stole).  A thread that exits while it is read is skipped; an error if
/// no thread could be read.
pub fn threads_cpu_ns() -> Result<u64, String> {
    let tasks = std::fs::read_dir("/proc/self/task")
        .map_err(|e| format!("reading /proc/self/task: {e}"))?;
    let times: Vec<u64> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .collect();
    if times.is_empty() {
        return Err("no readable /proc/self/task/*/schedstat".into());
    }
    Ok(times.iter().sum())
}

/// The `VmHWM` (peak) or `VmRSS` (current) resident set size of this
/// process in MiB.
fn status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    status_mib("VmHWM")
}

/// Resets the peak resident set size to the current one; returns that, in
/// MiB.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))?;
    status_mib("VmRSS")
}
