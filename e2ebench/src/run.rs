//! One measured pass over generated inputs: set up (several times), warm
//! up, alternate closed-loop capacity rounds with open-loop latency rounds,
//! then check every answer and report.

use crate::check::{self, TreeIntervals};
use crate::drive::{LoadGen, OpenLoop, Swapper};
use crate::host;
use crate::metrics::{median, percentile, Outcome, Values};
use crate::schedule::Schedule;
use crate::setup::{set_up, Served};
use crate::spec::Spec;
use crate::trace::{Breakdown, Tracer};
use ftbfs_graph::VertexId;
use ftbfs_telemetry::{names, HistogramData, TelemetrySnapshot};
use std::path::Path;
use std::time::Duration;

/// Shares of `--seconds` given to each serving phase; capacity and
/// latency alternate in `ROUNDS` rounds.
const WARMUP_SHARE: f64 = 0.05;
const CAPACITY_SHARE: f64 = 0.40;
const LATENCY_SHARE: f64 = 0.55;
const ROUNDS: usize = 3;

/// The serve stage histograms, by the per-layer metric of their median.
const STAGES: [(&str, &str); 4] = [
    ("serve.stage_submit_p50_ns", names::STAGE_SUBMIT_NS),
    ("serve.stage_queue_wait_p50_ns", names::STAGE_QUEUE_WAIT_NS),
    ("serve.stage_execute_p50_ns", names::STAGE_EXECUTE_NS),
    ("serve.stage_reassembly_p50_ns", names::STAGE_REASSEMBLY_NS),
];

/// Requests per window of the windowed tail latency; each window's 95th
/// percentile has ten samples beyond it.
const TAIL_WINDOW: usize = 200;

pub const GRAPH_FILE: &str = "graph.ftbg";
pub const SCHEDULE_FILE: &str = "schedule.bin";

/// The merged histogram `name` recorded between two scrapes.
fn histogram_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    name: &str,
) -> HistogramData {
    let merged = |snap: &TelemetrySnapshot| {
        let mut data = HistogramData::empty();
        for h in snap.histograms.iter().filter(|h| h.name == name) {
            data.merge_from(&h.to_data());
        }
        data
    };
    let (b, mut a) = (merged(before), merged(after));
    for (x, y) in a.counts.iter_mut().zip(&b.counts) {
        *x -= y;
    }
    a.count -= b.count;
    a.sum = a.sum.wrapping_sub(b.sum);
    // Extremes of the phase alone are unknown; quantiles fall back to
    // bucket bounds.
    a.min = None;
    a.max = None;
    a
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn mean(h: &HistogramData) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

/// Runs one pass of `spec` over the inputs in `dir`: part `part` of the
/// run's `spec.processes` passes, which starts serving at its own share of
/// the schedule.
pub fn serve_pass(
    spec: &Spec,
    dir: &Path,
    seconds: f64,
    trace: bool,
    part: usize,
) -> Result<Outcome, String> {
    let ref_start = host::reference_loop_rate();
    host::spin_up();
    let jiffies_start = host::cpu_jiffies();
    let mut tracer = Tracer::new(trace);
    let mut v = Values::default();

    let schedule = {
        let bytes =
            std::fs::read(dir.join(SCHEDULE_FILE)).map_err(|e| format!("reading schedule: {e}"))?;
        Schedule::decode(&bytes)?
    };
    let graph_path = dir.join(GRAPH_FILE);
    // Peak memory counts from here: the decoded schedule is the baseline.
    let baseline_rss = host::reset_peak_rss()?;

    // ---- set-up, several times back to back; serve from the last -------
    let mut setup_s = Vec::with_capacity(spec.setup_reps);
    let mut served: Option<Served> = None;
    for _ in 0..spec.setup_reps {
        if let Some(previous) = served.take() {
            previous.server.shutdown();
        }
        let s = set_up(spec, &graph_path, &schedule, &mut tracer);
        setup_s.push(s.setup_s);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    v.set("setup_s", median(&setup_s));
    let graph = &served.graph;
    let primary = &served.frozen[0];
    v.set("structure_edges", primary.edge_count() as f64);
    v.set("snapshot_bytes", served.snapshots[0].bytes().len() as f64);

    // ---- serving ---------------------------------------------------------
    let swapper = spec
        .swap_every
        .map(|every| Swapper::new(served.server.publisher(), served.snapshots.clone(), every));
    let offset = part * schedule.entries.len() / spec.processes;
    let mut load = LoadGen::new(served.server.open_stream(), &schedule, offset, swapper);
    let secs = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    load.closed_loop(spec.window, secs(WARMUP_SHARE * ROUNDS as f64))?;
    // Capacity, its CPU cost and latency are measured in alternating rounds.
    // Rates and latencies are medians over short windows, so a host stall
    // (a vCPU descheduled for milliseconds) or a slow spell of the host
    // spoils some windows, not the run.  CPU time per request does not
    // count time the host took away at all.
    let mut windows = Vec::new();
    let mut open = OpenLoop::default();
    let mut stage_deltas = [(); STAGES.len()].map(|_| HistogramData::empty());
    for _ in 0..ROUNDS {
        windows.extend(load.closed_loop(spec.window, secs(CAPACITY_SHARE))?);
        let before = served.server.scrape();
        let round = load.open_loop(spec.rate_per_s, secs(LATENCY_SHARE), &mut tracer);
        let after = served.server.scrape();
        for (delta, (_, name)) in stage_deltas.iter_mut().zip(STAGES) {
            delta.merge_from(&histogram_delta(&before, &after, name));
        }
        open.samples.extend(round.samples);
        open.max_backlog = open.max_backlog.max(round.max_backlog);
    }
    v.set("peak_rss_mb", host::peak_rss_mib()?);
    if windows.is_empty() {
        return Err("the capacity phase is shorter than one rate window".into());
    }
    let per_s: Vec<f64> = windows.iter().map(|w| w.per_s).collect();
    let cpu_ns: Vec<f64> = windows.iter().map(|w| w.cpu_ns_per_req).collect();
    v.set("cpu_us_per_req", median(&cpu_ns) / 1e3);
    v.set("client.max_qps", median(&per_s));
    let latency: Vec<u64> = open.samples.iter().map(|s| s.latency_ns).collect();
    if latency.len() < TAIL_WINDOW {
        return Err(format!(
            "the open loop completed only {} requests",
            latency.len()
        ));
    }
    let windowed = |p: f64| {
        let per_window: Vec<f64> = latency
            .chunks_exact(TAIL_WINDOW)
            .map(|w| percentile(&sorted(w.to_vec()), p) as f64 / 1e3)
            .collect();
        median(&per_window)
    };
    v.set("client.p50_us", windowed(50.0));
    v.set("client.p95_us", windowed(95.0));
    v.set(
        "client.p99_us",
        percentile(&sorted(latency.clone()), 99.0) as f64 / 1e3,
    );

    let health = served.server.health();
    let (submitted, rejected, epochs) = (load.submitted, load.rejected, load.epochs.clone());
    // The stream must close before the server can drain and stop.
    let (mut ledger, swapper) = load.finish();
    served.server.shutdown();

    // ---- correctness -----------------------------------------------------
    let source = VertexId(schedule.source);
    let slots = ledger.served_slots();
    let replays: Vec<check::Replay> = served
        .snapshots
        .iter()
        .zip(&served.frozen)
        .map(|(snapshot, frozen)| {
            let tree = TreeIntervals::new(frozen, source);
            check::replay(snapshot, &schedule, &slots, &ledger, graph, &tree)
        })
        .collect();
    for r in &replays {
        for &slot in &r.mismatched {
            ledger.mark_bad(slot);
        }
    }
    let sample = check::sample(&slots, spec.bfs_checks.div_ceil(spec.processes));
    for slot in check::against_bfs(graph, &schedule, &sample, &ledger) {
        ledger.mark_bad(slot);
    }
    // Every epoch of a swapping workload must have answered (two snapshots
    // with equal structure share one fingerprint).
    let epochs_ok = served
        .snapshots
        .iter()
        .all(|snap| epochs.iter().any(|&(e, _)| e == snap.fingerprint()));
    let attempted = submitted;
    let failed = (ledger.failed() + rejected).min(attempted);
    let correct = failed == 0 && epochs_ok;
    v.set("ok_frac", (attempted - failed) as f64 / attempted as f64);

    // ---- noise diagnostics (recorded, not gated) -------------------------
    let ref_end = host::reference_loop_rate();
    v.set("host.ref_loop_rate", (ref_start + ref_end) / 2.0);
    v.set("host.ref_loop_drift", ref_end / ref_start - 1.0);
    v.set(
        "host.steal_frac",
        host::steal_fraction(jiffies_start, host::cpu_jiffies()),
    );

    if !trace {
        return Ok(Outcome {
            correct,
            attempted,
            failed,
            values: v,
        });
    }

    // ---- per-layer (traced pass only) ------------------------------------
    v.set("host.baseline_rss_mb", baseline_rss);
    // Set-up layers and their sum-check come from the `setup` spans.
    let setups = tracer.breakdown("setup");
    let layer = |f: fn(&Breakdown) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let ingest_s = layer(|b| b.secs("corpus.ingest"));
    v.set("corpus.ingest_s", ingest_s);
    v.set(
        "corpus.ingest_edges_per_s",
        graph.edge_count() as f64 / ingest_s,
    );
    v.set("core.tiebreak_s", layer(|b| b.secs("core.tiebreak")));
    v.set("core.build_s", layer(|b| b.secs("core.build")));
    v.set("core.build_cpu_s", layer(|b| b.cpu_s("core.build")));
    v.set(
        "core.kept_edge_frac",
        primary.edge_count() as f64 / graph.edge_count() as f64,
    );
    v.set("oracle.freeze_s", layer(|b| b.secs("oracle.freeze")));
    v.set("oracle.encode_s", layer(|b| b.secs("oracle.encode")));
    v.set(
        "oracle.bytes_per_edge",
        served.snapshots[0].bytes().len() as f64 / primary.edge_count() as f64,
    );
    let r = &replays[0];
    let calls = sorted(r.call_ns.clone());
    v.set("oracle.engine_p50_ns", percentile(&calls, 50.0) as f64);
    v.set("oracle.engine_p99_ns", percentile(&calls, 99.0) as f64);
    let per_1k = |c: u64| c as f64 * 1e3 / calls.len() as f64;
    v.set("oracle.tree_hits", per_1k(r.stats.tree_hits));
    v.set("oracle.cache_hits", per_1k(r.stats.cache_hits));
    v.set("oracle.searches", per_1k(r.stats.searches));
    let lookups = r.stats.cache_hits + r.stats.searches;
    v.set(
        "oracle.cache_hit_frac",
        if lookups == 0 {
            0.0
        } else {
            r.stats.cache_hits as f64 / lookups as f64
        },
    );
    v.set(
        "oracle.search_needed_frac",
        if r.one_searches == 0 {
            0.0
        } else {
            r.needed as f64 / r.one_searches as f64
        },
    );
    v.set("serve.open_s", layer(|b| b.secs("serve.open")));
    v.set("serve.launch_s", layer(|b| b.secs("serve.launch")));
    let publish = sorted(swapper.map(|s| s.publish_ns).unwrap_or_default());
    v.set("serve.publish_us", percentile(&publish, 50.0) as f64 / 1e3);
    let work = sorted(open.samples.iter().map(|s| s.work_ns).collect());
    v.set("serve.execute_p50_us", percentile(&work, 50.0) as f64 / 1e3);
    let overhead = sorted(
        open.samples
            .iter()
            .map(|s| s.latency_ns.saturating_sub(s.work_ns))
            .collect(),
    );
    v.set(
        "serve.overhead_p50_us",
        percentile(&overhead, 50.0) as f64 / 1e3,
    );
    let mut stage_mean_ns = 0.0;
    for (delta, (metric, _)) in stage_deltas.iter().zip(STAGES) {
        v.set(metric, delta.quantile(0.5).unwrap_or(0) as f64);
        stage_mean_ns += mean(delta);
    }
    v.set("serve.rejected", health.rejected_submits() as f64);
    v.set("serve.worker_restarts", health.worker_restarts as f64);
    // The generator's lateness and the latency sum-check come from the
    // `request` spans and their `gen.late` children.
    let span_ns = |name| -> Vec<u64> {
        tracer
            .named(name)
            .map(|s| (s.end - s.start).as_nanos() as u64)
            .collect()
    };
    let (requests, late) = (span_ns("request"), span_ns("gen.late"));
    v.set(
        "gen.late_p99_us",
        percentile(&sorted(late.clone()), 99.0) as f64 / 1e3,
    );
    v.set("gen.max_backlog", open.max_backlog as f64);

    // ---- layer sum-check -------------------------------------------------
    v.set(
        "check.setup_unexplained_frac",
        layer(Breakdown::unexplained_frac),
    );
    let mean_ns = |d: &[u64]| d.iter().map(|&x| x as f64).sum::<f64>() / d.len() as f64;
    let mean_latency = mean_ns(&requests);
    v.set(
        "check.latency_unexplained_frac",
        (mean_latency - mean_ns(&late) - stage_mean_ns) / mean_latency,
    );
    tracer
        .write(&dir.join(format!("trace-{part}.jsonl")))
        .map_err(|e| format!("writing trace: {e}"))?;

    Ok(Outcome {
        correct,
        attempted,
        failed,
        values: v,
    })
}
