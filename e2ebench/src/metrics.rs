//! The metric catalogue and the result line.
//!
//! `END_TO_END` is what a user of the serving system sees; it is printed
//! by untraced runs.  `PER_LAYER` is printed by traced runs.  The names,
//! units and order here are the ones `BENCHMARK.json` lists (a test keeps
//! the two in step).

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_req", "us"),
    ("ok_frac", "ratio"),
    ("structure_edges", "count"),
    ("snapshot_bytes", "B"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.max_qps", "1/s"),
    ("client.p50_us", "us"),
    ("client.p95_us", "us"),
    ("client.p99_us", "us"),
    ("corpus.ingest_s", "s"),
    ("corpus.ingest_edges_per_s", "1/s"),
    ("core.tiebreak_s", "s"),
    ("core.build_s", "s"),
    ("core.build_cpu_s", "s"),
    ("core.kept_edge_frac", "ratio"),
    ("oracle.freeze_s", "s"),
    ("oracle.encode_s", "s"),
    ("oracle.bytes_per_edge", "B/edge"),
    ("oracle.engine_p50_ns", "ns"),
    ("oracle.engine_p99_ns", "ns"),
    ("oracle.tree_hits", "count/1k"),
    ("oracle.cache_hits", "count/1k"),
    ("oracle.searches", "count/1k"),
    ("oracle.cache_hit_frac", "ratio"),
    ("oracle.search_needed_frac", "ratio"),
    ("serve.open_s", "s"),
    ("serve.launch_s", "s"),
    ("serve.publish_us", "us"),
    ("serve.execute_p50_us", "us"),
    ("serve.overhead_p50_us", "us"),
    ("serve.stage_submit_p50_ns", "ns"),
    ("serve.stage_queue_wait_p50_ns", "ns"),
    ("serve.stage_execute_p50_ns", "ns"),
    ("serve.stage_reassembly_p50_ns", "ns"),
    ("serve.rejected", "count"),
    ("serve.worker_restarts", "count"),
    ("gen.late_p99_us", "us"),
    ("gen.max_backlog", "count"),
    ("host.ref_loop_rate", "1/s"),
    ("host.ref_loop_drift", "ratio"),
    ("host.steal_frac", "ratio"),
    ("host.baseline_rss_mb", "MiB"),
    ("check.setup_unexplained_frac", "ratio"),
    ("check.latency_unexplained_frac", "ratio"),
    ("trace.overhead_setup_frac", "ratio"),
    ("trace.overhead_cpu_frac", "ratio"),
    ("trace.overhead_qps_frac", "ratio"),
    ("trace.overhead_p50_frac", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Named values of one pass, in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The outcome of a run: what the last line of standard output reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The result line: every metric of `catalogue`, by name with its
    /// unit.  A catalogued metric the run did not produce is an error.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Metrics that add up over a run's passes rather than take the median.
const SUMMED: &[&str] = &["serve.rejected", "serve.worker_restarts"];

/// Gated timings that take the mean over a run's passes.  Each pass is a
/// process, and a process runs as a whole in one of a few speed modes
/// (set-ups of one build on one host fell near 17 ms or near 25 ms per
/// process, each process steady within itself); the median of a few draws
/// from such a mix jumps between the modes, their mean does not.  Within
/// a pass these are already medians, so one stall does not move the mean.
const MEANED: &[&str] = &["setup_s", "cpu_us_per_req"];

impl Outcome {
    /// One outcome from a run's passes: attempts and failures add up,
    /// `ok_frac` is recomputed over all attempts, counts of rejections and
    /// restarts add up, `gen.max_backlog` is the largest, the [`MEANED`]
    /// timings take the mean, and every other metric is the median over
    /// the passes.
    pub fn merge(passes: &[Outcome]) -> Outcome {
        let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
        let failed: u64 = passes.iter().map(|p| p.failed).sum();
        let mut values = Values::default();
        for (name, _) in &passes[0].values.0 {
            let all: Vec<f64> = passes.iter().filter_map(|p| p.values.get(name)).collect();
            let value = match name.as_str() {
                "ok_frac" => (attempted - failed) as f64 / attempted as f64,
                "gen.max_backlog" => all.iter().copied().fold(0.0, f64::max),
                n if SUMMED.contains(&n) => all.iter().sum(),
                n if MEANED.contains(&n) => all.iter().sum::<f64>() / all.len() as f64,
                _ => median(&all),
            };
            values.set(name, value);
        }
        Outcome {
            correct: passes.iter().all(|p| p.correct),
            attempted,
            failed,
            values,
        }
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form carries.
fn json_number(value: f64) -> String {
    let s = format!("{value}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank percentile (`0.0 ..= 100.0`) of a sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut values = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            values.set(name, i as f64 + 0.5);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
        };
        let line = outcome.to_json(END_TO_END).unwrap();
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} missing from {line}"
            );
        }
        assert!(outcome.to_json(PER_LAYER).is_err(), "unmeasured metric");
    }

    #[test]
    fn passes_merge_by_median_and_by_sum() {
        let pass = |correct, attempted, failed, setup_s: f64, rejected| {
            let mut values = Values::default();
            values.set("setup_s", setup_s);
            values.set("peak_rss_mb", setup_s * setup_s);
            values.set("ok_frac", 0.0);
            values.set("serve.rejected", rejected);
            values.set("gen.max_backlog", setup_s);
            Outcome {
                correct,
                attempted,
                failed,
                values,
            }
        };
        let merged = Outcome::merge(&[
            pass(true, 10, 0, 3.0, 1.0),
            pass(false, 30, 2, 1.0, 0.0),
            pass(true, 20, 0, 2.0, 2.0),
        ]);
        assert!(!merged.correct);
        assert_eq!((merged.attempted, merged.failed), (60, 2));
        assert_eq!(merged.values.get("setup_s"), Some(2.0));
        assert_eq!(merged.values.get("peak_rss_mb"), Some(4.0));
        assert_eq!(merged.values.get("ok_frac"), Some(58.0 / 60.0));
        assert_eq!(merged.values.get("serve.rejected"), Some(3.0));
        assert_eq!(merged.values.get("gen.max_backlog"), Some(3.0));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.203_456_789), "1.203456789");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
