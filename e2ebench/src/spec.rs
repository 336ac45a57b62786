//! The three workloads: what graph each serves, how its structure is
//! built, what its request mix looks like and at what load it is driven.
//!
//! Every number that shapes a run lives here, so the workload table in
//! `BENCHMARK.json` and `README.md` can be checked against one place.

/// How big the generated inputs are: the measured size, or a tiny size
/// for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The graph a workload serves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphSpec {
    /// `ftbfs_corpus::road_like(rows, cols, shortcuts, _)`.
    RoadLike {
        rows: usize,
        cols: usize,
        shortcuts: usize,
    },
    /// `ftbfs_graph::generators::connected_gnp(n, avg_degree / n, _)`.
    Gnp { n: usize, avg_degree: f64 },
}

/// Which structure is frozen and served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructureSpec {
    /// `H = G` at resilience 2: construction is bypassed.
    WholeGraph,
    /// Exact Cons2FTBFS.
    Exact,
    /// Exact Cons2FTBFS and `H = G`, published alternately.
    ExactAndWhole,
}

/// The request mix of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MixSpec {
    /// Every request: a fresh pair of distinct uniformly random failed
    /// edges and a uniform random target.
    Cold,
    /// A persistent outage: `live_pairs` fault pairs with Zipf(1)
    /// popularity, their single-fault prefixes, and `fault_free`
    /// fault-free requests.  `rotate_every` requests one live pair is
    /// replaced; `all_rows` of the requests ask for a whole row.
    Outage {
        live_pairs: usize,
        fault_free: f64,
        prefix: f64,
        rotate_every: Option<usize>,
        all_rows: f64,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Seeds the workload's graph and tie-breaking, which are the same on
    /// every run; mixed into `--seed` for the request schedule.
    pub salt: u64,
    pub graph: GraphSpec,
    pub structure: StructureSpec,
    pub mix: MixSpec,
    /// Requests in the generated schedule; serving cycles through it.
    pub schedule_len: usize,
    /// Open-loop offered rate for the latency phase, requests per second.
    pub rate_per_s: f64,
    /// Closed-loop in-flight window for the capacity phase.
    pub window: usize,
    /// Measuring processes per run, one after another; each sets up,
    /// serves for its share of `--seconds` and checks its answers.
    pub processes: usize,
    /// Back-to-back set-ups per process; a process's set-up time is their
    /// median.
    pub setup_reps: usize,
    /// Publish a new epoch every this many submitted requests.
    pub swap_every: Option<usize>,
    /// Replayed answers checked against BFS on `G ∖ F` per run.
    pub bfs_checks: usize,
}

pub const WORKLOADS: [&str; 3] = ["road-cold", "gnp-hot", "road-swap"];

/// Threads for construction (nothing else runs while it does).
pub const BUILD_THREADS: usize = 2;

/// Server workers; with the single-threaded load generator the serving
/// phase uses two cores.
pub const WORKERS: usize = 1;

/// The workload called `name` at `size`, or `None` if there is none.
pub fn workload(name: &str, size: Size) -> Option<Spec> {
    let full = size == Size::Full;
    let spec = match name {
        "road-cold" => Spec {
            name: "road-cold",
            salt: 0xC01D,
            graph: if full {
                GraphSpec::RoadLike {
                    rows: 200,
                    cols: 200,
                    shortcuts: 200,
                }
            } else {
                GraphSpec::RoadLike {
                    rows: 12,
                    cols: 12,
                    shortcuts: 6,
                }
            },
            structure: StructureSpec::WholeGraph,
            mix: MixSpec::Cold,
            schedule_len: if full { 32_768 } else { 512 },
            rate_per_s: if full { 150.0 } else { 400.0 },
            window: 16,
            processes: if full { 6 } else { 2 },
            setup_reps: 25,
            swap_every: None,
            bfs_checks: if full { 1_000 } else { 40 },
        },
        "gnp-hot" => Spec {
            name: "gnp-hot",
            salt: 0x607,
            graph: GraphSpec::Gnp {
                n: if full { 1_200 } else { 60 },
                avg_degree: 8.0,
            },
            structure: StructureSpec::Exact,
            mix: MixSpec::Outage {
                live_pairs: 8,
                fault_free: 0.2,
                prefix: 0.3,
                rotate_every: None,
                all_rows: 0.0,
            },
            schedule_len: if full { 131_072 } else { 2_048 },
            rate_per_s: if full { 10_000.0 } else { 2_000.0 },
            window: 1024,
            processes: if full { 6 } else { 2 },
            setup_reps: 1,
            swap_every: None,
            bfs_checks: if full { 2_000 } else { 40 },
        },
        "road-swap" => Spec {
            name: "road-swap",
            salt: 0x5A4B,
            graph: if full {
                GraphSpec::RoadLike {
                    rows: 24,
                    cols: 24,
                    shortcuts: 24,
                }
            } else {
                GraphSpec::RoadLike {
                    rows: 6,
                    cols: 6,
                    shortcuts: 3,
                }
            },
            structure: StructureSpec::ExactAndWhole,
            mix: MixSpec::Outage {
                live_pairs: 8,
                fault_free: 0.2,
                prefix: 0.3,
                rotate_every: Some(if full { 2_000 } else { 100 }),
                all_rows: 0.05,
            },
            schedule_len: if full { 32_768 } else { 2_048 },
            rate_per_s: if full { 20_000.0 } else { 2_000.0 },
            window: 1024,
            processes: if full { 6 } else { 2 },
            setup_reps: 1,
            swap_every: Some(if full { 5_000 } else { 200 }),
            bfs_checks: if full { 2_000 } else { 40 },
        },
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_resolves_at_both_sizes() {
        for name in WORKLOADS {
            for size in [Size::Full, Size::Tiny] {
                let spec = workload(name, size).expect("listed workload exists");
                assert_eq!(spec.name, name);
                assert!(spec.schedule_len > 0 && spec.rate_per_s > 0.0);
            }
        }
        assert!(workload("nope", Size::Full).is_none());
    }
}
