//! Input generation: the graph (fixed per workload, so set-up costs the same
//! on every run) and the request schedule (derived from `--seed`), and the
//! schedule's on-disk form.
//!
//! The generator runs in its own process and writes two files: the graph
//! as FTBG (`graph.ftbg`) and the schedule (`schedule.bin`).  The measured
//! process only reads them.

use crate::spec::{GraphSpec, MixSpec, Spec};
use ftbfs_graph::bytes::{fnv1a64, put_u32, put_u64, ByteReader};
use ftbfs_graph::{bfs, generators, EdgeId, FaultSpec, Graph, GraphView, VertexId};
use ftbfs_serve::ServeRequest;

/// Padding for an absent fault or the absent second fault.
pub const NONE: u32 = u32::MAX;

const MAGIC: [u8; 4] = *b"E2ES";
const VERSION: u32 = 1;

/// Deterministic splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of one input stream of a workload.
pub fn derive_seed(spec: &Spec, seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ spec.salt.rotate_left(17) ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
        .next_u64()
}

/// The workload's graph.
pub fn generate_graph(spec: &Spec) -> Graph {
    let graph_seed = derive_seed(spec, 0, 1);
    match spec.graph {
        GraphSpec::RoadLike {
            rows,
            cols,
            shortcuts,
        } => ftbfs_corpus::road_like(rows, cols, shortcuts, graph_seed).graph,
        GraphSpec::Gnp { n, avg_degree } => {
            generators::connected_gnp(n, avg_degree / n as f64, graph_seed)
        }
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// A whole-row (`ServeRequest::all_distances`) request.
    pub all: bool,
    pub target: u32,
    pub faults: [u32; 2],
}

impl Entry {
    pub fn fault_spec(&self) -> FaultSpec {
        match self.faults {
            [NONE, _] => FaultSpec::None,
            [a, NONE] => FaultSpec::from(EdgeId(a)),
            [a, b] => FaultSpec::from((EdgeId(a), EdgeId(b))),
        }
    }

    pub fn request(&self) -> ServeRequest {
        if self.all {
            ServeRequest::all_distances(self.fault_spec())
        } else {
            ServeRequest::distance(VertexId(self.target), self.fault_spec())
        }
    }
}

/// A generated request schedule with the facts about its graph that the
/// measured process checks before serving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    pub vertices: u32,
    pub edges: u32,
    pub source: u32,
    /// Tie-breaking seed for construction.
    pub tiebreak_seed: u64,
    pub entries: Vec<Entry>,
}

/// The workload's request schedule over `graph` for `seed`.
pub fn generate_schedule(spec: &Spec, graph: &Graph, seed: u64) -> Schedule {
    let mut rng = Rng::new(derive_seed(spec, seed, 2));
    let n = graph.vertex_count();
    let m = graph.edge_count();
    let source = VertexId(0);
    let mut entries = Vec::with_capacity(spec.schedule_len);
    match spec.mix {
        MixSpec::Cold => {
            for _ in 0..spec.schedule_len {
                let a = rng.below(m) as u32;
                let mut b = rng.below(m) as u32;
                while b == a {
                    b = rng.below(m) as u32;
                }
                entries.push(Entry {
                    all: false,
                    target: rng.below(n) as u32,
                    faults: [a, b],
                });
            }
        }
        MixSpec::Outage {
            live_pairs,
            fault_free,
            prefix,
            rotate_every,
            all_rows,
        } => {
            // The first fault of a live pair is a fault-free BFS-tree edge,
            // so the outage actually moves distances; the second is any
            // other edge.
            let tree = bfs(&GraphView::new(graph), source);
            let tree_edges: Vec<u32> = graph
                .vertices()
                .filter_map(|v| tree.parent(v).map(|(_, e)| e.0))
                .collect();
            let new_pair = |rng: &mut Rng| {
                let a = tree_edges[rng.below(tree_edges.len())];
                let mut b = rng.below(m) as u32;
                while b == a {
                    b = rng.below(m) as u32;
                }
                [a, b]
            };
            let mut live: Vec<[u32; 2]> = (0..live_pairs).map(|_| new_pair(&mut rng)).collect();
            // Zipf(1) popularity over the live slots.
            let weights: Vec<f64> = (1..=live_pairs).map(|r| 1.0 / r as f64).collect();
            let total: f64 = weights.iter().sum();
            let mut rotations = 0usize;
            for i in 0..spec.schedule_len {
                if let Some(every) = rotate_every {
                    if i > 0 && i % every == 0 {
                        live[rotations % live_pairs] = new_pair(&mut rng);
                        rotations += 1;
                    }
                }
                let all = rng.unit() < all_rows;
                let target = rng.below(n) as u32;
                let faults = if rng.unit() < fault_free {
                    [NONE, NONE]
                } else {
                    let mut pick = rng.unit() * total;
                    let mut slot = 0;
                    while slot + 1 < live_pairs && pick >= weights[slot] {
                        pick -= weights[slot];
                        slot += 1;
                    }
                    let [a, b] = live[slot];
                    if rng.unit() < prefix {
                        [a, NONE]
                    } else {
                        [a, b]
                    }
                };
                entries.push(Entry {
                    all,
                    target,
                    faults,
                });
            }
        }
    }
    Schedule {
        vertices: n as u32,
        edges: m as u32,
        source: source.0,
        tiebreak_seed: derive_seed(spec, 0, 3),
        entries,
    }
}

impl Schedule {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.entries.len() * 16);
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        put_u32(&mut buf, self.vertices);
        put_u32(&mut buf, self.edges);
        put_u32(&mut buf, self.source);
        put_u64(&mut buf, self.tiebreak_seed);
        put_u32(&mut buf, self.entries.len() as u32);
        for e in &self.entries {
            put_u32(&mut buf, u32::from(e.all));
            put_u32(&mut buf, e.target);
            put_u32(&mut buf, e.faults[0]);
            put_u32(&mut buf, e.faults[1]);
        }
        let sum = fnv1a64(&buf);
        put_u64(&mut buf, sum);
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<Schedule, String> {
        let body_len = bytes
            .len()
            .checked_sub(8)
            .ok_or("schedule file too short")?;
        let (body, trailer) = bytes.split_at(body_len);
        if fnv1a64(body).to_le_bytes() != trailer {
            return Err("schedule checksum mismatch".into());
        }
        let mut r = ByteReader::new(body);
        let err = |e| format!("schedule truncated: {e:?}");
        if r.take_bytes(4).map_err(err)? != MAGIC {
            return Err("not a schedule file".into());
        }
        if r.take_u32().map_err(err)? != VERSION {
            return Err("unsupported schedule version".into());
        }
        let vertices = r.take_u32().map_err(err)?;
        let edges = r.take_u32().map_err(err)?;
        let source = r.take_u32().map_err(err)?;
        let tiebreak_seed = r.take_u64().map_err(err)?;
        let count = r.take_u32().map_err(err)? as usize;
        let mut entries = Vec::with_capacity(count.min(body.len() / 16));
        for _ in 0..count {
            let all = r.take_u32().map_err(err)? != 0;
            let target = r.take_u32().map_err(err)?;
            let faults = [r.take_u32().map_err(err)?, r.take_u32().map_err(err)?];
            entries.push(Entry {
                all,
                target,
                faults,
            });
        }
        if !r.is_empty() {
            return Err("trailing bytes in schedule".into());
        }
        Ok(Schedule {
            vertices,
            edges,
            source,
            tiebreak_seed,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, Size, WORKLOADS};

    #[test]
    fn inputs_are_deterministic_per_seed() {
        for name in WORKLOADS {
            let spec = workload(name, Size::Tiny).unwrap();
            let g1 = generate_graph(&spec);
            let g2 = generate_graph(&spec);
            assert_eq!(
                g1.edges().map(|e| g1.endpoints(e)).collect::<Vec<_>>(),
                g2.edges().map(|e| g2.endpoints(e)).collect::<Vec<_>>()
            );
            let s1 = generate_schedule(&spec, &g1, 7);
            assert_eq!(s1, generate_schedule(&spec, &g2, 7));
            assert_eq!(s1.encode(), generate_schedule(&spec, &g2, 7).encode());
            assert_ne!(
                s1.entries,
                generate_schedule(&spec, &g1, 8).entries,
                "{name}: another seed must give another schedule"
            );
        }
    }

    #[test]
    fn schedule_round_trips_and_rejects_corruption() {
        let spec = workload("road-swap", Size::Tiny).unwrap();
        let g = generate_graph(&spec);
        let s = generate_schedule(&spec, &g, 3);
        let bytes = s.encode();
        assert_eq!(Schedule::decode(&bytes).unwrap(), s);
        let mut bad = bytes.clone();
        bad[40] ^= 1;
        assert!(Schedule::decode(&bad).is_err());
        assert!(Schedule::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn mixes_have_their_documented_shape() {
        let cold = workload("road-cold", Size::Tiny).unwrap();
        let g = generate_graph(&cold);
        let s = generate_schedule(&cold, &g, 1);
        assert!(s.entries.iter().all(|e| !e.all
            && e.faults[0] != NONE
            && e.faults[1] != NONE
            && e.faults[0] != e.faults[1]));

        let swap = workload("road-swap", Size::Full).unwrap();
        let g = generate_graph(&swap);
        let s = generate_schedule(&swap, &g, 1);
        let len = s.entries.len() as f64;
        let rows = s.entries.iter().filter(|e| e.all).count() as f64 / len;
        let free = s.entries.iter().filter(|e| e.faults[0] == NONE).count() as f64 / len;
        assert!((0.03..0.07).contains(&rows), "all-rows share {rows}");
        assert!((0.17..0.23).contains(&free), "fault-free share {free}");
    }
}
