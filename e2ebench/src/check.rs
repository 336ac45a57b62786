//! Correctness: every served answer against an engine replay, the replay
//! against BFS on `G ∖ F`, and the fault-free tree intervals that say
//! whether a search was needed at all.

use crate::schedule::{Entry, Schedule};
use ftbfs_graph::bytes::fnv1a64;
use ftbfs_graph::{bfs, EdgeId, FaultSpec, Graph, GraphView, VertexId};
use ftbfs_oracle::{FrozenStructure, Guarantee, QueryEngine, QueryStats};
use ftbfs_serve::{EpochSnapshot, ServeOutput, ServeResponse};
use std::time::Instant;

/// An answer as compared: one distance, or a fingerprint of a whole row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    One(Option<u32>),
    Row(u64),
}

fn row_fingerprint(row: &[Option<u32>]) -> u64 {
    let bytes: Vec<u8> = row
        .iter()
        .flat_map(|d| d.unwrap_or(u32::MAX).to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// The answer a response carries, if it is an `Ok` answer labelled
/// `Guarantee::Exact`.
pub fn exact_answer(resp: &ServeResponse) -> Option<Answer> {
    let answer = resp.outcome.as_ref().ok()?;
    if answer.guarantee() != Guarantee::Exact {
        return None;
    }
    match answer.value() {
        ServeOutput::Distance(d) => Some(Answer::One(*d)),
        ServeOutput::Distances(row) => Some(Answer::Row(row_fingerprint(row))),
        _ => None,
    }
}

/// Served answers, one slot per schedule entry (serving cycles through
/// the schedule, so a slot may be served many times; every time must
/// agree).
#[derive(Debug)]
pub struct Ledger {
    answers: Vec<Option<Answer>>,
    /// `Ok`, exact answers served per slot.
    served: Vec<u64>,
    /// Slots whose answers disagree with each other or with the replay.
    bad: Vec<bool>,
    /// Responses that were errors or not labelled exact.
    pub not_exact: u64,
}

impl Ledger {
    pub fn new(len: usize) -> Self {
        Ledger {
            answers: vec![None; len],
            served: vec![0; len],
            bad: vec![false; len],
            not_exact: 0,
        }
    }

    pub fn observe(&mut self, slot: usize, resp: &ServeResponse) {
        let Some(answer) = exact_answer(resp) else {
            self.not_exact += 1;
            return;
        };
        self.served[slot] += 1;
        match self.answers[slot] {
            None => self.answers[slot] = Some(answer),
            Some(prev) if prev != answer => self.bad[slot] = true,
            Some(_) => {}
        }
    }

    /// Slots served at least once, ascending.
    pub fn served_slots(&self) -> Vec<usize> {
        (0..self.answers.len())
            .filter(|&i| self.answers[i].is_some())
            .collect()
    }

    pub fn answer(&self, slot: usize) -> Option<Answer> {
        self.answers[slot]
    }

    pub fn mark_bad(&mut self, slot: usize) {
        self.bad[slot] = true;
    }

    /// Responses that failed: errors, non-exact labels, and every
    /// response of a slot whose answers were wrong.
    pub fn failed(&self) -> u64 {
        let wrong: u64 = (0..self.bad.len())
            .filter(|&i| self.bad[i])
            .map(|i| self.served[i])
            .sum();
        self.not_exact + wrong
    }
}

/// Pre/post intervals of the fault-free tree: `(parent(c), c)` lies on
/// the tree path to `t` iff `c` is an ancestor of `t`.
pub struct TreeIntervals {
    parent: Vec<Option<VertexId>>,
    pre: Vec<u32>,
    size: Vec<u32>,
}

impl TreeIntervals {
    pub fn new(frozen: &FrozenStructure, source: VertexId) -> Self {
        let tree = frozen.tree_for(source).expect("source has a tree");
        let n = frozen.vertex_count();
        let parent: Vec<Option<VertexId>> = (0..n).map(|v| tree.parent(VertexId::new(v))).collect();
        let mut children = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(v as u32);
            }
        }
        let mut pre = vec![u32::MAX; n];
        let mut size = vec![1u32; n];
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![source.0];
        while let Some(v) = stack.pop() {
            pre[v as usize] = order.len() as u32;
            order.push(v);
            stack.extend(children[v as usize].iter().rev());
        }
        for &v in order.iter().rev() {
            if let Some(p) = parent[v as usize] {
                size[p.index()] += size[v as usize];
            }
        }
        TreeIntervals { parent, pre, size }
    }

    /// Whether any failed edge of `faults` lies on the tree path to `t`.
    pub fn path_hit(&self, graph: &Graph, faults: &FaultSpec, t: VertexId) -> bool {
        let pt = self.pre[t.index()];
        if pt == u32::MAX {
            return false;
        }
        faults.iter().any(|e: EdgeId| {
            let ends = graph.endpoints(e);
            let child = if self.parent[ends.v.index()] == Some(ends.u) {
                ends.v
            } else if self.parent[ends.u.index()] == Some(ends.v) {
                ends.u
            } else {
                return false;
            };
            let pc = self.pre[child.index()];
            pc <= pt && pt < pc + self.size[child.index()]
        })
    }
}

/// What replaying the served slots through one engine found.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-call engine time, in replay order.
    pub call_ns: Vec<u64>,
    pub stats: QueryStats,
    /// Single-target calls that ran a search, and how many of those had a
    /// failed edge on the target's fault-free tree path.
    pub one_searches: u64,
    pub needed: u64,
    /// Slots whose replayed answer differed from the served one.
    pub mismatched: Vec<usize>,
}

/// Replays `slots` of the schedule through a single-threaded
/// `QueryEngine` over `snapshot.open()`, compares each answer with the
/// ledger, and counts whether each search was needed.
pub fn replay(
    snapshot: &EpochSnapshot,
    schedule: &Schedule,
    slots: &[usize],
    ledger: &Ledger,
    graph: &Graph,
    tree: &TreeIntervals,
) -> Replay {
    let view = snapshot.open();
    let source = VertexId(schedule.source);
    let mut engine = QueryEngine::new();
    let mut out = Replay {
        call_ns: Vec::with_capacity(slots.len()),
        ..Replay::default()
    };
    for &slot in slots {
        let entry: &Entry = &schedule.entries[slot];
        let spec = entry.fault_spec();
        let searches = engine.stats().searches;
        let start = Instant::now();
        let answer = if entry.all {
            let row = engine.try_all_distances_from(&view, source, &spec);
            out.call_ns.push(start.elapsed().as_nanos() as u64);
            row.map(|a| Answer::Row(row_fingerprint(a.value())))
        } else {
            let d = engine.try_distance_from(&view, source, VertexId(entry.target), &spec);
            out.call_ns.push(start.elapsed().as_nanos() as u64);
            d.map(|a| Answer::One(*a.value()))
        };
        if !entry.all && engine.stats().searches > searches {
            out.one_searches += 1;
            if tree.path_hit(graph, &spec, VertexId(entry.target)) {
                out.needed += 1;
            }
        }
        if answer.ok() != ledger.answer(slot) {
            out.mismatched.push(slot);
        }
    }
    out.stats = engine.stats();
    out
}

/// Checks the ledger's answers for `slots` against BFS on `G ∖ F`;
/// returns the slots that disagree.
pub fn against_bfs(
    graph: &Graph,
    schedule: &Schedule,
    slots: &[usize],
    ledger: &Ledger,
) -> Vec<usize> {
    let source = VertexId(schedule.source);
    slots
        .iter()
        .copied()
        .filter(|&slot| {
            let entry = &schedule.entries[slot];
            let faults = entry.fault_spec().to_fault_set();
            let truth = bfs(&GraphView::new(graph).without_faults(&faults), source);
            let expected = if entry.all {
                let row: Vec<Option<u32>> = graph.vertices().map(|v| truth.distance(v)).collect();
                Answer::Row(row_fingerprint(&row))
            } else {
                Answer::One(truth.distance(VertexId(entry.target)))
            };
            ledger.answer(slot) != Some(expected)
        })
        .collect()
}

/// An evenly spaced, deterministic sample of `k` of `slots`.
pub fn sample(slots: &[usize], k: usize) -> Vec<usize> {
    if slots.len() <= k {
        return slots.to_vec();
    }
    (0..k).map(|i| slots[i * slots.len() / k]).collect()
}
