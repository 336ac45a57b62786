//! The query-engine recorder seam: instrumentation that costs nothing
//! when unused.
//!
//! `ftbfs-oracle`'s `QueryEngine` is generic over a [`QueryRecorder`] and
//! defaults to [`NoopRecorder`]: every recorder call in the engine is an
//! `#[inline(always)]` empty body in the default build, so the
//! uninstrumented engine monomorphises to *exactly* the pre-telemetry
//! machine code (E10's 1M qps smoke floor runs on this path and CI holds
//! it).  Instrumented callers — the serve workers, the throughput
//! harness's overhead gate — plug in a [`CounterRecorder`] whose handles
//! come from a [`MetricsRegistry`](crate::MetricsRegistry), paying one
//! relaxed `fetch_add` per recorded edge.

use crate::metrics::{Counter, MetricsRegistry};
use crate::names;

/// Engine-level instrumentation hooks.  Called from the query hot path:
/// implementations must not allocate or lock.
pub trait QueryRecorder {
    /// A query was answered from a precomputed fault-free tree (the
    /// `O(1)` fast path).
    fn tree_hit(&mut self);
    /// A query was answered from the per-source LRU cache.
    fn cache_hit(&mut self);
    /// A query ran the overlay-BFS slow path.
    fn search(&mut self);
    /// The engine's workspace epoch was bumped (one per BFS run).
    fn epoch_bump(&mut self);
    /// A query exceeded the design resilience and was answered
    /// best-effort.
    fn best_effort(&mut self);
}

/// The default recorder: every hook is an empty `#[inline(always)]` body,
/// so the uninstrumented engine compiles the calls away entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl QueryRecorder for NoopRecorder {
    #[inline(always)]
    fn tree_hit(&mut self) {}
    #[inline(always)]
    fn cache_hit(&mut self) {}
    #[inline(always)]
    fn search(&mut self) {}
    #[inline(always)]
    fn epoch_bump(&mut self) {}
    #[inline(always)]
    fn best_effort(&mut self) {}
}

/// A recorder bumping registry counters: one relaxed `fetch_add` per
/// hook, no allocation (the handles are pre-registered `Arc`s).
#[derive(Clone, Debug)]
pub struct CounterRecorder {
    /// Tree fast-path hits ([`names::ENGINE_TREE_HITS`]).
    pub tree_hits: Counter,
    /// LRU cache hits ([`names::ENGINE_CACHE_HITS`]).
    pub cache_hits: Counter,
    /// Overlay-BFS searches ([`names::ENGINE_SEARCHES`]).
    pub searches: Counter,
    /// Workspace epoch bumps ([`names::ENGINE_EPOCH_BUMPS`]).
    pub epoch_bumps: Counter,
    /// Best-effort answers ([`names::ENGINE_BEST_EFFORT`]).
    pub best_effort: Counter,
}

impl CounterRecorder {
    /// Registers (or retrieves) the engine counters on `registry` with
    /// the given label pairs (e.g. `[("shard", "0")]` for a serve
    /// worker).
    #[must_use]
    pub fn register(registry: &MetricsRegistry, labels: &[(&'static str, &str)]) -> Self {
        let owned = || -> Vec<(&'static str, String)> {
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect()
        };
        CounterRecorder {
            tree_hits: registry.counter_with(
                names::ENGINE_TREE_HITS,
                names::ENGINE_TREE_HITS_HELP,
                owned(),
            ),
            cache_hits: registry.counter_with(
                names::ENGINE_CACHE_HITS,
                names::ENGINE_CACHE_HITS_HELP,
                owned(),
            ),
            searches: registry.counter_with(
                names::ENGINE_SEARCHES,
                names::ENGINE_SEARCHES_HELP,
                owned(),
            ),
            epoch_bumps: registry.counter_with(
                names::ENGINE_EPOCH_BUMPS,
                names::ENGINE_EPOCH_BUMPS_HELP,
                owned(),
            ),
            best_effort: registry.counter_with(
                names::ENGINE_BEST_EFFORT,
                names::ENGINE_BEST_EFFORT_HELP,
                owned(),
            ),
        }
    }

    /// Detached counters (no registry) — for tests.
    #[must_use]
    pub fn detached() -> Self {
        CounterRecorder {
            tree_hits: Counter::detached(),
            cache_hits: Counter::detached(),
            searches: Counter::detached(),
            epoch_bumps: Counter::detached(),
            best_effort: Counter::detached(),
        }
    }
}

impl QueryRecorder for CounterRecorder {
    #[inline]
    fn tree_hit(&mut self) {
        self.tree_hits.inc();
    }
    #[inline]
    fn cache_hit(&mut self) {
        self.cache_hits.inc();
    }
    #[inline]
    fn search(&mut self) {
        self.searches.inc();
    }
    #[inline]
    fn epoch_bump(&mut self) {
        self.epoch_bumps.inc();
    }
    #[inline]
    fn best_effort(&mut self) {
        self.best_effort.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_recorder_bumps_registry_counters() {
        let registry = MetricsRegistry::new();
        let mut recorder = CounterRecorder::register(&registry, &[("shard", "3")]);
        recorder.tree_hit();
        recorder.tree_hit();
        recorder.cache_hit();
        recorder.search();
        recorder.epoch_bump();
        recorder.best_effort();
        assert_eq!(recorder.tree_hits.get(), 2);
        let snapshot = registry.scrape();
        let tree = snapshot
            .counters
            .iter()
            .find(|c| c.name == names::ENGINE_TREE_HITS)
            .expect("registered");
        assert_eq!(tree.value, 2);
        assert_eq!(tree.labels, vec![("shard".to_string(), "3".to_string())]);
    }

    #[test]
    fn registering_twice_shares_cells() {
        let registry = MetricsRegistry::new();
        let mut a = CounterRecorder::register(&registry, &[]);
        let b = CounterRecorder::register(&registry, &[]);
        a.search();
        assert_eq!(b.searches.get(), 1);
    }
}
