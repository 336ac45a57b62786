//! The server's telemetry plane: [`ServeTelemetry`] bundles the metrics
//! registry, the request-lifecycle stage histograms, the per-shard
//! backpressure gauges, and the structured trace-event ring that one
//! [`crate::StreamServer`] shares across its streams, workers and
//! publishers.
//!
//! Everything here follows the relaxed-atomic discipline of the health
//! counters: hot-path recording is a handful of relaxed RMWs on
//! pre-registered `Arc` handles (no locks, no allocation), and
//! [`ServeTelemetry::scrape`] folds the whole plane into one
//! [`TelemetrySnapshot`] that both export surfaces (Prometheus text and
//! JSON) render from.
//!
//! Stage timing splits a request's life into four measured segments:
//!
//! | stage | histogram | recorded by |
//! |---|---|---|
//! | submit/admission | [`names::STAGE_SUBMIT_NS`] | [`crate::StreamHandle::submit`] |
//! | queue wait | [`names::STAGE_QUEUE_WAIT_NS`] | worker, at item pickup |
//! | engine execute | [`names::STAGE_EXECUTE_NS`] | worker, around `answer` |
//! | reassembly | [`names::STAGE_REASSEMBLY_NS`] | [`crate::StreamHandle::recv`] |
//!
//! Submit, queue-wait and execute are labelled by request `target`
//! (`"one"`/`"all"`); execute is additionally labelled by the answer
//! `guarantee` (`"exact"`, `"best_effort"`, `"error"`).  Workers record
//! into their own histogram shard, so concurrent shards never contend on
//! a bucket cache line.

use crate::request::{ServeOutput, ServeTarget};
use crate::ServeError;
use ftbfs_oracle::{Answer, Guarantee};
use ftbfs_telemetry::{
    names, CounterRecorder, EventRing, Gauge, Histogram, MetricsRegistry, TelemetrySnapshot,
    TimedEvent, DEFAULT_EVENT_CAPACITY,
};
use std::sync::Arc;

/// Index of a [`ServeTarget`] into the per-target histogram arrays.
fn target_index(target: &ServeTarget) -> usize {
    match target {
        ServeTarget::One(_) => 0,
        _ => 1,
    }
}

/// The `target` label value of a [`ServeTarget`].
fn target_label(index: usize) -> &'static str {
    if index == 0 {
        "one"
    } else {
        "all"
    }
}

/// The `guarantee` label index of an outcome: exact, best-effort, error.
fn guarantee_index(outcome: &Result<Answer<ServeOutput>, ServeError>) -> usize {
    match outcome {
        Ok(a) => match a.guarantee() {
            Guarantee::Exact => 0,
            _ => 1,
        },
        Err(_) => 2,
    }
}

/// The `guarantee` label value for an index from [`guarantee_index`].
fn guarantee_label(index: usize) -> &'static str {
    ["exact", "best_effort", "error"][index]
}

/// One server's telemetry plane; obtained from
/// [`crate::StreamServer::telemetry`].
///
/// Cheap to share (`Arc` internally); scraping is read-only and safe
/// under live load.
#[derive(Debug)]
pub struct ServeTelemetry {
    registry: Arc<MetricsRegistry>,
    events: Arc<EventRing>,
    /// `[one, all]` submit/admission latency.
    stage_submit: [Histogram; 2],
    /// `[one, all]` queue-wait latency.
    stage_queue_wait: [Histogram; 2],
    /// `[one, all] × [exact, best_effort, error]` execute latency.
    stage_execute: [[Histogram; 3]; 2],
    /// Reorder-buffer residency (all targets).
    stage_reassembly: Histogram,
    /// Per-shard bounded-queue depth gauges.
    queue_depth: Vec<Gauge>,
    /// Per-shard in-flight (picked up, not yet answered) gauges.
    in_flight: Vec<Gauge>,
}

impl ServeTelemetry {
    /// Builds the plane for a server with `workers` shards: registers the
    /// stage histograms (one writer shard per worker) and the per-shard
    /// gauges, and allocates the event ring.
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let target_hist = |name, help| {
            [0, 1].map(|t| {
                registry.histogram_with(
                    name,
                    help,
                    vec![(names::LABEL_TARGET, target_label(t).to_string())],
                    workers,
                )
            })
        };
        let stage_submit = target_hist(names::STAGE_SUBMIT_NS, names::STAGE_SUBMIT_NS_HELP);
        let stage_queue_wait =
            target_hist(names::STAGE_QUEUE_WAIT_NS, names::STAGE_QUEUE_WAIT_NS_HELP);
        let stage_execute = [0, 1].map(|t| {
            [0, 1, 2].map(|g| {
                registry.histogram_with(
                    names::STAGE_EXECUTE_NS,
                    names::STAGE_EXECUTE_NS_HELP,
                    vec![
                        (names::LABEL_TARGET, target_label(t).to_string()),
                        (names::LABEL_GUARANTEE, guarantee_label(g).to_string()),
                    ],
                    workers,
                )
            })
        });
        let stage_reassembly = registry.histogram(
            names::STAGE_REASSEMBLY_NS,
            names::STAGE_REASSEMBLY_NS_HELP,
            workers,
        );
        let shard_gauge = |name, help| {
            (0..workers)
                .map(|i| registry.gauge_with(name, help, vec![(names::LABEL_SHARD, i.to_string())]))
                .collect()
        };
        let queue_depth = shard_gauge(names::SERVE_QUEUE_DEPTH, names::SERVE_QUEUE_DEPTH_HELP);
        let in_flight = shard_gauge(names::SERVE_IN_FLIGHT, names::SERVE_IN_FLIGHT_HELP);
        ServeTelemetry {
            registry,
            events: Arc::new(EventRing::new(DEFAULT_EVENT_CAPACITY)),
            stage_submit,
            stage_queue_wait,
            stage_execute,
            stage_reassembly,
            queue_depth,
            in_flight,
        }
    }

    /// The metric registry backing this plane (for registering additional
    /// caller-side metrics against the same scrape).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Scrapes every metric into one [`TelemetrySnapshot`] — the input of
    /// both the Prometheus and the JSON exporter.
    pub fn scrape(&self) -> TelemetrySnapshot {
        self.registry.scrape()
    }

    /// Removes and returns all buffered trace events, oldest first.
    pub fn drain_events(&self) -> Vec<TimedEvent> {
        self.events.drain_events()
    }

    /// Number of trace events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.events.dropped()
    }

    /// The shared event ring (for wiring publishers and injectors).
    pub(crate) fn events(&self) -> &Arc<EventRing> {
        &self.events
    }

    /// Registers (or retrieves) the shared engine recorder counters.
    pub(crate) fn engine_recorder(&self) -> CounterRecorder {
        CounterRecorder::register(&self.registry, &[])
    }

    /// The queue-depth gauge of shard `shard`.
    pub(crate) fn queue_depth_gauge(&self, shard: usize) -> Gauge {
        self.queue_depth[shard % self.queue_depth.len()].clone()
    }

    /// The in-flight gauge of shard `shard`.
    pub(crate) fn in_flight_gauge(&self, shard: usize) -> Gauge {
        self.in_flight[shard % self.in_flight.len()].clone()
    }

    /// Records one submit/admission latency.
    pub(crate) fn record_submit(&self, target: &ServeTarget, ns: u64) {
        self.stage_submit[target_index(target)].record(ns);
    }

    /// Records one queue-wait latency from shard `shard`'s worker.
    pub(crate) fn record_queue_wait(&self, shard: usize, target: &ServeTarget, ns: u64) {
        self.stage_queue_wait[target_index(target)]
            .for_shard(shard)
            .record(ns);
    }

    /// Records one engine-execute latency from shard `shard`'s worker.
    pub(crate) fn record_execute(
        &self,
        shard: usize,
        target: &ServeTarget,
        outcome: &Result<Answer<ServeOutput>, ServeError>,
        ns: u64,
    ) {
        self.stage_execute[target_index(target)][guarantee_index(outcome)]
            .for_shard(shard)
            .record(ns);
    }

    /// Records one reorder-buffer residency.
    pub(crate) fn record_reassembly(&self, ns: u64) {
        self.stage_reassembly.record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::VertexId;

    #[test]
    fn stage_recording_lands_in_the_right_labelled_series() {
        let telemetry = ServeTelemetry::new(2);
        telemetry.record_submit(&ServeTarget::One(VertexId(0)), 100);
        telemetry.record_submit(&ServeTarget::All, 200);
        telemetry.record_queue_wait(1, &ServeTarget::One(VertexId(0)), 300);
        telemetry.record_execute(
            0,
            &ServeTarget::One(VertexId(0)),
            &Err(ServeError::DeadlineExceeded),
            400,
        );
        telemetry.record_reassembly(500);
        let snapshot = telemetry.scrape();
        let series = |name: &str, labels: &[(&str, &str)]| {
            snapshot
                .histograms
                .iter()
                .find(|h| {
                    h.name == name
                        && h.labels
                            == labels
                                .iter()
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                                .collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("series {name} {labels:?} missing"))
        };
        assert_eq!(
            series(names::STAGE_SUBMIT_NS, &[("target", "one")]).count,
            1
        );
        assert_eq!(
            series(names::STAGE_SUBMIT_NS, &[("target", "all")]).count,
            1
        );
        assert_eq!(
            series(names::STAGE_QUEUE_WAIT_NS, &[("target", "one")]).sum,
            300
        );
        assert_eq!(
            series(
                names::STAGE_EXECUTE_NS,
                &[("target", "one"), ("guarantee", "error")]
            )
            .count,
            1
        );
        assert_eq!(series(names::STAGE_REASSEMBLY_NS, &[]).sum, 500);
    }

    #[test]
    fn gauges_are_per_shard_and_events_drain_in_order() {
        let telemetry = ServeTelemetry::new(3);
        telemetry.queue_depth_gauge(0).inc();
        telemetry.queue_depth_gauge(0).inc();
        telemetry.in_flight_gauge(2).inc();
        let snapshot = telemetry.scrape();
        let gauge = |name: &str, shard: &str| {
            snapshot
                .gauges
                .iter()
                .find(|g| {
                    g.name == name && g.labels == vec![("shard".to_string(), shard.to_string())]
                })
                .expect("gauge registered")
                .value
        };
        assert_eq!(gauge(names::SERVE_QUEUE_DEPTH, "0"), 2);
        assert_eq!(gauge(names::SERVE_QUEUE_DEPTH, "1"), 0);
        assert_eq!(gauge(names::SERVE_IN_FLIGHT, "2"), 1);

        use ftbfs_telemetry::TraceEvent;
        telemetry.events().push(TraceEvent::EpochPublished {
            epoch: 1,
            fingerprint: 7,
        });
        let drained = telemetry.drain_events();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].event.kind(), "epoch_published");
        assert!(telemetry.drain_events().is_empty());
    }
}
