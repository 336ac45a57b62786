//! Set-up: from the FTBG file on disk to a launched server, one span per
//! layer (ingest → tie-break → construct → freeze → encode → open →
//! launch).

use crate::schedule::Schedule;
use crate::spec::{Spec, StructureSpec, BUILD_THREADS, WORKERS};
use crate::trace::Tracer;
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_corpus::ingest_path;
use ftbfs_graph::io::IngestOptions;
use ftbfs_graph::{Graph, TieBreak, VertexId};
use ftbfs_oracle::{FrozenStructure, SnapshotVersion};
use ftbfs_serve::{EpochSnapshot, ServeConfig, StreamServer};
use std::path::Path;
use std::time::Instant;

/// A launched server and what it was built from.
pub struct Served {
    pub graph: Graph,
    /// The frozen structures, in publish order: the initial epoch first.
    pub frozen: Vec<FrozenStructure>,
    /// Their validated snapshots (kept for publishing and replay).
    pub snapshots: Vec<EpochSnapshot>,
    pub server: StreamServer,
    /// From the FTBG file on disk to the launched server.
    pub setup_s: f64,
}

fn open(bytes: Vec<u8>) -> EpochSnapshot {
    EpochSnapshot::from_bytes(bytes).expect("fresh snapshot validates")
}

/// Runs one set-up of `spec` from `graph_path`, as a `setup` span with
/// one child per layer.
pub fn set_up(spec: &Spec, graph_path: &Path, schedule: &Schedule, tracer: &mut Tracer) -> Served {
    let start = Instant::now();
    let root = tracer.begin("setup", None);

    let (graph, _stats) = tracer.time("corpus.ingest", root, || {
        ingest_path(graph_path, IngestOptions::strict()).expect("generated graph ingests")
    });
    assert_eq!(
        (graph.vertex_count(), graph.edge_count()),
        (schedule.vertices as usize, schedule.edges as usize),
        "graph file and schedule disagree"
    );
    let source = VertexId(schedule.source);

    let whole = |tracer: &mut Tracer| {
        tracer.time("oracle.freeze", root, || {
            FrozenStructure::from_edges(&graph, &[source], 2, graph.edges())
        })
    };
    let exact = |tracer: &mut Tracer| {
        let w = tracer.time("core.tiebreak", root, || {
            TieBreak::new(&graph, schedule.tiebreak_seed)
        });
        let built = tracer.time_cpu("core.build", root, || {
            DualFtBfsBuilder::new(&graph, &w, source)
                .threads(BUILD_THREADS)
                .build()
        });
        tracer.time("oracle.freeze", root, || {
            FrozenStructure::freeze(&graph, &built.structure)
        })
    };
    let frozen = match spec.structure {
        StructureSpec::WholeGraph => vec![whole(tracer)],
        StructureSpec::Exact => vec![exact(tracer)],
        StructureSpec::ExactAndWhole => vec![exact(tracer), whole(tracer)],
    };

    let mut snapshots = Vec::with_capacity(frozen.len());
    for f in &frozen {
        let bytes = tracer.time("oracle.encode", root, || f.save_with(SnapshotVersion::V2));
        snapshots.push(tracer.time("serve.open", root, || open(bytes)));
    }
    // The server takes the initial snapshot; the benchmark re-creates its
    // own copy below, outside the timed set-up.
    let initial = snapshots.remove(0);
    let server = tracer.time("serve.launch", root, || {
        StreamServer::launch(initial, ServeConfig::new().workers(WORKERS))
    });
    let setup_s = start.elapsed().as_secs_f64();
    tracer.end(root);
    snapshots.insert(0, open(frozen[0].save_with(SnapshotVersion::V2)));
    Served {
        graph,
        frozen,
        snapshots,
        server,
        setup_s,
    }
}
