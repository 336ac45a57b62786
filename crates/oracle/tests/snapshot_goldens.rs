//! Format-compatibility gate over the checked-in golden snapshots
//! (`crates/oracle/testdata/`, regenerated by the `gen_snapshot_goldens`
//! bin in `ftbfs-bench`).
//!
//! Every golden must keep loading with the current code and keep producing
//! the recorded fingerprint; the current encoders must reproduce the
//! golden bytes exactly (canonical encodings).  If a PR changes the
//! snapshot byte format without bumping the format version, these tests —
//! and the CI `snapshot-compat` job running `gen_snapshot_goldens
//! --check` — fail, which is the point: on-disk snapshots in the field
//! must stay readable across releases.
//!
//! When a deliberate, version-bumped format change lands: regenerate the
//! fixtures, update the `GOLDEN_*_FINGERPRINT` constants from the
//! generator's output, and keep the *old-version* fixtures loading.

use ftbfs_graph::{FaultSpec, VertexId};
use ftbfs_oracle::{
    snapshot_layout, DistanceOracle, FrozenMultiStructure, FrozenMultiView, FrozenStructure,
    FrozenView, QueryEngine, SnapshotVersion, SNAPSHOT_ALIGN, SNAPSHOT_VERSION_V2,
};

const GOLDEN_SINGLE_V1: &[u8] = include_bytes!("../testdata/golden_single_v1.ftbo");
const GOLDEN_SINGLE_V2: &[u8] = include_bytes!("../testdata/golden_single_v2.ftbo");
const GOLDEN_MULTI_V1: &[u8] = include_bytes!("../testdata/golden_multi_v1.ftbm");
const GOLDEN_MULTI_V2: &[u8] = include_bytes!("../testdata/golden_multi_v2.ftbm");

/// Recorded when the fixtures were generated; see the module docs for the
/// regeneration procedure.
const GOLDEN_SINGLE_FINGERPRINT: u64 = 0xd0dd38f276f3bfb8;
const GOLDEN_MULTI_FINGERPRINT: u64 = 0x8bcbee3d2426c3a9;

#[test]
fn golden_single_v1_loads_with_the_recorded_fingerprint() {
    let loaded = FrozenStructure::load(GOLDEN_SINGLE_V1).expect("golden v1 must keep loading");
    assert_eq!(loaded.fingerprint(), GOLDEN_SINGLE_FINGERPRINT);
    // The current encoder reproduces the golden bytes (canonical v1).
    assert_eq!(loaded.save_with(SnapshotVersion::V1), GOLDEN_SINGLE_V1);
}

#[test]
fn golden_single_v2_loads_opens_and_matches_v1() {
    let loaded = FrozenStructure::load(GOLDEN_SINGLE_V2).expect("golden v2 must keep loading");
    assert_eq!(loaded.fingerprint(), GOLDEN_SINGLE_FINGERPRINT);
    assert_eq!(loaded.save_with(SnapshotVersion::V2), GOLDEN_SINGLE_V2);
    // Zero-rebuild open over the same bytes: same identity, same answers.
    let view = FrozenView::open_bytes(GOLDEN_SINGLE_V2).expect("golden v2 must keep opening");
    assert_eq!(view.fingerprint(), GOLDEN_SINGLE_FINGERPRINT);
    let from_v1 = FrozenStructure::load(GOLDEN_SINGLE_V1).unwrap();
    assert_eq!(loaded, from_v1);
    let mut ea = QueryEngine::new();
    let mut eb = QueryEngine::new();
    let e0 = view.slab(view.sources()[0]).unwrap();
    let fault = ftbfs_graph::EdgeId(0);
    assert!(e0.frozen_index(fault).is_some(), "edge 0 is in the fixture");
    for t in 0..view.vertex_count() {
        let t = VertexId(t as u32);
        for spec in [FaultSpec::None, FaultSpec::One(fault)] {
            assert_eq!(
                ea.try_distance(&from_v1, t, &spec).unwrap(),
                eb.try_distance(&view, t, &spec).unwrap(),
                "target {t:?} spec {spec:?}"
            );
        }
    }
}

#[test]
fn golden_single_v2_layout_is_stable() {
    let layout = snapshot_layout(GOLDEN_SINGLE_V2).expect("layout parses");
    assert_eq!(layout.version, SNAPSHOT_VERSION_V2);
    assert_eq!(layout.fingerprint, GOLDEN_SINGLE_FINGERPRINT);
    assert_eq!(layout.sections.len(), 5, "single v2 stores five sections");
    for s in &layout.sections {
        assert_eq!(s.offset % SNAPSHOT_ALIGN, 0);
        assert_eq!(s.len % 4, 0);
    }
}

#[test]
fn golden_multi_v1_loads_with_the_recorded_fingerprint() {
    let loaded = FrozenMultiStructure::load(GOLDEN_MULTI_V1).expect("golden v1 must keep loading");
    assert_eq!(loaded.fingerprint(), GOLDEN_MULTI_FINGERPRINT);
    assert_eq!(loaded.save_with(SnapshotVersion::V1), GOLDEN_MULTI_V1);
}

#[test]
fn golden_multi_v2_loads_opens_and_matches_v1() {
    let loaded = FrozenMultiStructure::load(GOLDEN_MULTI_V2).expect("golden v2 must keep loading");
    assert_eq!(loaded.fingerprint(), GOLDEN_MULTI_FINGERPRINT);
    assert_eq!(loaded.save_with(SnapshotVersion::V2), GOLDEN_MULTI_V2);
    let view = FrozenMultiView::open_bytes(GOLDEN_MULTI_V2).expect("golden v2 must keep opening");
    assert_eq!(view.fingerprint(), GOLDEN_MULTI_FINGERPRINT);
    let from_v1 = FrozenMultiStructure::load(GOLDEN_MULTI_V1).unwrap();
    assert_eq!(loaded, from_v1);
    let mut ea = QueryEngine::new();
    let mut eb = QueryEngine::new();
    assert_eq!(
        ea.try_distance_matrix(&from_v1, &FaultSpec::None).unwrap(),
        eb.try_distance_matrix(&view, &FaultSpec::None).unwrap(),
    );
    let layout = snapshot_layout(GOLDEN_MULTI_V2).expect("layout parses");
    assert_eq!(layout.sections.len(), 6, "multi v2 stores six sections");
}

#[test]
fn golden_v1_and_v2_agree_on_identity() {
    // The two encodings of one structure must stay interchangeable: same
    // fingerprint on both magics' pairs, and v1 → v2 re-encoding of the
    // loaded structure reproduces the golden v2 bytes.
    let single = FrozenStructure::load(GOLDEN_SINGLE_V1).unwrap();
    assert_eq!(single.save_with(SnapshotVersion::V2), GOLDEN_SINGLE_V2);
    let multi = FrozenMultiStructure::load(GOLDEN_MULTI_V1).unwrap();
    assert_eq!(multi.save_with(SnapshotVersion::V2), GOLDEN_MULTI_V2);
}
