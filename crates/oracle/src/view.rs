//! Zero-rebuild serving views over v2 snapshot bytes: [`SnapshotSource`],
//! [`FrozenView`] and [`FrozenMultiView`].
//!
//! A v2 snapshot (see [`crate::snapshot`]) stores not just the determining
//! edge list but every derived array — CSR offsets and arcs, fault-free
//! trees, slab tables — as 64-byte-aligned little-endian sections.  A view
//! *opens* such bytes instead of loading them: it validates the frame
//! (bounds, alignment, checksums, freeze invariants) and then serves
//! queries **directly out of the mapped bytes** through
//! [`ftbfs_graph::bytes::LeU32s`] accessors.  Nothing is rebuilt and none
//! of the big arrays are copied; open-time allocation is limited to
//! metadata scratch (the small source list and section table).
//!
//! This is the mmap serving story: a server maps a snapshot file
//! read-only (page-aligned, so the 64-byte section alignment holds in
//! memory), wraps the region in a [`SnapshotSource`], opens a view, and
//! serves immediately — no load-time CSR build, BFS, or allocation
//! proportional to the structure.  Both view types implement
//! [`DistanceOracle`], so every engine feature (fault LRU, tree fast
//! path, batched and threaded serving) works unchanged, and a view's
//! [`fingerprint`](DistanceOracle::fingerprint) equals the rebuilt
//! structure's — the two are interchangeable backends.
//!
//! Safety under corruption: the open-time checks guarantee that *any*
//! byte-level corruption is rejected (every byte is covered by a
//! checksum, the magic, or the zero-padding rule) and that the structural
//! invariants the engine relies on hold — CSR offsets monotone and
//! in-bounds, arc heads and edge ids in range, tree parents consistent
//! with tree distances (so parent walks terminate).  Opening never
//! panics on malformed input; it returns a typed [`SnapshotError`].
//!
//! One field is *attested* rather than recomputed on open: the structure
//! fingerprint, stored in the (frame-checksummed) v2 header so open need
//! not re-hash the base.  In-tree writers always store the correct value
//! (the golden-fixture CI gate pins this), and the rebuild paths
//! ([`FrozenView::to_frozen`] / [`FrozenMultiView::to_multi`], hence
//! `load`) cross-check it against the recomputed fingerprint for free,
//! rejecting snapshots from writers that got it wrong.

use crate::api::{DistanceOracle, OracleSlab, SlabTree};
use crate::frozen::{FrozenStructure, NO_PARENT, UNREACHED};
use crate::multi::FrozenMultiStructure;
use crate::snapshot::{
    corrupt, read_v2_frame, require_section, MultiBase, SectionEntry, SingleBase, SnapshotError,
    SEC_ARC_EDGES, SEC_ARC_HEADS, SEC_EDGE_ORIG, SEC_SLAB_TABLE, SEC_TREES, SEC_XADJ,
    SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC, SNAPSHOT_VERSION_V2,
};
use ftbfs_graph::bytes::LeU32s;
use ftbfs_graph::VertexId;
use std::borrow::Cow;

/// Snapshot bytes for a view to open: owned (read from disk or the
/// network into a `Vec<u8>`), borrowed (for example a caller-managed
/// mapped region — any `&[u8]` whose lifetime outlives the views opened
/// over it), or — with the `mmap` feature — a file mapped by the source
/// itself via [`SnapshotSource::map_file`].  Borrowed and owned sources
/// stay the dependency-free default; the `mmap` feature adds the
/// `memmap2` dependency and nothing else changes.
///
/// The source only carries the bytes; validation happens when a
/// [`FrozenView`] or [`FrozenMultiView`] is opened over it.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::generators;
/// use ftbfs_graph::VertexId;
/// use ftbfs_oracle::{FrozenStructure, FrozenView, SnapshotSource, SnapshotVersion};
///
/// let g = generators::cycle(8);
/// let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
/// let source = SnapshotSource::owned(frozen.save_with(SnapshotVersion::V2));
/// let view = FrozenView::open(&source).unwrap();
/// assert_eq!(view.fingerprint(), frozen.fingerprint());
/// ```
#[derive(Clone, Debug)]
pub struct SnapshotSource<'a> {
    data: SourceBytes<'a>,
}

/// The storage behind a [`SnapshotSource`]; the mapped variant keeps its
/// mapping alive (in an `Arc`, so sources stay cheaply cloneable).
#[derive(Clone, Debug)]
enum SourceBytes<'a> {
    Inline(Cow<'a, [u8]>),
    #[cfg(feature = "mmap")]
    Mapped(std::sync::Arc<memmap2::Mmap>),
}

impl<'a> SnapshotSource<'a> {
    /// A source that owns its bytes.
    pub fn owned(data: Vec<u8>) -> SnapshotSource<'static> {
        SnapshotSource {
            data: SourceBytes::Inline(Cow::Owned(data)),
        }
    }

    /// A source borrowing bytes that live elsewhere (e.g. a mapped file).
    pub fn borrowed(data: &'a [u8]) -> Self {
        SnapshotSource {
            data: SourceBytes::Inline(Cow::Borrowed(data)),
        }
    }

    /// Maps the snapshot file at `path` and wraps the mapping as a
    /// source (`mmap` feature).
    ///
    /// The mapping lives as long as the source (and any clone of it), so
    /// the usual open-and-go flow is `map_file` → [`FrozenView::open`] /
    /// [`FrozenMultiView::open`] — no copy of the snapshot on the heap,
    /// no rebuild.  The file must not be truncated while mapped.
    #[cfg(feature = "mmap")]
    pub fn map_file(path: impl AsRef<std::path::Path>) -> std::io::Result<SnapshotSource<'static>> {
        let file = std::fs::File::open(path)?;
        let map = memmap2::Mmap::map(&file)?;
        Ok(SnapshotSource {
            data: SourceBytes::Mapped(std::sync::Arc::new(map)),
        })
    }

    /// The snapshot bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            SourceBytes::Inline(data) => data,
            #[cfg(feature = "mmap")]
            SourceBytes::Mapped(map) => map,
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Returns `true` if the source holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

impl From<Vec<u8>> for SnapshotSource<'static> {
    fn from(data: Vec<u8>) -> Self {
        SnapshotSource::owned(data)
    }
}

impl<'a> From<&'a [u8]> for SnapshotSource<'a> {
    fn from(data: &'a [u8]) -> Self {
        SnapshotSource::borrowed(data)
    }
}

/// Validates one fault-free tree stored in a v2 snapshot: the source row
/// is `(0, NO_PARENT)`, unreached vertices have no parent, and every
/// reached vertex's distance is exactly its parent's plus one — which
/// both pins the arrays to a genuine BFS-tree shape and guarantees parent
/// walks strictly decrease the distance, so path reconstruction
/// terminates on any input that passes.
#[inline]
fn check_tree(
    dist: LeU32s<'_>,
    parent: LeU32s<'_>,
    source: usize,
    n: usize,
) -> Result<(), SnapshotError> {
    if dist.get(source) != 0 || parent.get(source) != NO_PARENT {
        return corrupt("tree source row must be (0, no parent)");
    }
    for (v, (d, p)) in dist.iter().zip(parent.iter()).enumerate() {
        if v == source {
            continue;
        }
        if p == NO_PARENT {
            if d != UNREACHED {
                return corrupt("reached tree vertex lacks a parent");
            }
        } else {
            if p as usize >= n {
                return corrupt("tree parent out of range");
            }
            let dp = dist.get(p as usize);
            if dp == UNREACHED || d != dp + 1 {
                return corrupt("tree distance does not follow its parent");
            }
        }
    }
    Ok(())
}

/// Validates one CSR slab stored in a v2 snapshot: offsets start at zero,
/// grow monotonically to exactly `2m`, and every arc's head and frozen
/// edge id are in range — everything the BFS kernel indexes with.
#[inline]
fn check_csr(
    xadj: LeU32s<'_>,
    heads: LeU32s<'_>,
    edges: LeU32s<'_>,
    n: usize,
    m: usize,
) -> Result<(), SnapshotError> {
    if xadj.get(0) != 0 {
        return corrupt("CSR offsets must start at zero");
    }
    let mut prev = 0u32;
    for off in xadj.iter() {
        if off < prev {
            return corrupt("CSR offsets must be monotone");
        }
        prev = off;
    }
    if xadj.get(n) as usize != 2 * m {
        return corrupt("CSR offsets must cover exactly 2m arcs");
    }
    if heads.iter().any(|h| h as usize >= n) {
        return corrupt("CSR arc head out of range");
    }
    if edges.iter().any(|e| e as usize >= m) {
        return corrupt("CSR arc edge id out of range");
    }
    Ok(())
}

/// Slices `kind`'s bytes out of `data` as a `u32` array view.
#[inline]
fn section_words<'a>(data: &'a [u8], s: &SectionEntry) -> LeU32s<'a> {
    LeU32s::new(&data[s.offset..s.offset + s.len])
        .expect("section lengths are validated u32-granular")
}

/// A borrowed, zero-rebuild serving view over the bytes of a v2
/// single-source ("FTBO") snapshot.
///
/// Opened with [`FrozenView::open`] (from a [`SnapshotSource`]) or
/// [`FrozenView::open_bytes`]; implements [`DistanceOracle`], answering
/// bit-identically to the [`FrozenStructure`] the snapshot was saved from
/// — same fingerprint, same slabs, same precomputed trees — without
/// rebuilding or copying any of the big arrays.
pub struct FrozenView<'a> {
    n: u32,
    resilience: u32,
    sources: Vec<VertexId>,
    fingerprint: u64,
    base: SingleBase<'a>,
    edge_orig: LeU32s<'a>,
    xadj: LeU32s<'a>,
    adj_head: LeU32s<'a>,
    adj_edge: LeU32s<'a>,
    /// `k × 2n` words: per source, the dist row then the parent row.
    trees: LeU32s<'a>,
}

impl std::fmt::Debug for FrozenView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenView")
            .field("n", &self.n)
            .field("sources", &self.sources)
            .field("resilience", &self.resilience)
            .field("edges", &self.edge_orig.len())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl<'a> FrozenView<'a> {
    /// Opens a view over a [`SnapshotSource`], validating the snapshot
    /// without rebuilding it; see the [module docs](self).
    pub fn open(source: &'a SnapshotSource<'_>) -> Result<Self, SnapshotError> {
        Self::open_bytes(source.bytes())
    }

    /// Opens a view directly over snapshot bytes (v2 only — v1 snapshots
    /// carry no derived sections to serve from; use
    /// [`FrozenStructure::load`] for those).
    pub fn open_bytes(data: &'a [u8]) -> Result<Self, SnapshotError> {
        if data.len() < 4 || data[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let base = SingleBase::walk(data)?;
        if base.version != SNAPSHOT_VERSION_V2 {
            return Err(SnapshotError::UnsupportedVersion(base.version));
        }
        base.validate_invariants()?;
        let frame = read_v2_frame(data, base.end)?;
        let n = base.n as usize;
        let m = base.m;
        let k = base.source_count;
        let eori = require_section(&frame.sections, SEC_EDGE_ORIG, 4 * m)?;
        let xadj = require_section(&frame.sections, SEC_XADJ, 4 * (n + 1))?;
        let heads = require_section(&frame.sections, SEC_ARC_HEADS, 8 * m)?;
        let edges = require_section(&frame.sections, SEC_ARC_EDGES, 8 * m)?;
        let trees = require_section(&frame.sections, SEC_TREES, 4 * k * 2 * n)?;
        let eori = section_words(data, &eori);
        let xadj = section_words(data, &xadj);
        let heads = section_words(data, &heads);
        let edges = section_words(data, &edges);
        let trees = section_words(data, &trees);
        // The derived edge-id array must agree with the determining base
        // edge list (it exists so fault translation needs no rebuild).
        if eori
            .iter()
            .zip(base.edges())
            .any(|(derived, (orig, _, _))| derived != orig)
        {
            return corrupt("edge-id section disagrees with the base edge list");
        }
        check_csr(xadj, heads, edges, n, m)?;
        let sources: Vec<VertexId> = (0..k).map(|i| VertexId(base.source(i))).collect();
        for (i, s) in sources.iter().enumerate() {
            check_tree(
                trees.slice(i * 2 * n, i * 2 * n + n),
                trees.slice(i * 2 * n + n, (i + 1) * 2 * n),
                s.index(),
                n,
            )?;
        }
        Ok(FrozenView {
            n: base.n,
            resilience: base.resilience,
            sources,
            fingerprint: frame.fingerprint,
            base,
            edge_orig: eori,
            xadj,
            adj_head: heads,
            adj_edge: edges,
            trees,
        })
    }

    /// Number of vertices of the underlying graph.
    pub fn vertex_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges in the frozen structure.
    pub fn edge_count(&self) -> usize {
        self.edge_orig.len()
    }

    /// The source set, in snapshot order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The designed resilience `f`.
    pub fn resilience(&self) -> usize {
        self.resilience as usize
    }

    /// The structure fingerprint — equal to the fingerprint of the
    /// [`FrozenStructure`] the snapshot was saved from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuilds an owned [`FrozenStructure`] from the view's determining
    /// data (the inverse of serving straight from the bytes; used by
    /// [`FrozenStructure::load`] on v2 input).
    ///
    /// The rebuild recomputes the structure fingerprint from scratch, so
    /// this path also cross-checks the writer-attested fingerprint stored
    /// in the frame: a snapshot whose base and fingerprint disagree (a
    /// buggy external writer, a patched file with fixed-up checksums) is
    /// rejected here rather than silently de-syncing engines that key
    /// their caches on fingerprint equality.
    pub fn to_frozen(&self) -> Result<FrozenStructure, SnapshotError> {
        let m = self.base.m;
        let mut edge_orig = Vec::with_capacity(m);
        let mut edge_u = Vec::with_capacity(m);
        let mut edge_v = Vec::with_capacity(m);
        for i in 0..m {
            let (orig, u, v) = self.base.edge(i);
            edge_orig.push(orig);
            edge_u.push(u);
            edge_v.push(v);
        }
        let rebuilt = FrozenStructure::from_parts(
            self.n,
            self.sources.clone(),
            self.resilience,
            edge_orig,
            edge_u,
            edge_v,
        )?;
        if rebuilt.fingerprint() != self.fingerprint {
            return corrupt("stored fingerprint disagrees with the determining data");
        }
        Ok(rebuilt)
    }
}

impl DistanceOracle for FrozenView<'_> {
    fn vertex_count(&self) -> usize {
        FrozenView::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        FrozenView::edge_count(self)
    }

    fn sources(&self) -> &[VertexId] {
        FrozenView::sources(self)
    }

    fn resilience(&self) -> usize {
        FrozenView::resilience(self)
    }

    fn fingerprint(&self) -> u64 {
        FrozenView::fingerprint(self)
    }

    /// Mirrors [`FrozenStructure`]: any in-range vertex is servable over
    /// the shared CSR; declared sources additionally get their mapped
    /// fault-free tree.
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        if source.index() >= self.vertex_count() {
            return None;
        }
        let n = self.vertex_count();
        let tree = self.sources.iter().position(|&s| s == source).map(|i| {
            SlabTree::new(
                self.trees.slice(i * 2 * n, i * 2 * n + n),
                self.trees.slice(i * 2 * n + n, (i + 1) * 2 * n),
            )
        });
        Some(OracleSlab::new(
            source,
            self.xadj,
            self.adj_head,
            self.adj_edge,
            self.edge_orig,
            tree,
        ))
    }
}

/// A borrowed, zero-rebuild serving view over the bytes of a v2
/// multi-source ("FTBM") snapshot — the mmap-served counterpart of
/// [`FrozenMultiStructure`], with one mapped CSR slab per declared
/// source.
pub struct FrozenMultiView<'a> {
    n: u32,
    resilience: u32,
    sources: Vec<VertexId>,
    fingerprint: u64,
    base: MultiBase<'a>,
    /// `k × 2` words: per slab, its edge count and prefix-sum offset.
    slab_table: LeU32s<'a>,
    /// Concatenated per-slab edge-id arrays (`Σ m_s` words).
    edge_orig: LeU32s<'a>,
    /// Concatenated per-slab CSR offsets (`k × (n + 1)` words).
    xadj: LeU32s<'a>,
    /// Concatenated per-slab arc arrays (`2 Σ m_s` words each).
    adj_head: LeU32s<'a>,
    adj_edge: LeU32s<'a>,
    /// `k × 2n` words: per slab, the dist row then the parent row.
    trees: LeU32s<'a>,
}

impl std::fmt::Debug for FrozenMultiView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenMultiView")
            .field("n", &self.n)
            .field("sources", &self.sources)
            .field("resilience", &self.resilience)
            .field("union_edges", &self.base.union_m)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl<'a> FrozenMultiView<'a> {
    /// Opens a view over a [`SnapshotSource`], validating the snapshot
    /// without rebuilding it; see the [module docs](self).
    pub fn open(source: &'a SnapshotSource<'_>) -> Result<Self, SnapshotError> {
        Self::open_bytes(source.bytes())
    }

    /// Opens a view directly over snapshot bytes (v2 only).
    pub fn open_bytes(data: &'a [u8]) -> Result<Self, SnapshotError> {
        if data.len() < 4 || data[..4] != SNAPSHOT_MULTI_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let base = MultiBase::walk(data)?;
        if base.version != SNAPSHOT_VERSION_V2 {
            return Err(SnapshotError::UnsupportedVersion(base.version));
        }
        base.validate_invariants()?;
        let frame = read_v2_frame(data, base.end)?;
        let n = base.n as usize;
        let k = base.source_count;
        let total: usize = base.slab_lists.iter().map(|&(m_s, _)| m_s).sum();
        let slab_table = require_section(&frame.sections, SEC_SLAB_TABLE, 4 * 2 * k)?;
        let eori = require_section(&frame.sections, SEC_EDGE_ORIG, 4 * total)?;
        let xadj = require_section(&frame.sections, SEC_XADJ, 4 * k * (n + 1))?;
        let heads = require_section(&frame.sections, SEC_ARC_HEADS, 8 * total)?;
        let edges = require_section(&frame.sections, SEC_ARC_EDGES, 8 * total)?;
        let trees = require_section(&frame.sections, SEC_TREES, 4 * k * 2 * n)?;
        let slab_table = section_words(data, &slab_table);
        let eori = section_words(data, &eori);
        let xadj = section_words(data, &xadj);
        let heads = section_words(data, &heads);
        let edges = section_words(data, &edges);
        let trees = section_words(data, &trees);

        // The slab table must agree with the determining base slab lists
        // (counts and prefix sums), and each slab's edge-id segment must be
        // exactly the union edges its base index list selects.
        let mut prefix = 0usize;
        for (i, &(m_s, _)) in base.slab_lists.iter().enumerate() {
            if slab_table.get(2 * i) as usize != m_s {
                return corrupt("slab table count disagrees with the base slab list");
            }
            if slab_table.get(2 * i + 1) as usize != prefix {
                return corrupt("slab table offset is not the prefix sum");
            }
            if eori
                .slice(prefix, prefix + m_s)
                .iter()
                .zip(base.slab_list(i).iter())
                .any(|(derived, union_idx)| derived != base.edge(union_idx as usize).0)
            {
                return corrupt("slab edge-id section disagrees with the union edge list");
            }
            check_csr(
                xadj.slice(i * (n + 1), (i + 1) * (n + 1)),
                heads.slice(2 * prefix, 2 * (prefix + m_s)),
                edges.slice(2 * prefix, 2 * (prefix + m_s)),
                n,
                m_s,
            )?;
            prefix += m_s;
        }
        let sources: Vec<VertexId> = (0..k).map(|i| VertexId(base.source(i))).collect();
        for (i, s) in sources.iter().enumerate() {
            check_tree(
                trees.slice(i * 2 * n, i * 2 * n + n),
                trees.slice(i * 2 * n + n, (i + 1) * 2 * n),
                s.index(),
                n,
            )?;
        }
        Ok(FrozenMultiView {
            n: base.n,
            resilience: base.resilience,
            sources,
            fingerprint: frame.fingerprint,
            base,
            slab_table,
            edge_orig: eori,
            xadj,
            adj_head: heads,
            adj_edge: edges,
            trees,
        })
    }

    /// Number of vertices of the underlying graph.
    pub fn vertex_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges in the union structure `⋃_s H_s`.
    pub fn union_edge_count(&self) -> usize {
        self.base.union_m
    }

    /// The source set `S`, in snapshot order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The designed resilience `f`.
    pub fn resilience(&self) -> usize {
        self.resilience as usize
    }

    /// The structure fingerprint — equal to the fingerprint of the
    /// [`FrozenMultiStructure`] the snapshot was saved from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuilds an owned [`FrozenMultiStructure`] from the view's
    /// determining data (used by [`FrozenMultiStructure::load`] on v2
    /// input); like [`FrozenView::to_frozen`], the rebuild cross-checks
    /// the writer-attested fingerprint stored in the frame.
    pub fn to_multi(&self) -> Result<FrozenMultiStructure, SnapshotError> {
        let m = self.base.union_m;
        let mut union_orig = Vec::with_capacity(m);
        let mut union_u = Vec::with_capacity(m);
        let mut union_v = Vec::with_capacity(m);
        for i in 0..m {
            let (orig, u, v) = self.base.edge(i);
            union_orig.push(orig);
            union_u.push(u);
            union_v.push(v);
        }
        let slab_edges: Vec<Vec<u32>> = (0..self.base.source_count)
            .map(|i| {
                let (m_s, _) = self.base.slab_lists[i];
                (0..m_s).map(|j| self.base.slab_edge_index(i, j)).collect()
            })
            .collect();
        let rebuilt = FrozenMultiStructure::from_parts(
            self.n,
            self.resilience,
            self.sources.clone(),
            union_orig,
            union_u,
            union_v,
            slab_edges,
        )?;
        if rebuilt.fingerprint() != self.fingerprint {
            return corrupt("stored fingerprint disagrees with the determining data");
        }
        Ok(rebuilt)
    }
}

impl DistanceOracle for FrozenMultiView<'_> {
    fn vertex_count(&self) -> usize {
        FrozenMultiView::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        self.union_edge_count()
    }

    fn sources(&self) -> &[VertexId] {
        FrozenMultiView::sources(self)
    }

    fn resilience(&self) -> usize {
        FrozenMultiView::resilience(self)
    }

    fn fingerprint(&self) -> u64 {
        FrozenMultiView::fingerprint(self)
    }

    /// Mirrors [`FrozenMultiStructure`]: only declared sources are
    /// servable, each over its own mapped per-source slab.
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        let i = self.sources.iter().position(|&s| s == source)?;
        let n = self.vertex_count();
        let m_s = self.slab_table.get(2 * i) as usize;
        let off = self.slab_table.get(2 * i + 1) as usize;
        Some(OracleSlab::new(
            source,
            self.xadj.slice(i * (n + 1), (i + 1) * (n + 1)),
            self.adj_head.slice(2 * off, 2 * (off + m_s)),
            self.adj_edge.slice(2 * off, 2 * (off + m_s)),
            self.edge_orig.slice(off, off + m_s),
            Some(SlabTree::new(
                self.trees.slice(i * 2 * n, i * 2 * n + n),
                self.trees.slice(i * 2 * n + n, (i + 1) * 2 * n),
            )),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotVersion;
    use crate::QueryEngine;
    use ftbfs_core::{dual_failure_ftbfs, multi_failure_ftmbfs_parts};
    use ftbfs_graph::{generators, EdgeId, FaultSpec, TieBreak};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample() -> (ftbfs_graph::Graph, FrozenStructure) {
        let g = generators::connected_gnp(36, 0.13, 9);
        let w = TieBreak::new(&g, 9);
        let h = dual_failure_ftbfs(&g, &w, v(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        (g, frozen)
    }

    #[cfg(feature = "mmap")]
    #[test]
    fn mapped_snapshot_files_serve_identically_to_owned_bytes() {
        let (_g, frozen) = sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let path = std::env::temp_dir().join("ftbfs_oracle_mmap_test.ftbo");
        std::fs::write(&path, &bytes).unwrap();

        let mapped = SnapshotSource::map_file(&path).unwrap();
        assert_eq!(mapped.len(), bytes.len());
        assert_eq!(mapped.bytes(), &bytes[..]);
        let from_map = FrozenView::open(&mapped).unwrap();
        let from_vec = FrozenView::open_bytes(&bytes).unwrap();
        assert_eq!(from_map.fingerprint(), from_vec.fingerprint());
        let mut ea = QueryEngine::new();
        let mut eb = QueryEngine::new();
        for t in 0..from_vec.vertex_count() as u32 {
            assert_eq!(
                ea.try_distance(&from_map, v(t), &FaultSpec::None).unwrap(),
                eb.try_distance(&from_vec, v(t), &FaultSpec::None).unwrap(),
            );
        }
        // Clones share the mapping and survive the original being dropped.
        let clone = mapped.clone();
        drop(mapped);
        assert!(FrozenView::open(&clone).is_ok());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn view_answers_identically_to_the_frozen_structure() {
        let (g, frozen) = sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let view = FrozenView::open_bytes(&bytes).unwrap();
        assert_eq!(view.vertex_count(), frozen.vertex_count());
        assert_eq!(view.edge_count(), frozen.edge_count());
        assert_eq!(view.sources(), frozen.sources());
        assert_eq!(view.resilience(), frozen.resilience());
        assert_eq!(view.fingerprint(), frozen.fingerprint());
        let mut ea = QueryEngine::new();
        let mut eb = QueryEngine::new();
        let edges: Vec<EdgeId> = g.edges().collect();
        let specs = [
            FaultSpec::None,
            FaultSpec::One(edges[0]),
            FaultSpec::from((edges[1], edges[edges.len() / 2])),
            FaultSpec::from([edges[0], edges[3], edges[7]]),
        ];
        for spec in &specs {
            for t in g.vertices() {
                assert_eq!(
                    ea.try_distance(&frozen, t, spec).unwrap(),
                    eb.try_distance(&view, t, spec).unwrap(),
                    "target {t:?} spec {spec:?}"
                );
                assert_eq!(
                    ea.try_shortest_path(&frozen, t, spec).unwrap(),
                    eb.try_shortest_path(&view, t, spec).unwrap(),
                );
            }
        }
        // Views also serve undeclared sources via BFS, like the structure.
        assert_eq!(
            ea.try_distance_from(&frozen, v(5), v(9), &specs[2])
                .unwrap(),
            eb.try_distance_from(&view, v(5), v(9), &specs[2]).unwrap(),
        );
        // And rebuild to the identical owned structure.
        assert_eq!(view.to_frozen().unwrap(), frozen);
    }

    #[test]
    fn view_rejects_v1_bytes_and_owned_and_borrowed_sources_work() {
        let (_g, frozen) = sample();
        assert_eq!(
            FrozenView::open_bytes(&frozen.save()).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let owned = SnapshotSource::owned(bytes.clone());
        assert_eq!(owned.len(), bytes.len());
        assert!(!owned.is_empty());
        let from_owned = FrozenView::open(&owned).unwrap();
        let borrowed = SnapshotSource::borrowed(&bytes);
        let from_borrowed = FrozenView::open(&borrowed).unwrap();
        assert_eq!(from_owned.fingerprint(), from_borrowed.fingerprint());
        let via_from: SnapshotSource<'_> = bytes.as_slice().into();
        assert!(FrozenView::open(&via_from).is_ok());
    }

    #[test]
    fn multi_view_answers_identically_to_the_multi_structure() {
        let g = generators::tree_plus_chords(14, 6, 3);
        let w = TieBreak::new(&g, 3);
        let sources = [v(0), v(7)];
        let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        let multi = FrozenMultiStructure::freeze(&g, &parts);
        let bytes = multi.save_with(SnapshotVersion::V2);
        let view = FrozenMultiView::open_bytes(&bytes).unwrap();
        assert_eq!(view.vertex_count(), multi.vertex_count());
        assert_eq!(view.union_edge_count(), multi.union_edge_count());
        assert_eq!(view.sources(), multi.sources());
        assert_eq!(view.fingerprint(), multi.fingerprint());
        let mut ea = QueryEngine::new();
        let mut eb = QueryEngine::new();
        let edges: Vec<EdgeId> = g.edges().collect();
        for spec in [
            FaultSpec::None,
            FaultSpec::One(edges[2]),
            FaultSpec::from((edges[0], edges[5])),
        ] {
            assert_eq!(
                ea.try_distance_matrix(&multi, &spec).unwrap(),
                eb.try_distance_matrix(&view, &spec).unwrap(),
                "spec {spec:?}"
            );
        }
        // Undeclared sources stay unserved, like the owned structure.
        assert!(DistanceOracle::slab(&view, v(3)).is_none());
        assert_eq!(view.to_multi().unwrap(), multi);
    }

    #[test]
    fn open_validates_debug_formats_and_never_panics_on_garbage() {
        let (_g, frozen) = sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let view = FrozenView::open_bytes(&bytes).unwrap();
        let dbg = format!("{view:?}");
        assert!(dbg.contains("FrozenView"));
        assert_eq!(
            FrozenView::open_bytes(b"FTBM____").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert!(FrozenMultiView::open_bytes(&bytes).is_err());
        for cut in [0, 4, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(FrozenView::open_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
