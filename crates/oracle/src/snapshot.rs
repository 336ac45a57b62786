//! Versioned compact binary snapshots of [`FrozenStructure`]s (and, via
//! [`crate::FrozenMultiStructure`], of multi-source structures — same
//! framing, different magic).
//!
//! ## Version 1 — determining data only
//!
//! A frozen structure is fully determined by its header (`n`, sources,
//! resilience) and its edge list — the CSR arrays and fault-free trees are
//! deterministic functions of those, so the v1 snapshot stores only the
//! determining data and recomputes the derived arrays on load.  That keeps
//! the format small (12 bytes per edge) and guarantees a loaded structure
//! answers queries bit-identically to the one that was saved.
//!
//! ```text
//! magic      4 bytes   "FTBO"
//! payload:
//!   version  u16       1
//!   flags    u16       reserved, must be 0
//!   n        u32       vertex count of the underlying graph
//!   resil    u32       designed resilience f
//!   k        u32       number of sources
//!   sources  k × u32
//!   m        u32       number of structure edges
//!   edges    m × (orig u32, u u32, v u32), strictly increasing by orig
//! checksum   u64       byte-stepped FNV-1a over the payload bytes
//! ```
//!
//! ## Version 2 — mmap-ready derived sections, zero-rebuild load
//!
//! The v2 format keeps the v1 header + edge list verbatim as its **base
//! payload** (with the version field set to 2) and appends the *derived*
//! arrays as 64-byte-aligned little-endian **sections**, each described by
//! a table-of-contents entry carrying the section's kind tag, absolute
//! offset, byte length and checksum.  A serving process can therefore map
//! a v2 snapshot read-only and open a [`crate::FrozenView`] /
//! [`crate::FrozenMultiView`] over the bytes with **zero rebuild and zero
//! copy** of the big arrays — open-time work is validation only (bounds,
//! alignment, checksums, freeze invariants).  Unknown section kinds are
//! skipped after their bounds and checksum check, so the format can grow
//! without breaking old v2 readers (forward compatibility); old *v1-only*
//! readers reject v2 files cleanly via the version/checksum check.
//!
//! ```text
//! magic        4 bytes   "FTBO" / "FTBM"
//! base         B bytes   the v1 payload, version field = 2
//! base_check   u64       word-stepped FNV-1a over the base payload
//! fingerprint  u64       the structure fingerprint (= FNV-1a of the
//!                        v1 payload), precomputed so open() never
//!                        re-serialises or re-hashes the base
//! count        u32       number of sections
//! toc          count × { kind u32, offset u64, len u64, check u64 }
//! frame_check  u64       word-stepped FNV-1a over fingerprint..toc
//! padding      zero bytes up to the first 64-byte boundary
//! sections     each at a 64-byte-aligned absolute offset, raw
//!              little-endian u32 arrays, zero padding in between
//! ```
//!
//! Every byte of a v2 snapshot is covered by exactly one integrity check
//! (magic compare, base checksum, frame checksum, per-section checksums,
//! or the padding-must-be-zero rule), so any single-bit corruption is
//! detected.  Checksums over `u32` arrays use the **word-stepped** FNV-1a
//! variant ([`ftbfs_graph::bytes::fnv1a64_words`], one FNV step per
//! little-endian 64-bit word): same detection power for the 4-byte-aligned
//! payloads snapshots store, 8× fewer serial multiplies, keeping open-time
//! checksumming off the serving critical path.
//!
//! [`FrozenStructure::save`] keeps writing v1 by default; choose per call
//! with [`FrozenStructure::save_with`] and the [`SnapshotVersion`] knob.
//! [`FrozenStructure::load`] accepts both versions (v2 is validated
//! exactly like a view open, then rebuilt into an owned structure).

use crate::frozen::FrozenStructure;
use ftbfs_graph::bytes::{
    fnv1a64, fnv1a64_words, pad_to_align, put_u16, put_u32, put_u32_slice, put_u64, ByteReader,
};
use ftbfs_graph::VertexId;
use std::fmt;

/// Magic prefix of every single-source frozen-structure snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FTBO";
/// The snapshot format version [`FrozenStructure::save`] writes by default.
pub const SNAPSHOT_VERSION: u16 = 1;
/// The mmap-ready snapshot format version (see the module docs).
pub const SNAPSHOT_VERSION_V2: u16 = 2;
/// Magic prefix of every multi-source frozen-structure snapshot (see
/// [`crate::FrozenMultiStructure`]).
pub const SNAPSHOT_MULTI_MAGIC: [u8; 4] = *b"FTBM";
/// The multi-source snapshot format version written by default.
pub const SNAPSHOT_MULTI_VERSION: u16 = 1;
/// Alignment (in bytes) of every v2 section start, chosen to match cache
/// lines so mapped arrays never straddle a line at their first element.
pub const SNAPSHOT_ALIGN: usize = 64;

/// Which snapshot format `save_with` writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SnapshotVersion {
    /// Determining data only; derived arrays are rebuilt on load.
    #[default]
    V1,
    /// v1 base plus aligned derived sections; loadable with zero rebuild
    /// through [`crate::FrozenView`] / [`crate::FrozenMultiView`].
    V2,
}

// Section kind tags (little-endian four-character codes).
/// Slab-local original-edge-id array (`m × u32`, strictly increasing).
pub(crate) const SEC_EDGE_ORIG: u32 = u32::from_le_bytes(*b"EORI");
/// CSR offsets (`(n + 1) × u32` per slab).
pub(crate) const SEC_XADJ: u32 = u32::from_le_bytes(*b"XADJ");
/// CSR arc heads (`2m × u32` per slab).
pub(crate) const SEC_ARC_HEADS: u32 = u32::from_le_bytes(*b"AHED");
/// CSR arc frozen-edge ids (`2m × u32` per slab).
pub(crate) const SEC_ARC_EDGES: u32 = u32::from_le_bytes(*b"AEDG");
/// Fault-free BFS trees (`k × 2n × u32`: dist row then parent row).
pub(crate) const SEC_TREES: u32 = u32::from_le_bytes(*b"TREE");
/// Multi-source slab table (`k × 2 × u32`: per-slab edge count and its
/// prefix-sum offset into the concatenated per-slab arrays).
pub(crate) const SEC_SLAB_TABLE: u32 = u32::from_le_bytes(*b"SLBT");

/// Errors produced when decoding a frozen-structure snapshot.
///
/// This enum may gain variants as the snapshot format evolves; match it
/// with a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion(u16),
    /// The input ended before the declared contents.
    Truncated {
        /// Byte offset at which data ran out.
        at: usize,
    },
    /// The checksum does not match the payload (corrupted snapshot).
    ChecksumMismatch,
    /// A v2 section's recorded checksum does not match its bytes.
    SectionChecksum {
        /// The section's kind tag (a little-endian four-character code).
        kind: u32,
    },
    /// The payload decoded but its contents are inconsistent.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a frozen-structure snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::SectionChecksum { kind } => {
                let tag = kind.to_le_bytes();
                write!(
                    f,
                    "section {:?} checksum mismatch",
                    String::from_utf8_lossy(&tag)
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ftbfs_graph::bytes::ByteError> for SnapshotError {
    fn from(err: ftbfs_graph::bytes::ByteError) -> Self {
        SnapshotError::Truncated { at: err.at }
    }
}

pub(crate) fn corrupt<T>(why: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Corrupt(why.into()))
}

/// One entry of a v2 snapshot's section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// The section's kind tag (a little-endian four-character code, e.g.
    /// `u32::from_le_bytes(*b"XADJ")`).
    pub kind: u32,
    /// Absolute byte offset of the section, a multiple of
    /// [`SNAPSHOT_ALIGN`].
    pub offset: usize,
    /// Section length in bytes, a multiple of 4.
    pub len: usize,
    /// Word-stepped FNV-1a over the section bytes.
    pub checksum: u64,
}

/// The parsed outer layout of a v2 snapshot — tooling/test access to the
/// frame without materialising a structure.
#[derive(Clone, Debug)]
pub struct SnapshotLayout {
    /// The format version (always [`SNAPSHOT_VERSION_V2`] on success).
    pub version: u16,
    /// The byte range of the base payload (v1 header + edge list).
    pub base: std::ops::Range<usize>,
    /// The structure fingerprint recorded in the frame.
    pub fingerprint: u64,
    /// The section table, in file order.
    pub sections: Vec<SectionEntry>,
}

/// Aligns `at` up to the next multiple of [`SNAPSHOT_ALIGN`].
pub(crate) fn align_up(at: usize) -> usize {
    at.div_ceil(SNAPSHOT_ALIGN) * SNAPSHOT_ALIGN
}

/// Assembles a complete v2 snapshot from its base payload (version field
/// already set to 2), the structure fingerprint, and the section payloads.
pub(crate) fn assemble_v2(
    magic: [u8; 4],
    base: &[u8],
    fingerprint: u64,
    sections: &[(u32, Vec<u8>)],
) -> Vec<u8> {
    debug_assert!(base.len() % 4 == 0, "base payload is u32-granular");
    // Lay out the section offsets first: header, then each section at the
    // next 64-byte boundary.
    let header_len = 4 + base.len() + 8 // magic + base + base checksum
        + 8 + 4 + 28 * sections.len() + 8; // fingerprint + count + toc + frame checksum
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = align_up(header_len);
    for (_, bytes) in sections {
        debug_assert!(bytes.len() % 4 == 0, "sections store u32 arrays");
        offsets.push(cursor);
        cursor = align_up(cursor + bytes.len());
    }
    let total = cursor;

    let mut frame = Vec::with_capacity(12 + 28 * sections.len());
    put_u64(&mut frame, fingerprint);
    put_u32(&mut frame, sections.len() as u32);
    for ((kind, bytes), &offset) in sections.iter().zip(&offsets) {
        put_u32(&mut frame, *kind);
        put_u64(&mut frame, offset as u64);
        put_u64(&mut frame, bytes.len() as u64);
        put_u64(&mut frame, fnv1a64_words(bytes));
    }

    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&magic);
    out.extend_from_slice(base);
    put_u64(&mut out, fnv1a64_words(base));
    out.extend_from_slice(&frame);
    put_u64(&mut out, fnv1a64_words(&frame));
    debug_assert_eq!(out.len(), header_len);
    for ((_, bytes), &offset) in sections.iter().zip(&offsets) {
        pad_to_align(&mut out, SNAPSHOT_ALIGN);
        debug_assert_eq!(out.len(), offset);
        out.extend_from_slice(bytes);
    }
    pad_to_align(&mut out, SNAPSHOT_ALIGN);
    debug_assert_eq!(out.len(), total);
    out
}

/// The validated outer frame of a v2 snapshot.
pub(crate) struct V2Frame {
    pub fingerprint: u64,
    pub sections: Vec<SectionEntry>,
}

/// Parses and fully validates the v2 frame of `data`, whose base payload
/// ends at absolute offset `base_end`: base checksum, frame checksum,
/// section alignment/bounds/checksums, no overlaps, and zero padding
/// everywhere not covered by a checksum.
pub(crate) fn read_v2_frame(data: &[u8], base_end: usize) -> Result<V2Frame, SnapshotError> {
    let base = &data[4..base_end];
    if base.len() % 4 != 0 {
        return corrupt("base payload length is not u32-granular");
    }
    let mut r = ByteReader::new(&data[base_end..]);
    let stored_base = r.take_u64()?;
    if fnv1a64_words(base) != stored_base {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let frame_start = base_end + r.position();
    let fingerprint = r.take_u64()?;
    let section_count = r.take_u32()? as usize;
    if section_count > 4096 {
        return corrupt(format!("implausible section count {section_count}"));
    }
    let mut sections = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        let kind = r.take_u32()?;
        let offset = r.take_u64()? as usize;
        let len = r.take_u64()? as usize;
        let checksum = r.take_u64()?;
        sections.push(SectionEntry {
            kind,
            offset,
            len,
            checksum,
        });
    }
    let frame_end = base_end + r.position();
    let stored_frame = r.take_u64()?;
    if fnv1a64_words(&data[frame_start..frame_end]) != stored_frame {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let header_end = base_end + r.position();

    // Per-section validation: alignment, u32 granularity, bounds (after
    // the header, inside the data), checksum.
    for s in &sections {
        if s.offset % SNAPSHOT_ALIGN != 0 {
            return corrupt(format!(
                "section offset {} is not 64-byte aligned",
                s.offset
            ));
        }
        if s.len % 4 != 0 {
            return corrupt("section length is not u32-granular");
        }
        if s.offset < header_end {
            return corrupt("section overlaps the snapshot header");
        }
        let end = s.offset.checked_add(s.len);
        match end {
            Some(end) if end <= data.len() => {}
            _ => return Err(SnapshotError::Truncated { at: data.len() }),
        }
        if fnv1a64_words(&data[s.offset..s.offset + s.len]) != s.checksum {
            return Err(SnapshotError::SectionChecksum { kind: s.kind });
        }
    }

    // Overlap + padding validation: sections must be disjoint, every gap
    // (and the trailing pad) must be zero bytes, and the file must extend
    // to the aligned end of the last section — so that *every* byte of the
    // snapshot is covered by exactly one integrity check.
    let mut order: Vec<usize> = (0..sections.len()).collect();
    order.sort_by_key(|&i| sections[i].offset);
    let mut covered_end = header_end;
    for &i in &order {
        let s = &sections[i];
        if s.offset < covered_end {
            return corrupt("sections overlap");
        }
        if data[covered_end..s.offset].iter().any(|&b| b != 0) {
            return corrupt("nonzero padding between sections");
        }
        covered_end = s.offset + s.len;
    }
    let needed = align_up(covered_end);
    if data.len() < needed {
        return Err(SnapshotError::Truncated { at: data.len() });
    }
    if data.len() > needed {
        // The encoding is canonical: exactly one byte string per
        // structure, so byte-comparing snapshots (the golden-fixture gate)
        // is meaningful.  Extended-but-zero tails are rejected, not
        // silently dropped on a save round-trip.
        return corrupt(format!(
            "{} trailing bytes after the final alignment pad",
            data.len() - needed
        ));
    }
    if data[covered_end..].iter().any(|&b| b != 0) {
        return corrupt("nonzero padding after the last section");
    }
    Ok(V2Frame {
        fingerprint,
        sections,
    })
}

/// Finds the unique section of `kind` with exactly `expected_len` bytes.
pub(crate) fn require_section(
    sections: &[SectionEntry],
    kind: u32,
    expected_len: usize,
) -> Result<SectionEntry, SnapshotError> {
    let mut found = None;
    for s in sections {
        if s.kind == kind {
            if found.is_some() {
                return corrupt(format!(
                    "duplicate section {:?}",
                    String::from_utf8_lossy(&kind.to_le_bytes())
                ));
            }
            found = Some(*s);
        }
    }
    let Some(s) = found else {
        return corrupt(format!(
            "missing section {:?}",
            String::from_utf8_lossy(&kind.to_le_bytes())
        ));
    };
    if s.len != expected_len {
        return corrupt(format!(
            "section {:?} has {} bytes, expected {expected_len}",
            String::from_utf8_lossy(&kind.to_le_bytes()),
            s.len
        ));
    }
    Ok(s)
}

/// Reads the little-endian `u32` at absolute byte offset `at` (caller
/// guarantees bounds — used on ranges the base walk has already checked).
#[inline]
pub(crate) fn read_u32_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// The parsed base payload of a single-source ("FTBO") snapshot: field
/// offsets into the underlying bytes, no array materialisation.
pub(crate) struct SingleBase<'a> {
    data: &'a [u8],
    pub version: u16,
    pub n: u32,
    pub resilience: u32,
    pub source_count: usize,
    sources_off: usize,
    pub m: usize,
    edges_off: usize,
    /// Absolute offset one past the end of the base payload.
    pub end: usize,
}

impl<'a> SingleBase<'a> {
    /// Walks the base payload of `data` (which must start with the magic),
    /// checking bounds and the reserved flags, without allocating.
    pub fn walk(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(&data[4..]);
        let version = r.take_u16()?;
        let flags = r.take_u16()?;
        if flags != 0 {
            return corrupt(format!("reserved flags must be zero, got {flags:#06x}"));
        }
        let n = r.take_u32()?;
        let resilience = r.take_u32()?;
        let source_count = r.take_u32()? as usize;
        let sources_off = 4 + r.position();
        r.take_bytes(4 * source_count)?;
        let m = r.take_u32()? as usize;
        let edges_off = 4 + r.position();
        r.take_bytes(12 * m)?;
        Ok(SingleBase {
            data,
            version,
            n,
            resilience,
            source_count,
            sources_off,
            m,
            edges_off,
            end: 4 + r.position(),
        })
    }

    pub fn source(&self, i: usize) -> u32 {
        read_u32_at(self.data, self.sources_off + 4 * i)
    }

    /// The `(orig, u, v)` triple of base edge `i`.
    pub fn edge(&self, i: usize) -> (u32, u32, u32) {
        let at = self.edges_off + 12 * i;
        (
            read_u32_at(self.data, at),
            read_u32_at(self.data, at + 4),
            read_u32_at(self.data, at + 8),
        )
    }

    /// Iterates the `(orig, u, v)` edge triples without per-element bounds
    /// checks (the walk already validated the region).
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        edge_triples(&self.data[self.edges_off..self.edges_off + 12 * self.m])
    }

    /// Checks the freeze invariants the v1 loader enforces: at least one
    /// in-range source, strictly increasing edge ids, endpoints
    /// `u < v < n`.
    pub fn validate_invariants(&self) -> Result<(), SnapshotError> {
        if self.source_count == 0 {
            return corrupt("a frozen structure needs at least one source");
        }
        for i in 0..self.source_count {
            if self.source(i) >= self.n {
                return corrupt("source vertex out of range");
            }
        }
        validate_edge_triples(self.edges(), self.n, "edge")
    }
}

/// Decodes a `12m`-byte region as `(orig, u, v)` little-endian triples.
pub(crate) fn edge_triples(bytes: &[u8]) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
    bytes.chunks_exact(12).map(|c| {
        (
            u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            u32::from_le_bytes([c[8], c[9], c[10], c[11]]),
        )
    })
}

/// Shared edge-list invariant check: strictly increasing original ids,
/// endpoints `u < v < n`.
fn validate_edge_triples(
    triples: impl Iterator<Item = (u32, u32, u32)>,
    n: u32,
    what: &str,
) -> Result<(), SnapshotError> {
    let mut prev: Option<u32> = None;
    for (orig, u, v) in triples {
        if prev.is_some_and(|p| p >= orig) {
            return corrupt(format!("{what} ids must be strictly increasing"));
        }
        prev = Some(orig);
        if u >= v || v >= n {
            return corrupt(format!("{what} endpoints must satisfy u < v < n"));
        }
    }
    Ok(())
}

/// The parsed base payload of a multi-source ("FTBM") snapshot.
pub(crate) struct MultiBase<'a> {
    data: &'a [u8],
    pub version: u16,
    pub n: u32,
    pub resilience: u32,
    pub source_count: usize,
    sources_off: usize,
    pub union_m: usize,
    edges_off: usize,
    /// Per-slab `(edge count, absolute offset of the index list)`.
    pub slab_lists: Vec<(usize, usize)>,
    /// Absolute offset one past the end of the base payload.
    pub end: usize,
}

impl<'a> MultiBase<'a> {
    /// Walks the base payload of `data` (which must start with the magic),
    /// checking bounds and the reserved flags.
    pub fn walk(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(&data[4..]);
        let version = r.take_u16()?;
        let flags = r.take_u16()?;
        if flags != 0 {
            return corrupt(format!("reserved flags must be zero, got {flags:#06x}"));
        }
        let n = r.take_u32()?;
        let resilience = r.take_u32()?;
        let source_count = r.take_u32()? as usize;
        let sources_off = 4 + r.position();
        r.take_bytes(4 * source_count)?;
        let union_m = r.take_u32()? as usize;
        let edges_off = 4 + r.position();
        r.take_bytes(12 * union_m)?;
        let mut slab_lists = Vec::with_capacity(source_count.min(1 << 20));
        for _ in 0..source_count {
            let m_s = r.take_u32()? as usize;
            let at = 4 + r.position();
            r.take_bytes(4 * m_s)?;
            slab_lists.push((m_s, at));
        }
        Ok(MultiBase {
            data,
            version,
            n,
            resilience,
            source_count,
            sources_off,
            union_m,
            edges_off,
            slab_lists,
            end: 4 + r.position(),
        })
    }

    pub fn source(&self, i: usize) -> u32 {
        read_u32_at(self.data, self.sources_off + 4 * i)
    }

    /// The `(orig, u, v)` triple of union edge `i`.
    pub fn edge(&self, i: usize) -> (u32, u32, u32) {
        let at = self.edges_off + 12 * i;
        (
            read_u32_at(self.data, at),
            read_u32_at(self.data, at + 4),
            read_u32_at(self.data, at + 8),
        )
    }

    /// Iterates the union `(orig, u, v)` edge triples without per-element
    /// bounds checks.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        edge_triples(&self.data[self.edges_off..self.edges_off + 12 * self.union_m])
    }

    /// The index list of slab `slab` as a `u32` array view.
    pub fn slab_list(&self, slab: usize) -> ftbfs_graph::bytes::LeU32s<'a> {
        let (m_s, at) = self.slab_lists[slab];
        ftbfs_graph::bytes::LeU32s::new(&self.data[at..at + 4 * m_s])
            .expect("slab list regions are 4-byte granular")
    }

    /// The `j`-th union-edge index of slab `slab`.
    pub fn slab_edge_index(&self, slab: usize, j: usize) -> u32 {
        let (m_s, at) = self.slab_lists[slab];
        debug_assert!(j < m_s);
        read_u32_at(self.data, at + 4 * j)
    }

    /// Checks the freeze invariants the v1 loader enforces: distinct
    /// in-range sources, strictly increasing union edges with `u < v < n`,
    /// and per-slab index lists strictly increasing within union range.
    pub fn validate_invariants(&self) -> Result<(), SnapshotError> {
        if self.source_count == 0 {
            return corrupt("a multi structure needs at least one source");
        }
        for i in 0..self.source_count {
            if self.source(i) >= self.n {
                return corrupt("source vertex out of range");
            }
            for j in 0..i {
                if self.source(j) == self.source(i) {
                    return corrupt("duplicate source in the source set");
                }
            }
        }
        validate_edge_triples(self.edges(), self.n, "union edge")?;
        for slab in 0..self.source_count {
            let mut prev: Option<u32> = None;
            for idx in self.slab_list(slab).iter() {
                if prev.is_some_and(|p| p >= idx) {
                    return corrupt("slab edge indices must be strictly increasing");
                }
                prev = Some(idx);
                if idx as usize >= self.union_m {
                    return corrupt("slab edge index out of union range");
                }
            }
        }
        Ok(())
    }
}

/// Parses the outer layout of a v2 snapshot (either magic) without
/// materialising a structure: the base range, the recorded fingerprint and
/// the fully validated section table.  Tooling and format-compat tests use
/// this to address individual sections.
pub fn snapshot_layout(data: &[u8]) -> Result<SnapshotLayout, SnapshotError> {
    if data.len() < 4 {
        return Err(SnapshotError::BadMagic);
    }
    let (version, base_end) = if data[..4] == SNAPSHOT_MAGIC {
        let base = SingleBase::walk(data)?;
        (base.version, base.end)
    } else if data[..4] == SNAPSHOT_MULTI_MAGIC {
        let base = MultiBase::walk(data)?;
        (base.version, base.end)
    } else {
        return Err(SnapshotError::BadMagic);
    };
    if version != SNAPSHOT_VERSION_V2 {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let frame = read_v2_frame(data, base_end)?;
    Ok(SnapshotLayout {
        version,
        base: 4..base_end,
        fingerprint: frame.fingerprint,
        sections: frame.sections,
    })
}

impl FrozenStructure {
    /// The canonical payload encoding (everything between the magic and the
    /// checksum) with an explicit version field value.
    pub(crate) fn payload_bytes_versioned(&self, version: u16) -> Vec<u8> {
        let (edge_u, edge_v) = self.raw_edge_uv();
        let edge_orig = self.raw_edge_orig();
        let mut out = Vec::with_capacity(20 + 4 * self.sources().len() + 12 * edge_orig.len());
        put_u16(&mut out, version);
        put_u16(&mut out, 0); // flags, reserved
        put_u32(&mut out, self.vertex_count() as u32);
        put_u32(&mut out, self.resilience() as u32);
        put_u32(&mut out, self.sources().len() as u32);
        for s in self.sources() {
            put_u32(&mut out, s.0);
        }
        put_u32(&mut out, edge_orig.len() as u32);
        for i in 0..edge_orig.len() {
            put_u32(&mut out, edge_orig[i]);
            put_u32(&mut out, edge_u[i]);
            put_u32(&mut out, edge_v[i]);
        }
        out
    }

    /// The canonical v1 payload — also the input of
    /// [`FrozenStructure::fingerprint`].
    pub(crate) fn payload_bytes(&self) -> Vec<u8> {
        self.payload_bytes_versioned(SNAPSHOT_VERSION)
    }

    /// Serialises the structure to the default (v1) binary snapshot
    /// format; equivalent to `save_with(SnapshotVersion::V1)`.
    pub fn save(&self) -> Vec<u8> {
        self.save_with(SnapshotVersion::V1)
    }

    /// Serialises the structure to the chosen snapshot format version; see
    /// the module docs for both layouts.
    pub fn save_with(&self, version: SnapshotVersion) -> Vec<u8> {
        match version {
            SnapshotVersion::V1 => {
                let payload = self.payload_bytes();
                let mut out = Vec::with_capacity(4 + payload.len() + 8);
                out.extend_from_slice(&SNAPSHOT_MAGIC);
                out.extend_from_slice(&payload);
                put_u64(&mut out, fnv1a64(&payload));
                out
            }
            SnapshotVersion::V2 => {
                let base = self.payload_bytes_versioned(SNAPSHOT_VERSION_V2);
                let (xadj, adj_head, adj_edge) = self.raw_csr();
                let n = self.vertex_count();
                let mut eori = Vec::new();
                put_u32_slice(&mut eori, self.raw_edge_orig());
                let mut xadj_bytes = Vec::new();
                put_u32_slice(&mut xadj_bytes, xadj);
                let mut head_bytes = Vec::new();
                put_u32_slice(&mut head_bytes, adj_head);
                let mut edge_bytes = Vec::new();
                put_u32_slice(&mut edge_bytes, adj_edge);
                let mut tree_bytes = Vec::with_capacity(8 * n * self.trees().len());
                for tree in self.trees() {
                    let (dist, parent) = tree.raw_dist_parent();
                    put_u32_slice(&mut tree_bytes, dist);
                    put_u32_slice(&mut tree_bytes, parent);
                }
                assemble_v2(
                    SNAPSHOT_MAGIC,
                    &base,
                    self.fingerprint(),
                    &[
                        (SEC_EDGE_ORIG, eori),
                        (SEC_XADJ, xadj_bytes),
                        (SEC_ARC_HEADS, head_bytes),
                        (SEC_ARC_EDGES, edge_bytes),
                        (SEC_TREES, tree_bytes),
                    ],
                )
            }
        }
    }

    /// Deserialises a snapshot produced by [`FrozenStructure::save`] /
    /// [`FrozenStructure::save_with`], accepting both format versions.
    ///
    /// v1 input recomputes the CSR adjacency and the fault-free trees; v2
    /// input is validated exactly like a [`crate::FrozenView`] open and
    /// then rebuilt into an owned structure.  Either way the loaded
    /// structure is equal to the saved one (same fingerprint, identical
    /// query answers).
    pub fn load(data: &[u8]) -> Result<Self, SnapshotError> {
        if data.len() < 4 || data[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if data.len() < 6 {
            return Err(SnapshotError::Truncated { at: data.len() });
        }
        match u16::from_le_bytes([data[4], data[5]]) {
            SNAPSHOT_VERSION => Self::load_v1(data),
            SNAPSHOT_VERSION_V2 => crate::view::FrozenView::open_bytes(data)?.to_frozen(),
            v => Err(SnapshotError::UnsupportedVersion(v)),
        }
    }

    fn load_v1(data: &[u8]) -> Result<Self, SnapshotError> {
        if data.len() < 4 + 8 {
            return Err(SnapshotError::Truncated { at: data.len() });
        }
        let (payload, checksum_bytes) = data[4..].split_at(data.len() - 4 - 8);
        let mut check_reader = ByteReader::new(checksum_bytes);
        let stored = check_reader.take_u64()?;
        if fnv1a64(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = ByteReader::new(payload);
        let version = r.take_u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let flags = r.take_u16()?;
        if flags != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "reserved flags must be zero, got {flags:#06x}"
            )));
        }
        let n = r.take_u32()?;
        let resilience = r.take_u32()?;
        let source_count = r.take_u32()? as usize;
        let mut sources = Vec::with_capacity(source_count.min(1 << 20));
        for _ in 0..source_count {
            sources.push(VertexId(r.take_u32()?));
        }
        let edge_count = r.take_u32()? as usize;
        let mut edge_orig = Vec::with_capacity(edge_count.min(1 << 24));
        let mut edge_u = Vec::with_capacity(edge_count.min(1 << 24));
        let mut edge_v = Vec::with_capacity(edge_count.min(1 << 24));
        for _ in 0..edge_count {
            edge_orig.push(r.take_u32()?);
            edge_u.push(r.take_u32()?);
            edge_v.push(r.take_u32()?);
        }
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing payload bytes",
                r.remaining()
            )));
        }
        FrozenStructure::from_parts(n, sources, resilience, edge_orig, edge_u, edge_v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_core::dual_failure_ftbfs;
    use ftbfs_graph::{generators, TieBreak};

    fn frozen_sample() -> FrozenStructure {
        let g = generators::connected_gnp(40, 0.12, 5);
        let w = TieBreak::new(&g, 5);
        let h = dual_failure_ftbfs(&g, &w, VertexId(0));
        FrozenStructure::freeze(&g, &h)
    }

    #[test]
    fn save_load_roundtrip_is_identical() {
        let frozen = frozen_sample();
        let bytes = frozen.save();
        assert_eq!(&bytes[..4], &SNAPSHOT_MAGIC);
        let loaded = FrozenStructure::load(&bytes).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.fingerprint(), frozen.fingerprint());
        // Saving again is byte-identical (canonical encoding).
        assert_eq!(loaded.save(), bytes);
    }

    #[test]
    fn v2_save_load_roundtrip_is_identical() {
        let frozen = frozen_sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        assert_eq!(&bytes[..4], &SNAPSHOT_MAGIC);
        assert_eq!(bytes.len() % SNAPSHOT_ALIGN, 0, "writer pads to 64");
        let loaded = FrozenStructure::load(&bytes).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.fingerprint(), frozen.fingerprint());
        // The v2 encoding is canonical too.
        assert_eq!(loaded.save_with(SnapshotVersion::V2), bytes);
        // And strictly larger than v1 (it also stores the derived arrays).
        assert!(bytes.len() > frozen.save().len());
    }

    #[test]
    fn v2_layout_exposes_aligned_checksummed_sections() {
        let frozen = frozen_sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let layout = snapshot_layout(&bytes).unwrap();
        assert_eq!(layout.version, SNAPSHOT_VERSION_V2);
        assert_eq!(layout.fingerprint, frozen.fingerprint());
        assert_eq!(layout.sections.len(), 5);
        let n = frozen.vertex_count();
        let m = frozen.edge_count();
        let expected = [
            (SEC_EDGE_ORIG, 4 * m),
            (SEC_XADJ, 4 * (n + 1)),
            (SEC_ARC_HEADS, 8 * m),
            (SEC_ARC_EDGES, 8 * m),
            (SEC_TREES, 8 * n * frozen.trees().len()),
        ];
        for (kind, len) in expected {
            let s = layout
                .sections
                .iter()
                .find(|s| s.kind == kind)
                .unwrap_or_else(|| panic!("missing section {kind:08x}"));
            assert_eq!(s.len, len);
            assert_eq!(s.offset % SNAPSHOT_ALIGN, 0);
            assert_eq!(
                ftbfs_graph::bytes::fnv1a64_words(&bytes[s.offset..s.offset + s.len]),
                s.checksum
            );
        }
        // v1 snapshots have no section layout.
        assert_eq!(
            snapshot_layout(&frozen.save()).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let frozen = frozen_sample();
        for version in [SnapshotVersion::V1, SnapshotVersion::V2] {
            let bytes = frozen.save_with(version);
            assert_eq!(
                FrozenStructure::load(b"nope").unwrap_err(),
                SnapshotError::BadMagic
            );
            let mut wrong = bytes.clone();
            wrong[0] = b'X';
            assert_eq!(
                FrozenStructure::load(&wrong).unwrap_err(),
                SnapshotError::BadMagic
            );
            for cut in [5, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    FrozenStructure::load(&bytes[..cut]).is_err(),
                    "{version:?} cut at {cut} must not load"
                );
            }
        }
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let frozen = frozen_sample();
        let mut bytes = frozen.save();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            FrozenStructure::load(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn v2_section_corruption_is_attributed_to_the_section() {
        let frozen = frozen_sample();
        let mut bytes = frozen.save_with(SnapshotVersion::V2);
        let layout = snapshot_layout(&bytes).unwrap();
        let tree = layout
            .sections
            .iter()
            .find(|s| s.kind == SEC_TREES)
            .unwrap();
        bytes[tree.offset + 4] ^= 0x01;
        assert_eq!(
            FrozenStructure::load(&bytes).unwrap_err(),
            SnapshotError::SectionChecksum { kind: SEC_TREES }
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let frozen = frozen_sample();
        let bytes = frozen.save();
        // Rewrite the version field (first payload u16) and re-checksum so
        // only the version check can fail.
        let mut payload = bytes[4..bytes.len() - 8].to_vec();
        payload[0] = 0x2A;
        payload[1] = 0x00;
        let mut rewritten = Vec::new();
        rewritten.extend_from_slice(&SNAPSHOT_MAGIC);
        rewritten.extend_from_slice(&payload);
        put_u64(&mut rewritten, fnv1a64(&payload));
        assert_eq!(
            FrozenStructure::load(&rewritten).unwrap_err(),
            SnapshotError::UnsupportedVersion(42)
        );
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(SnapshotError::Truncated { at: 12 }
            .to_string()
            .contains("12"));
        assert!(SnapshotError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(SnapshotError::SectionChecksum { kind: SEC_XADJ }
            .to_string()
            .contains("XADJ"));
        assert!(SnapshotError::Corrupt("x > n".to_string())
            .to_string()
            .contains("x > n"));
    }
}
