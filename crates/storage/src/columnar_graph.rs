//! [`ColumnarGraph`]: the assembled columnar storage layer (Section 4).
//!
//! Built from a [`RawGraph`] under a [`StorageConfig`], it holds:
//!
//! * vertex property columns per label (Section 4.1.2),
//! * forward/backward adjacency indexes per edge label — CSRs for n-n
//!   labels, vertex columns ([`SingleCardAdj`]) for single-cardinality
//!   labels (Table 1),
//! * edge property stores per label ([`EdgePropStore`]): single-indexed
//!   property pages by default, with edge-column and double-indexed
//!   baselines for the Section 8.3 experiments,
//! * a primary-key hash index per vertex label (the constant-time vertex
//!   seek every native GDBMS provides).
//!
//! Each label's parts sit behind one `Arc` ([`VertexLabelParts`],
//! [`EdgeLabelParts`]) and are built label by label, so a merge rebuilds
//! only the labels its delta touched and shares the rest with the old
//! baseline by pointer; a full build is the case where every label is
//! built.

use std::collections::HashMap;
use std::sync::Arc;

use gfcl_columnar::{
    Column, NullKind, PageCursor, SegRef, SegmentSink, SegmentSource, UIntArray, PAGE_SIZE,
};
use gfcl_common::{
    DataType, Direction, Error, LabelId, MemoryUsage, Reader, Result, Value, Writer,
};

use crate::catalog::{Catalog, EdgeLabelDef, VertexLabelDef};
use crate::config::{EdgePropLayout, StorageConfig};
use crate::csr::{Csr, CsrOptions};
use crate::edge_prop_pages::PropertyPages;
use crate::edge_store::EdgePropStore;
use crate::raw::{EdgeTable, PropData, RawGraph, VertexTable};
use crate::single_card::SingleCardAdj;
use crate::stats::{EdgeLabelStats, Stats, VertexLabelStats};
use crate::store::BaselineRead;

/// Adjacency index of one (edge label, direction).
#[derive(Debug, Clone)]
pub enum AdjIndex {
    Csr(Csr),
    SingleCard(SingleCardAdj),
}

impl AdjIndex {
    pub fn as_csr(&self) -> Option<&Csr> {
        match self {
            AdjIndex::Csr(c) => Some(c),
            AdjIndex::SingleCard(_) => None,
        }
    }

    pub fn as_single(&self) -> Option<&SingleCardAdj> {
        match self {
            AdjIndex::SingleCard(s) => Some(s),
            AdjIndex::Csr(_) => None,
        }
    }

    fn adjacency_bytes(&self) -> usize {
        match self {
            AdjIndex::Csr(c) => c.memory_bytes(),
            AdjIndex::SingleCard(s) => s.adjacency_bytes(),
        }
    }

    /// Bytes living on disk, faulted through the buffer pool (includes
    /// single-cardinality edge property columns, which live here).
    pub fn pageable_bytes(&self) -> usize {
        match self {
            AdjIndex::Csr(c) => c.pageable_bytes(),
            AdjIndex::SingleCard(s) => s.pageable_bytes(),
        }
    }

    fn encode(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        match self {
            AdjIndex::Csr(c) => {
                w.u8(0);
                c.encode(w, sink);
            }
            AdjIndex::SingleCard(s) => {
                w.u8(1);
                s.encode(w, sink);
            }
        }
    }

    fn decode(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<AdjIndex> {
        Ok(match r.u8()? {
            0 => AdjIndex::Csr(Csr::decode(r, src)?),
            1 => AdjIndex::SingleCard(SingleCardAdj::decode(r, src)?),
            t => return Err(Error::Storage(format!("invalid adjacency-index tag {t}"))),
        })
    }
}

/// How to read one edge property during a traversal of `(label, dir)`.
/// Resolved once per operator, then applied per edge in a tight loop.
#[derive(Debug, Clone, Copy)]
pub enum EdgePropRead<'g> {
    /// `flat = csr position` — the sequential indexed-direction read of
    /// property pages and of double-indexed CSRs.
    ByPosition(&'g Column),
    /// `flat = pages.flat_index(src, page_offset)` where `page_offset` is
    /// the stored edge-ID component and `src` is the edge's indexed-side
    /// vertex (the traversal neighbour when walking the opposite
    /// direction).
    ByPageOffset { pages: &'g PropertyPages, col: &'g Column, nbr_is_src: bool },
    /// `flat = stored edge ID` — edge columns and the old (pre-`NEW-IDS`)
    /// ID scheme: a random access per edge.
    ByEdgeId(&'g Column),
    /// Single-cardinality label: read the vertex column of the single
    /// endpoint (`from` itself, or the neighbour if `endpoint_is_nbr`).
    ByVertex { col: &'g Column, endpoint_is_nbr: bool },
}

impl<'g> EdgePropRead<'g> {
    /// The backing column, whatever the index scheme — the place to find
    /// the property's dtype and dictionary.
    pub fn column(&self) -> &'g Column {
        match self {
            EdgePropRead::ByPosition(col)
            | EdgePropRead::ByEdgeId(col)
            | EdgePropRead::ByPageOffset { col, .. }
            | EdgePropRead::ByVertex { col, .. } => col,
        }
    }

    /// The edge-property resolver: append to `out` the flat property
    /// indexes of CSR positions `positions` of `from`'s list in `csr` (the
    /// CSR this access path was resolved for). A single edge is a list of
    /// one position.
    /// The stored edge-ID components and — walking the non-indexed
    /// direction — the neighbours are block reads stepped through the
    /// caller's cursors (one pin per page per list, not per edge), and the
    /// access path is matched once per list.
    pub fn resolve_list(
        &self,
        csr: &Csr,
        from: u64,
        positions: std::ops::Range<u64>,
        ids_cur: &mut PageCursor,
        nbr_cur: &mut PageCursor,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        let (start, end) = (positions.start as usize, positions.end as usize);
        let edge_ids = |cur: &mut PageCursor, out: &mut Vec<u64>| match csr.edge_ids_array() {
            Some(ids) => {
                ids.read_range(cur, start, end, out);
                Ok(())
            }
            None => Err(Error::Storage("edge IDs not stored for this adjacency list".into())),
        };
        let at = out.len();
        match *self {
            EdgePropRead::ByPosition(_) => out.extend(positions),
            EdgePropRead::ByEdgeId(_) => edge_ids(ids_cur, out)?,
            EdgePropRead::ByPageOffset { pages, nbr_is_src, .. } => {
                edge_ids(ids_cur, out)?;
                for (pos, flat) in positions.zip(&mut out[at..]) {
                    // The page is keyed by the indexed-side vertex: the
                    // traversal neighbour when walking the other direction.
                    let src = if nbr_is_src { csr.nbr_at_with(nbr_cur, pos) } else { from };
                    *flat = pages.flat_index(src, *flat);
                }
            }
            EdgePropRead::ByVertex { endpoint_is_nbr, .. } => {
                if endpoint_is_nbr {
                    csr.nbr_array().read_range(nbr_cur, start, end, out);
                } else {
                    out.resize(at + (end - start), from);
                }
            }
        }
        Ok(())
    }
}

/// The page cursors one reader walks a graph's arrays through, and the
/// offset scratch its list reads resolve into. Every reader of a
/// [`ColumnarGraph`] — an operator of any engine, a delta-store walk, a
/// merge export — owns one bundle and passes it to each read, so a pin is
/// something the reader holds, never something a value costs. A cursor is
/// one null pointer until it meets a paged page and the scratch owns no
/// memory until a read fills it: over a resident graph a bundle costs no
/// allocation. A bundle must only ever read one graph (cursors key their
/// pages by page number).
#[derive(Debug, Default)]
pub struct ReadCursors {
    /// Vertex columns: properties, and single-cardinality neighbours.
    pub col: PageCursor,
    /// CSR neighbour arrays.
    pub nbr: PageCursor,
    /// CSR edge-ID arrays.
    pub ids: PageCursor,
    /// Vertex offsets or flat property indexes of the block being read.
    pub offs: Vec<u64>,
}

impl ReadCursors {
    /// Release every pin the cursors hold.
    pub fn clear(&mut self) {
        self.col.clear();
        self.nbr.clear();
        self.ids.clear();
    }
}

/// Per-label memory of the four Table 2 components, plus the
/// resident/pageable split introduced by the on-disk format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    pub vertex_props: usize,
    pub edge_props: usize,
    pub fwd_adj: usize,
    pub bwd_adj: usize,
    /// Heap bytes actually held right now: all of [`Self::total`] for a
    /// freshly built graph, only metadata + offsets + NULL maps + zone
    /// maps + dictionaries for a reopened one.
    pub resident: usize,
    /// Bytes that live on disk and are faulted in page-by-page on demand.
    /// Zero for a built (all-in-memory) graph. `resident + pageable`
    /// always equals [`Self::total`], so the paper's Table 2 numbers are
    /// preserved by save/reopen (up to `Vec` capacity slack on the built
    /// side — decoded arrays are allocated exactly).
    pub pageable: usize,
    /// Bytes of disk pages currently cached by the buffer pool (bounded
    /// by its capacity; zero when no pool is attached).
    pub buffer_pool: usize,
}

impl MemoryBreakdown {
    /// Logical bytes of the four Table 2 components — invariant under
    /// save/reopen (the resident/pageable split moves, the total does not).
    pub fn total(&self) -> usize {
        self.vertex_props + self.edge_props + self.fwd_adj + self.bwd_adj
    }
}

/// One vertex label's built parts: its property columns (with their zone
/// maps and dictionaries) and its primary-key map. Immutable once built,
/// so baselines that agree on the label share one by pointer.
#[derive(Debug)]
pub struct VertexLabelParts {
    count: usize,
    cols: Vec<Column>,
    pk: Option<HashMap<i64, u64>>,
}

/// One edge label's built parts: its forward and backward adjacency
/// indexes and its edge-property store. Shared like [`VertexLabelParts`].
#[derive(Debug)]
pub struct EdgeLabelParts {
    count: usize,
    fwd: AdjIndex,
    bwd: AdjIndex,
    props: EdgePropStore,
}

/// [`SegmentSink`] appending each segment, length-prefixed, to one buffer:
/// a label's encoding with its value segments inline.
#[derive(Default)]
struct InlineSink {
    data: Writer,
    next_page: u64,
}

impl SegmentSink for InlineSink {
    fn write_segment(&mut self, bytes: &[u8]) -> SegRef {
        self.data.usize(bytes.len());
        self.data.bytes(bytes);
        let seg = SegRef {
            start_page: self.next_page,
            n_pages: bytes.len().div_ceil(PAGE_SIZE).max(1) as u64,
        };
        self.next_page += seg.n_pages;
        seg
    }
}

/// `meta` followed by the segments `sink` collected.
fn inline_encoding(w: Writer, sink: InlineSink) -> Vec<u8> {
    let mut out = w.into_bytes();
    out.extend_from_slice(&sink.data.into_bytes());
    out
}

impl VertexLabelParts {
    fn build(def: &VertexLabelDef, table: &VertexTable, config: &StorageConfig) -> Result<Self> {
        // Zone maps: scans consult them to skip whole blocks under
        // pushed-down predicates.
        let cols: Vec<Column> = table
            .props
            .iter()
            .zip(&def.properties)
            .map(|(prop, pdef)| {
                let mut col = prop_to_column(prop, pdef.dtype, config);
                if config.zone_maps {
                    col.build_zone_map();
                }
                col
            })
            .collect();
        let pk = match def.primary_key {
            Some(j) => {
                let col = &cols[j];
                let mut map = HashMap::with_capacity(col.len());
                let mut cur = PageCursor::new();
                for v in 0..col.len() {
                    if let Some(key) = col.get_i64_with(&mut cur, v) {
                        if map.insert(key, v as u64).is_some() {
                            return Err(Error::Invalid(format!(
                                "duplicate primary key {key} in {}",
                                def.name
                            )));
                        }
                    }
                }
                Some(map)
            }
            None => None,
        };
        Ok(VertexLabelParts { count: table.count, cols, pk })
    }

    /// The label as a save encodes it — count, columns and primary-key
    /// map — with its value segments inline. Equal bytes mean equal built
    /// parts: merges are checked against full rebuilds with it.
    pub fn encoded(&self) -> Vec<u8> {
        let (mut w, mut sink) = (Writer::new(), InlineSink::default());
        w.usize(self.count);
        encode_columns(&mut w, &mut sink, &self.cols);
        encode_pk(&mut w, self.pk.as_ref());
        inline_encoding(w, sink)
    }
}

impl EdgeLabelParts {
    fn build(
        label: LabelId,
        def: &EdgeLabelDef,
        table: &EdgeTable,
        n_src: usize,
        n_dst: usize,
        config: &StorageConfig,
    ) -> Result<Self> {
        let single_fwd = def.cardinality.is_single(Direction::Fwd) && config.single_card_in_vcols;
        let single_bwd = def.cardinality.is_single(Direction::Bwd) && config.single_card_in_vcols;
        let (fwd, bwd, props) = if single_fwd || single_bwd {
            let prop_side = def.cardinality.property_side().expect("single-card label");
            let (f, b) = build_single_card(
                table,
                n_src,
                n_dst,
                prop_side,
                &def.properties,
                config,
                single_fwd,
                single_bwd,
            )?;
            let props = if def.properties.is_empty() {
                EdgePropStore::None
            } else {
                EdgePropStore::InVertexColumns
            };
            (f, b, props)
        } else {
            let (f, b, store) =
                build_nn(table, n_src, n_dst, &def.properties, config, u64::from(label))?;
            (AdjIndex::Csr(f), AdjIndex::Csr(b), store)
        };
        Ok(EdgeLabelParts { count: table.len(), fwd, bwd, props })
    }

    /// The label as a save encodes it — count, both adjacency indexes and
    /// the property store — with its value segments inline (see
    /// [`VertexLabelParts::encoded`]).
    pub fn encoded(&self) -> Vec<u8> {
        let (mut w, mut sink) = (Writer::new(), InlineSink::default());
        w.usize(self.count);
        self.fwd.encode(&mut w, &mut sink);
        self.bwd.encode(&mut w, &mut sink);
        self.props.encode(&mut w, &mut sink);
        inline_encoding(w, sink)
    }
}

/// Which labels a build makes from its raw tables. A full build makes
/// every label; a merge makes the labels its delta touched and shares the
/// rest with the previous baseline.
#[derive(Debug)]
pub(crate) struct LabelSet {
    pub(crate) vertices: Vec<bool>,
    pub(crate) edges: Vec<bool>,
}

impl LabelSet {
    /// Every label of `catalog`.
    pub(crate) fn all(catalog: &Catalog) -> LabelSet {
        LabelSet {
            vertices: vec![true; catalog.vertex_label_count()],
            edges: vec![true; catalog.edge_label_count()],
        }
    }
}

/// The read-optimized columnar graph database.
#[derive(Debug, Clone)]
pub struct ColumnarGraph {
    catalog: Catalog,
    config: StorageConfig,
    /// Per vertex label, shared with every baseline built since the label
    /// last changed.
    vertices: Vec<Arc<VertexLabelParts>>,
    /// Per edge label, shared likewise.
    edges: Vec<Arc<EdgeLabelParts>>,
    /// Random per-build generation stamp, persisted with the graph. Two
    /// builds never share one, even from identical input — the WAL's
    /// baseline fingerprint folds it in so a log can never be mistaken
    /// for another baseline's (e.g. after a count-preserving merge).
    build_nonce: u64,
    /// The buffer pool faulting this graph's pages, if it was opened from
    /// disk. `None` for a built (all-resident) graph.
    pool: Option<Arc<crate::buffer_pool::BufferPool>>,
}

/// A fresh generation stamp: `RandomState` seeds from system entropy (per
/// thread, bumped per instance), and the global counter separates calls
/// even under a duplicated entropy source.
fn fresh_nonce() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(SEQ.fetch_add(1, Ordering::Relaxed));
    h.finish()
}

impl ColumnarGraph {
    /// Build from a raw graph under `config`.
    pub fn build(raw: &RawGraph, config: StorageConfig) -> Result<ColumnarGraph> {
        Self::build_labels(raw, config, &LabelSet::all(&raw.catalog), None)
    }

    /// The one build path: the labels in `rebuild` are built from their
    /// tables in `raw`; every other label's parts and statistics are taken
    /// from `prev` by pointer, and `raw`'s table for it is never read. A
    /// full build is the case where `rebuild` holds every label.
    pub(crate) fn build_labels(
        raw: &RawGraph,
        config: StorageConfig,
        rebuild: &LabelSet,
        prev: Option<&ColumnarGraph>,
    ) -> Result<ColumnarGraph> {
        let catalog = &raw.catalog;
        let shared = || {
            prev.and_then(|g| Some((g, g.catalog.stats()?))).ok_or_else(|| {
                Error::Storage("a shared label needs a previous baseline with statistics".into())
            })
        };
        // Statistics are deterministic in the raw data, so every engine
        // built from the same RawGraph plans with identical stats, and a
        // shared label's statistics are those its table would yield.
        let mut stats = Stats::default();

        let mut vertices = Vec::with_capacity(raw.vertices.len());
        for (lid, table) in raw.vertices.iter().enumerate() {
            let label = lid as LabelId;
            if rebuild.vertices[lid] {
                raw.validate_vertex_table(label)?;
                let def = catalog.vertex_label(label);
                vertices.push(Arc::new(VertexLabelParts::build(def, table, &config)?));
                stats.vertices.push(VertexLabelStats::collect(table));
            } else {
                let (prev, prev_stats) = shared()?;
                vertices.push(Arc::clone(&prev.vertices[lid]));
                stats.vertices.push(prev_stats.vertex(label).clone());
            }
        }

        let mut edges = Vec::with_capacity(raw.edges.len());
        for (eid, table) in raw.edges.iter().enumerate() {
            let label = eid as LabelId;
            if rebuild.edges[eid] {
                let def = catalog.edge_label(label);
                let n_src = vertices[def.src as usize].count;
                let n_dst = vertices[def.dst as usize].count;
                raw.validate_edge_table(label, n_src, n_dst)?;
                let parts = EdgeLabelParts::build(label, def, table, n_src, n_dst, &config)?;
                edges.push(Arc::new(parts));
                stats.edges.push(EdgeLabelStats::collect(table, n_src, n_dst));
            } else {
                let (prev, prev_stats) = shared()?;
                edges.push(Arc::clone(&prev.edges[eid]));
                stats.edges.push(prev_stats.edge(label).clone());
            }
        }

        let mut catalog = catalog.clone();
        catalog.set_stats(stats);
        Ok(ColumnarGraph {
            catalog,
            config,
            vertices,
            edges,
            build_nonce: fresh_nonce(),
            pool: None,
        })
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The per-build generation stamp (see the field doc). Stable across
    /// save/open; distinct across separate builds.
    pub fn build_nonce(&self) -> u64 {
        self.build_nonce
    }

    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    pub fn vertex_count(&self, label: LabelId) -> usize {
        self.vertices[label as usize].count
    }

    pub fn edge_count(&self, label: LabelId) -> usize {
        self.edges[label as usize].count
    }

    /// The built parts of vertex label `label`, shared by pointer with
    /// every baseline that has not rebuilt the label since.
    pub fn vertex_label_parts(&self, label: LabelId) -> &Arc<VertexLabelParts> {
        &self.vertices[label as usize]
    }

    /// The built parts of edge label `label` (see
    /// [`ColumnarGraph::vertex_label_parts`]).
    pub fn edge_label_parts(&self, label: LabelId) -> &Arc<EdgeLabelParts> {
        &self.edges[label as usize]
    }

    pub fn vertex_prop(&self, label: LabelId, prop: usize) -> &Column {
        &self.vertices[label as usize].cols[prop]
    }

    /// Adjacency index of `(label, dir)`.
    pub fn adj(&self, label: LabelId, dir: Direction) -> &AdjIndex {
        let e = &self.edges[label as usize];
        match dir {
            Direction::Fwd => &e.fwd,
            Direction::Bwd => &e.bwd,
        }
    }

    pub fn edge_prop_store(&self, label: LabelId) -> &EdgePropStore {
        &self.edges[label as usize].props
    }

    /// Constant-time primary-key seek.
    pub fn lookup_pk(&self, label: LabelId, key: i64) -> Option<u64> {
        self.vertices[label as usize].pk.as_ref()?.get(&key).copied()
    }

    /// Validate that `(label, dir)` can serve an access path that reads
    /// the stored edge-ID component: the adjacency must be a CSR *and* the
    /// Figure 6 decision tree must have kept its edge-ID array. Checked
    /// once at [`EdgePropRead`] resolution so per-edge reads never panic on
    /// a layout that omitted the IDs.
    fn require_edge_ids(&self, label: LabelId, dir: Direction) -> Result<()> {
        let def = self.catalog.edge_label(label);
        let csr = self.adj(label, dir).as_csr().ok_or_else(|| {
            Error::Storage(format!(
                "edge label {} has no CSR in direction {dir}; cannot resolve edge IDs",
                def.name
            ))
        })?;
        if !csr.has_edge_ids() {
            return Err(Error::Storage(format!(
                "edge IDs not stored for label {} in direction {dir}: this layout cannot \
                 resolve edge property reads",
                def.name
            )));
        }
        Ok(())
    }

    /// Resolve the access path for edge property `prop` when traversing
    /// `(label, dir)` (see [`EdgePropRead`]).
    pub fn edge_prop_read(
        &self,
        label: LabelId,
        dir: Direction,
        prop: usize,
    ) -> Result<EdgePropRead<'_>> {
        let def = self.catalog.edge_label(label);
        match self.edge_prop_store(label) {
            EdgePropStore::None => {
                Err(Error::Exec(format!("edge label {} has no properties", def.name)))
            }
            EdgePropStore::Pages(pp) => {
                self.require_edge_ids(label, dir)?;
                if self.config.new_ids {
                    // Both directions resolve through (indexed-side vertex,
                    // page-level positional offset). Forward reads touch one
                    // small page per list (close-by memory, Desideratum 1);
                    // backward reads are constant-time random accesses.
                    Ok(EdgePropRead::ByPageOffset {
                        pages: pp,
                        col: pp.prop(prop),
                        nbr_is_src: dir == Direction::Bwd,
                    })
                } else {
                    // Old ID scheme: stored 8-byte global edge IDs index the
                    // flat property storage directly.
                    Ok(EdgePropRead::ByEdgeId(pp.prop(prop)))
                }
            }
            EdgePropStore::Columns { props } => {
                self.require_edge_ids(label, dir)?;
                Ok(EdgePropRead::ByEdgeId(&props[prop]))
            }
            EdgePropStore::DoubleIndexed { fwd, bwd } => Ok(EdgePropRead::ByPosition(match dir {
                Direction::Fwd => &fwd[prop],
                Direction::Bwd => &bwd[prop],
            })),
            EdgePropStore::InVertexColumns => {
                let prop_side = def.cardinality.property_side().expect("single-card");
                let adj = self.adj(label, prop_side);
                let col = adj
                    .as_single()
                    .expect("property side of a single-card label is a vertex column")
                    .prop(prop);
                Ok(EdgePropRead::ByVertex { col, endpoint_is_nbr: dir != prop_side })
            }
        }
    }

    /// One edge property, for a caller without cursors of its own: `from`
    /// is the traversal source vertex, `csr_pos` its CSR position (`None`
    /// for single-cardinality traversals). Reads through a fresh
    /// [`ReadCursors`], so on a paged graph every call pins afresh. Kept
    /// only because the benchmark's edge-property probe calls it; engines
    /// read through [`BaselineRead::edge_value`] with their own cursors.
    pub fn read_edge_prop(
        &self,
        label: LabelId,
        dir: Direction,
        from: u64,
        csr_pos: Option<u64>,
        prop: usize,
    ) -> Result<Value> {
        let token = match self.adj(label, dir) {
            AdjIndex::Csr(_) => {
                csr_pos.ok_or_else(|| Error::Exec("CSR edge without a position".into()))?
            }
            AdjIndex::SingleCard(_) => 0,
        };
        self.edge_value(&mut ReadCursors::default(), label, dir, from, token, prop)
    }

    /// Memory of one edge label's storage, split as
    /// `(fwd adjacency, bwd adjacency, edge properties)` — used by the
    /// Table 4 experiment to report per-label costs.
    pub fn edge_label_memory(&self, label: LabelId) -> (usize, usize, usize) {
        let e = &self.edges[label as usize];
        let mut props = e.props.memory_bytes();
        // Single-cardinality edge properties live inside the SingleCardAdj
        // vertex columns; count them as edge properties, per Table 2.
        for adj in [&e.fwd, &e.bwd] {
            if let AdjIndex::SingleCard(s) = adj {
                props += s.props_bytes();
            }
        }
        (e.fwd.adjacency_bytes(), e.bwd.adjacency_bytes(), props)
    }

    /// Memory of the four Table 2 components.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let cols = || self.vertices.iter().flat_map(|v| v.cols.iter());
        let vertex_props = cols().map(Column::memory_bytes).sum();
        let (mut edge_props, mut fwd_adj, mut bwd_adj) = (0, 0, 0);
        for l in 0..self.edges.len() {
            let (f, b, p) = self.edge_label_memory(l as LabelId);
            (fwd_adj, bwd_adj, edge_props) = (fwd_adj + f, bwd_adj + b, edge_props + p);
        }
        let pageable = cols().map(Column::pageable_bytes).sum::<usize>()
            + self
                .edges
                .iter()
                .map(|e| e.fwd.pageable_bytes() + e.bwd.pageable_bytes() + e.props.pageable_bytes())
                .sum::<usize>();
        let total = vertex_props + edge_props + fwd_adj + bwd_adj;
        MemoryBreakdown {
            vertex_props,
            edge_props,
            fwd_adj,
            bwd_adj,
            resident: total.saturating_sub(pageable),
            pageable,
            buffer_pool: self.pool.as_ref().map_or(0, |p| p.occupancy_bytes()),
        }
    }

    /// The buffer pool backing a reopened graph (`None` when fully
    /// in-memory). Exposes fault/hit/eviction/skip counters.
    pub fn buffer_pool(&self) -> Option<&crate::buffer_pool::BufferPool> {
        self.pool.as_deref()
    }

    pub(crate) fn set_pool(&mut self, pool: Arc<crate::buffer_pool::BufferPool>) {
        // Reflect the pool actually attached (env override included) so
        // `config()` reports the truth for this process, not the saved value.
        self.config.buffer_pool_pages = pool.capacity();
        self.pool = Some(pool);
    }

    /// Encode everything except page data into `w`; large value arrays go
    /// to `sink` as page-aligned segments. Inverse of [`Self::decode_meta`].
    pub(crate) fn encode_meta(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        w.u64(self.build_nonce);
        self.config.encode(w);
        self.catalog.encode(w);
        let (vs, es) = (&self.vertices, &self.edges);
        w.usize(vs.len());
        for v in vs {
            w.usize(v.count);
        }
        w.usize(es.len());
        for e in es {
            w.usize(e.count);
        }
        w.usize(vs.len());
        for v in vs {
            encode_columns(w, sink, &v.cols);
        }
        w.usize(es.len());
        for e in es {
            e.fwd.encode(w, sink);
        }
        w.usize(es.len());
        for e in es {
            e.bwd.encode(w, sink);
        }
        w.usize(es.len());
        for e in es {
            e.props.encode(w, sink);
        }
        w.usize(vs.len());
        for v in vs {
            encode_pk(w, v.pk.as_ref());
        }
    }

    /// Decode an [`Self::encode_meta`] stream; paged arrays keep `src` and
    /// fault their values on first touch. The result has no pool attached
    /// ([`crate::format`] sets it after open).
    pub(crate) fn decode_meta(
        r: &mut Reader<'_>,
        src: &dyn SegmentSource,
    ) -> Result<ColumnarGraph> {
        /// `count`-prefixed list of `item`s.
        fn list<'a, T>(
            r: &mut Reader<'a>,
            mut item: impl FnMut(&mut Reader<'a>) -> Result<T>,
        ) -> Result<Vec<T>> {
            let n = r.count()?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(item(r)?);
            }
            Ok(out)
        }
        let build_nonce = r.u64()?;
        let config = StorageConfig::decode(r)?;
        let catalog = Catalog::decode(r)?;
        let vertex_counts = list(r, Reader::usize)?;
        let edge_counts = list(r, Reader::usize)?;
        let vertex_props = list(r, |r| list(r, |r| Column::decode(r, src)))?;
        let fwd = list(r, |r| AdjIndex::decode(r, src))?;
        let bwd = list(r, |r| AdjIndex::decode(r, src))?;
        let edge_props = list(r, |r| EdgePropStore::decode(r, src))?;
        // Primary-key maps as sorted (key, vertex) pairs: rebuilding them
        // from the key column would fault every page at open time.
        let pk = list(r, |r| r.opt(|r| list(r, |r| Ok((r.i64()?, r.u64()?)))))?;
        // Cross-check the decoded shape against the catalog so a truncated
        // or tampered metadata stream fails here, not deep inside a query.
        let nv = catalog.vertex_label_count();
        let ne = catalog.edge_label_count();
        if vertex_counts.len() != nv
            || vertex_props.len() != nv
            || pk.len() != nv
            || edge_counts.len() != ne
            || fwd.len() != ne
            || bwd.len() != ne
            || edge_props.len() != ne
        {
            return Err(Error::Storage("metadata shape disagrees with catalog".into()));
        }
        let vertices = vertex_counts
            .into_iter()
            .zip(vertex_props)
            .zip(pk)
            .map(|((count, cols), pk)| {
                let pk = pk.map(|pairs| pairs.into_iter().collect());
                Arc::new(VertexLabelParts { count, cols, pk })
            })
            .collect();
        let edges = edge_counts
            .into_iter()
            .zip(fwd.into_iter().zip(bwd))
            .zip(edge_props)
            .map(|((count, (fwd, bwd)), props)| Arc::new(EdgeLabelParts { count, fwd, bwd, props }))
            .collect();
        Ok(ColumnarGraph { catalog, config, vertices, edges, build_nonce, pool: None })
    }
}

/// A `count`-prefixed list of columns.
fn encode_columns(w: &mut Writer, sink: &mut dyn SegmentSink, cols: &[Column]) {
    w.usize(cols.len());
    for col in cols {
        col.encode(w, sink);
    }
}

/// A primary-key map as sorted (key, vertex) pairs.
fn encode_pk(w: &mut Writer, pk: Option<&HashMap<i64, u64>>) {
    w.opt(pk, |w, m| {
        let mut pairs: Vec<(i64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        w.usize(pairs.len());
        for (k, v) in pairs {
            w.i64(k);
            w.u64(v);
        }
    });
}

/// NULL layout for a column with/without NULLs under `config`.
fn pick_kind(has_nulls: bool, config: &StorageConfig) -> NullKind {
    if !has_nulls {
        NullKind::None
    } else if config.null_compress {
        config.null_kind
    } else {
        NullKind::Uncompressed
    }
}

/// Convert a raw property column (identity order).
fn prop_to_column(prop: &PropData, dtype: DataType, config: &StorageConfig) -> Column {
    let kind = pick_kind(prop.null_fraction() > 0.0, config);
    match prop {
        PropData::I64(v) => Column::from_i64(dtype, v, kind),
        PropData::F64(v) => Column::from_f64(v, kind),
        PropData::Bool(v) => Column::from_bool(v, kind),
        PropData::Str(v) => {
            let refs: Vec<Option<&str>> = v.iter().map(|s| s.as_deref()).collect();
            Column::from_str(&refs, kind, true)
        }
    }
}

/// Gather a raw property column into a new order: `out[p] = prop[order[p]]`.
fn gather_column(
    prop: &PropData,
    dtype: DataType,
    order: &[u64],
    config: &StorageConfig,
) -> Column {
    match prop {
        PropData::I64(v) => {
            let g: Vec<Option<i64>> = order.iter().map(|&i| v[i as usize]).collect();
            Column::from_i64(dtype, &g, pick_kind(g.iter().any(Option::is_none), config))
        }
        PropData::F64(v) => {
            let g: Vec<Option<f64>> = order.iter().map(|&i| v[i as usize]).collect();
            Column::from_f64(&g, pick_kind(g.iter().any(Option::is_none), config))
        }
        PropData::Bool(v) => {
            let g: Vec<Option<bool>> = order.iter().map(|&i| v[i as usize]).collect();
            Column::from_bool(&g, pick_kind(g.iter().any(Option::is_none), config))
        }
        PropData::Str(v) => {
            let g: Vec<Option<&str>> = order.iter().map(|&i| v[i as usize].as_deref()).collect();
            Column::from_str(&g, pick_kind(g.iter().any(Option::is_none), config), true)
        }
    }
}

/// Scatter a raw property column to vertex slots: `out[keys[i]] = prop[i]`.
fn scatter_column(
    prop: &PropData,
    dtype: DataType,
    keys: &[u64],
    n: usize,
    config: &StorageConfig,
) -> Column {
    match prop {
        PropData::I64(v) => {
            let mut out: Vec<Option<i64>> = vec![None; n];
            for (i, &k) in keys.iter().enumerate() {
                out[k as usize] = v[i];
            }
            Column::from_i64(dtype, &out, pick_kind(out.iter().any(Option::is_none), config))
        }
        PropData::F64(v) => {
            let mut out: Vec<Option<f64>> = vec![None; n];
            for (i, &k) in keys.iter().enumerate() {
                out[k as usize] = v[i];
            }
            Column::from_f64(&out, pick_kind(out.iter().any(Option::is_none), config))
        }
        PropData::Bool(v) => {
            let mut out: Vec<Option<bool>> = vec![None; n];
            for (i, &k) in keys.iter().enumerate() {
                out[k as usize] = v[i];
            }
            Column::from_bool(&out, pick_kind(out.iter().any(Option::is_none), config))
        }
        PropData::Str(v) => {
            let mut out: Vec<Option<&str>> = vec![None; n];
            for (i, &k) in keys.iter().enumerate() {
                out[k as usize] = v[i].as_deref();
            }
            Column::from_str(&out, pick_kind(out.iter().any(Option::is_none), config), true)
        }
    }
}

/// Deterministic pseudo-random permutation of `0..n` (edge-column baseline:
/// "edges are given random edge IDs").
fn pseudo_shuffle(n: usize, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64).collect();
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[allow(clippy::too_many_arguments)]
fn build_single_card(
    table: &EdgeTable,
    n_src: usize,
    n_dst: usize,
    prop_side: Direction,
    prop_defs: &[crate::catalog::PropertyDef],
    config: &StorageConfig,
    single_fwd: bool,
    single_bwd: bool,
) -> Result<(AdjIndex, AdjIndex)> {
    let kind = pick_kind(true, config); // absent edges are NULLs
    let build_side = |from: &[u64], nbrs: &[u64], n_from: usize, with_props: bool| {
        let mut opt: Vec<Option<u64>> = vec![None; n_from];
        for (i, &f) in from.iter().enumerate() {
            opt[f as usize] = Some(nbrs[i]);
        }
        let props = if with_props {
            prop_defs
                .iter()
                .enumerate()
                .map(|(j, def)| scatter_column(&table.props[j], def.dtype, from, n_from, config))
                .collect()
        } else {
            Vec::new()
        };
        SingleCardAdj::build(&opt, kind, config.zero_suppress, props)
    };

    let fwd: AdjIndex = if single_fwd {
        AdjIndex::SingleCard(build_side(&table.src, &table.dst, n_src, prop_side == Direction::Fwd))
    } else {
        // n-side of a 1-n label: plain CSR without edge IDs (decision tree:
        // single cardinality => no positional offsets).
        let opts = CsrOptions {
            zero_suppress: config.zero_suppress,
            compress_empty: config.null_compress.then_some(config.null_kind),
        };
        let (csr, _) = Csr::build(n_src, &table.src, &table.dst, opts);
        AdjIndex::Csr(csr)
    };
    let bwd: AdjIndex = if single_bwd {
        AdjIndex::SingleCard(build_side(&table.dst, &table.src, n_dst, prop_side == Direction::Bwd))
    } else {
        let opts = CsrOptions {
            zero_suppress: config.zero_suppress,
            compress_empty: config.null_compress.then_some(config.null_kind),
        };
        let (csr, _) = Csr::build(n_dst, &table.dst, &table.src, opts);
        AdjIndex::Csr(csr)
    };
    Ok((fwd, bwd))
}

fn build_nn(
    table: &EdgeTable,
    n_src: usize,
    n_dst: usize,
    prop_defs: &[crate::catalog::PropertyDef],
    config: &StorageConfig,
    label_seed: u64,
) -> Result<(Csr, Csr, EdgePropStore)> {
    let opts = CsrOptions {
        zero_suppress: config.zero_suppress,
        compress_empty: config.null_compress.then_some(config.null_kind),
    };
    let (mut fwd, perm_f) = Csr::build(n_src, &table.src, &table.dst, opts);
    let (mut bwd, perm_b) = Csr::build(n_dst, &table.dst, &table.src, opts);
    let m = table.len();
    let has_props = !prop_defs.is_empty();

    // Old ID scheme: 8-byte global edge IDs stored for EVERY edge in both
    // directions, properties or not.
    if !config.new_ids {
        if !has_props {
            // Global IDs are the input edge indexes.
            let fwd_ids: Vec<u64> = perm_f.clone();
            let bwd_ids: Vec<u64> = perm_b.clone();
            fwd.set_edge_ids(UIntArray::from_values(&fwd_ids, config.zero_suppress));
            bwd.set_edge_ids(UIntArray::from_values(&bwd_ids, config.zero_suppress));
            return Ok((fwd, bwd, EdgePropStore::None));
        }
        // Properties live in page-grouped flat storage; the stored global
        // IDs are the flat positions.
        let assign =
            crate::edge_prop_pages::assign_insertion_order(pages_k(config), n_src, &table.src);
        let cols = prop_defs
            .iter()
            .enumerate()
            .map(|(j, def)| {
                scatter_column(&table.props[j], def.dtype, &assign.flat_of_input, m, config)
            })
            .collect();
        let pp = PropertyPages::from_assignment(pages_k(config), &assign, cols);
        let fwd_ids: Vec<u64> = perm_f.iter().map(|&i| assign.flat_of_input[i as usize]).collect();
        let bwd_ids: Vec<u64> = perm_b.iter().map(|&i| assign.flat_of_input[i as usize]).collect();
        fwd.set_edge_ids(UIntArray::from_values(&fwd_ids, config.zero_suppress));
        bwd.set_edge_ids(UIntArray::from_values(&bwd_ids, config.zero_suppress));
        return Ok((fwd, bwd, EdgePropStore::Pages(pp)));
    }

    // New ID scheme, Figure 6 decision tree: no properties => no edge IDs.
    if !has_props {
        return Ok((fwd, bwd, EdgePropStore::None));
    }

    match config.edge_prop_layout {
        EdgePropLayout::Pages { k } => {
            // Pages fill in edge-insertion order: within a page the k lists
            // interleave but stay in close-by memory (Section 4.2).
            let assign = crate::edge_prop_pages::assign_insertion_order(k, n_src, &table.src);
            let cols = prop_defs
                .iter()
                .enumerate()
                .map(|(j, def)| {
                    scatter_column(&table.props[j], def.dtype, &assign.flat_of_input, m, config)
                })
                .collect();
            let pp = PropertyPages::from_assignment(k, &assign, cols);
            // Page-level positional offsets, stored in both directions.
            let fwd_offs: Vec<u64> =
                perm_f.iter().map(|&i| assign.slot_of_input[i as usize]).collect();
            let bwd_offs: Vec<u64> =
                perm_b.iter().map(|&i| assign.slot_of_input[i as usize]).collect();
            fwd.set_edge_ids(UIntArray::from_values(&fwd_offs, config.zero_suppress));
            bwd.set_edge_ids(UIntArray::from_values(&bwd_offs, config.zero_suppress));
            Ok((fwd, bwd, EdgePropStore::Pages(pp)))
        }
        EdgePropLayout::EdgeColumns => {
            let rid = pseudo_shuffle(m, 0xC0FFEE ^ label_seed);
            let props = prop_defs
                .iter()
                .enumerate()
                .map(|(j, def)| scatter_column(&table.props[j], def.dtype, &rid, m, config))
                .collect();
            let fwd_ids: Vec<u64> = perm_f.iter().map(|&i| rid[i as usize]).collect();
            let bwd_ids: Vec<u64> = perm_b.iter().map(|&i| rid[i as usize]).collect();
            fwd.set_edge_ids(UIntArray::from_values(&fwd_ids, config.zero_suppress));
            bwd.set_edge_ids(UIntArray::from_values(&bwd_ids, config.zero_suppress));
            Ok((fwd, bwd, EdgePropStore::Columns { props }))
        }
        EdgePropLayout::DoubleIndexed => {
            let fwd_cols = prop_defs
                .iter()
                .enumerate()
                .map(|(j, def)| gather_column(&table.props[j], def.dtype, &perm_f, config))
                .collect();
            let bwd_cols = prop_defs
                .iter()
                .enumerate()
                .map(|(j, def)| gather_column(&table.props[j], def.dtype, &perm_b, config))
                .collect();
            Ok((fwd, bwd, EdgePropStore::DoubleIndexed { fwd: fwd_cols, bwd: bwd_cols }))
        }
    }
}

fn pages_k(config: &StorageConfig) -> usize {
    match config.edge_prop_layout {
        EdgePropLayout::Pages { k } => k,
        _ => EdgePropLayout::DEFAULT_K,
    }
}

impl BaselineRead for ColumnarGraph {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn vertex_count(&self, label: LabelId) -> usize {
        ColumnarGraph::vertex_count(self, label)
    }

    fn lookup_pk(&self, label: LabelId, key: i64) -> Option<u64> {
        ColumnarGraph::lookup_pk(self, label, key)
    }

    fn adj_range(&self, elabel: LabelId, dir: Direction, from: u64) -> (u64, u64) {
        match self.adj(elabel, dir) {
            AdjIndex::Csr(c) => {
                let (start, len) = c.list(from);
                (start, len as u64)
            }
            AdjIndex::SingleCard(_) => (from, 1),
        }
    }

    fn adj_entry(
        &self,
        cur: &mut ReadCursors,
        elabel: LabelId,
        dir: Direction,
        pos: u64,
    ) -> Option<(u64, u64)> {
        match self.adj(elabel, dir) {
            // The edge token is the CSR position; property reads resolve it
            // through the same `EdgePropRead::resolve_list` as the LBP.
            AdjIndex::Csr(c) => Some((c.nbr_at_with(&mut cur.nbr, pos), pos)),
            AdjIndex::SingleCard(s) => s.nbr_with(&mut cur.col, pos).map(|nbr| (nbr, 0)),
        }
    }

    fn vertex_value(&self, cur: &mut PageCursor, label: LabelId, off: u64, prop: usize) -> Value {
        self.vertex_prop(label, prop).value(cur, off as usize)
    }

    fn edge_value(
        &self,
        cur: &mut ReadCursors,
        elabel: LabelId,
        dir: Direction,
        from: u64,
        token: u64,
        prop: usize,
    ) -> Result<Value> {
        let read = self.edge_prop_read(elabel, dir, prop)?;
        let flat = match self.adj(elabel, dir) {
            AdjIndex::Csr(csr) => {
                let ReadCursors { nbr, ids, offs, .. } = cur;
                offs.clear();
                read.resolve_list(csr, from, token..token + 1, ids, nbr, offs)?;
                offs[0]
            }
            // A vertex-column label keeps its properties in vertex columns
            // (`EdgePropRead::ByVertex`): read at `from` or at its neighbour.
            AdjIndex::SingleCard(s) => match read {
                EdgePropRead::ByVertex { endpoint_is_nbr: false, .. } => from,
                _ => s.nbr_with(&mut cur.col, from).ok_or_else(|| {
                    Error::Storage("edge read at a vertex without the edge".into())
                })?,
            },
        };
        Ok(read.column().value(&mut cur.col, flat as usize))
    }
}

impl MemoryUsage for ColumnarGraph {
    fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawGraph;

    fn configs() -> Vec<StorageConfig> {
        let mut v: Vec<StorageConfig> =
            StorageConfig::ladder().into_iter().map(|(_, c)| c).collect();
        v.push(StorageConfig {
            edge_prop_layout: EdgePropLayout::EdgeColumns,
            ..StorageConfig::default()
        });
        v.push(StorageConfig {
            edge_prop_layout: EdgePropLayout::DoubleIndexed,
            ..StorageConfig::default()
        });
        v.push(StorageConfig { single_card_in_vcols: false, ..StorageConfig::default() });
        v.push(StorageConfig {
            edge_prop_layout: EdgePropLayout::Pages { k: 2 },
            ..StorageConfig::default()
        });
        v
    }

    /// Collect (src, dst, since) triples through forward traversal.
    fn follows_triples(g: &ColumnarGraph) -> Vec<(u64, u64, i64)> {
        let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
        let csr = g.adj(follows, Direction::Fwd).as_csr().unwrap();
        let mut out = Vec::new();
        for v in 0..g.vertex_count(0) as u64 {
            for (pos, nbr) in csr.iter_list(v) {
                let since = g
                    .read_edge_prop(follows, Direction::Fwd, v, Some(pos), 0)
                    .unwrap()
                    .as_i64()
                    .unwrap();
                out.push((v, nbr, since));
            }
        }
        out.sort_unstable();
        out
    }

    fn expected_follows() -> Vec<(u64, u64, i64)> {
        let mut v = vec![
            (0u64, 1u64, 2003i64),
            (1, 2, 2009),
            (0, 3, 1999),
            (1, 3, 2006),
            (2, 3, 2015),
            (3, 1, 2012),
            (2, 1, 1992),
            (2, 0, 2011),
        ];
        v.sort_unstable();
        v
    }

    #[test]
    fn forward_traversal_all_configs() {
        let raw = RawGraph::example();
        for cfg in configs() {
            let g = ColumnarGraph::build(&raw, cfg).unwrap();
            assert_eq!(follows_triples(&g), expected_follows(), "{cfg:?}");
        }
    }

    #[test]
    fn backward_traversal_reads_same_properties() {
        let raw = RawGraph::example();
        for cfg in configs() {
            let g = ColumnarGraph::build(&raw, cfg).unwrap();
            let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
            let csr = g.adj(follows, Direction::Bwd).as_csr().unwrap();
            let mut out = Vec::new();
            for v in 0..g.vertex_count(0) as u64 {
                for (pos, nbr) in csr.iter_list(v) {
                    let since = g
                        .read_edge_prop(follows, Direction::Bwd, v, Some(pos), 0)
                        .unwrap()
                        .as_i64()
                        .unwrap();
                    out.push((nbr, v, since)); // (src, dst, prop)
                }
            }
            out.sort_unstable();
            assert_eq!(out, expected_follows(), "{cfg:?}");
        }
    }

    #[test]
    fn single_cardinality_edges_in_vertex_columns() {
        let raw = RawGraph::example();
        let g = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
        let workat = g.catalog().edge_label_id("WORKAT").unwrap();
        let adj = g.adj(workat, Direction::Fwd).as_single().unwrap();
        let cur = &mut PageCursor::new();
        assert_eq!(adj.nbr_with(cur, 0), Some(0)); // alice -> UW
        assert_eq!(adj.nbr_with(cur, 1), Some(1)); // bob -> UofT
        assert_eq!(adj.nbr_with(cur, 2), None); // peter doesn't work
                                                // doj readable from both directions.
        assert_eq!(
            g.read_edge_prop(workat, Direction::Fwd, 0, None, 0).unwrap(),
            Value::Int64(2006)
        );
        let bwd = g.adj(workat, Direction::Bwd).as_csr().unwrap();
        let (pos, nbr) = bwd.iter_list(1).next().unwrap(); // UofT's workers
        assert_eq!(nbr, 1); // bob
        assert_eq!(
            g.read_edge_prop(workat, Direction::Bwd, 1, Some(pos), 0).unwrap(),
            Value::Int64(1980)
        );
    }

    #[test]
    fn single_card_disabled_falls_back_to_csr() {
        let raw = RawGraph::example();
        let cfg = StorageConfig { single_card_in_vcols: false, ..StorageConfig::default() };
        let g = ColumnarGraph::build(&raw, cfg).unwrap();
        let workat = g.catalog().edge_label_id("WORKAT").unwrap();
        let csr = g.adj(workat, Direction::Fwd).as_csr().unwrap();
        assert_eq!(csr.degree(0), 1);
        let (pos, nbr) = csr.iter_list(0).next().unwrap();
        assert_eq!(nbr, 0);
        assert_eq!(
            g.read_edge_prop(workat, Direction::Fwd, 0, Some(pos), 0).unwrap(),
            Value::Int64(2006)
        );
    }

    #[test]
    fn vertex_props_and_pk() {
        let raw = RawGraph::example();
        let g = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
        let person = g.catalog().vertex_label_id("PERSON").unwrap();
        let cur = &mut PageCursor::new();
        assert_eq!(g.vertex_prop(person, 0).value(cur, 1), Value::String("bob".into()));
        assert_eq!(g.vertex_prop(person, 1).get_i64(2), Some(17));
        assert_eq!(g.vertex_count(person), 4);
    }

    /// A larger sparse graph where each ladder step has something to save:
    /// 5000 vertices, one sparse property, one n-n label with a property
    /// and one property-less n-n label, both with many empty lists.
    fn sparse_raw() -> RawGraph {
        use crate::catalog::{Cardinality, PropertyDef};
        let mut cat = Catalog::new();
        let node =
            cat.add_vertex_label("NODE", vec![PropertyDef::new("ts", DataType::Int64)]).unwrap();
        let rel = cat
            .add_edge_label(
                "REL",
                node,
                node,
                Cardinality::ManyMany,
                vec![PropertyDef::new("w", DataType::Int64)],
            )
            .unwrap();
        let link = cat.add_edge_label("LINK", node, node, Cardinality::ManyMany, vec![]).unwrap();
        let mut raw = RawGraph::new(cat);
        let n = 5000usize;
        raw.vertices[node as usize].count = n;
        for v in 0..n {
            if v % 5 == 0 {
                raw.vertices[node as usize].props[0].push_i64(v as i64);
            } else {
                raw.vertices[node as usize].props[0].push_null();
            }
        }
        for (eid, stride) in [(rel, 7usize), (link, 11usize)] {
            let t = &mut raw.edges[eid as usize];
            for v in (0..n).step_by(stride) {
                for d in 1..4u64 {
                    t.src.push(v as u64);
                    t.dst.push((v as u64 * 31 + d * 97) % n as u64);
                    if eid == rel {
                        t.props[0].push_i64((v as i64) * 3 + d as i64);
                    }
                }
            }
        }
        raw.validate().unwrap();
        raw
    }

    #[test]
    fn memory_ladder_is_monotone_decreasing() {
        let raw = sparse_raw();
        let mut last = usize::MAX;
        for (name, cfg) in StorageConfig::ladder() {
            let g = ColumnarGraph::build(&raw, cfg).unwrap();
            let total = g.memory_breakdown().total();
            assert!(total <= last, "{name} should not increase memory ({total} > {last})");
            last = total;
        }
        // And the full config should beat the row store.
        let row = crate::row_graph::RowGraph::build(&raw).unwrap();
        assert!(row.memory_breakdown().total() > last);
    }

    #[test]
    fn traversals_agree_on_sparse_graph_across_configs() {
        let raw = sparse_raw();
        let reference = ColumnarGraph::build(&raw, StorageConfig::cols()).unwrap();
        let rel = reference.catalog().edge_label_id("REL").unwrap();
        for cfg in configs() {
            let g = ColumnarGraph::build(&raw, cfg).unwrap();
            for dir in [Direction::Fwd, Direction::Bwd] {
                let a = reference.adj(rel, dir).as_csr().unwrap();
                let b = g.adj(rel, dir).as_csr().unwrap();
                for v in (0..5000u64).step_by(137) {
                    let mut la: Vec<(u64, i64)> = a
                        .iter_list(v)
                        .map(|(pos, nbr)| {
                            let w = reference
                                .read_edge_prop(rel, dir, v, Some(pos), 0)
                                .unwrap()
                                .as_i64()
                                .unwrap();
                            (nbr, w)
                        })
                        .collect();
                    let mut lb: Vec<(u64, i64)> = b
                        .iter_list(v)
                        .map(|(pos, nbr)| {
                            let w = g
                                .read_edge_prop(rel, dir, v, Some(pos), 0)
                                .unwrap()
                                .as_i64()
                                .unwrap();
                            (nbr, w)
                        })
                        .collect();
                    la.sort_unstable();
                    lb.sort_unstable();
                    assert_eq!(la, lb, "{cfg:?} {dir} v={v}");
                }
            }
        }
    }

    #[test]
    fn missing_edge_ids_surface_a_storage_error() {
        // Regression: resolving an edge property read against a CSR whose
        // layout omitted the edge-ID array used to panic per edge inside
        // `Csr::edge_id_at`; it must fail at resolution with Error::Storage.
        let raw = RawGraph::example();
        let mut g = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
        let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
        let t = &raw.edges[follows as usize];
        let (bare, _) = Csr::build(g.vertex_count(0), &t.src, &t.dst, CsrOptions::default());
        assert!(!bare.has_edge_ids());
        Arc::get_mut(&mut g.edges[follows as usize]).unwrap().fwd = AdjIndex::Csr(bare);
        let err = g.edge_prop_read(follows, Direction::Fwd, 0).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("edge IDs not stored"));
        // The untouched backward direction still resolves.
        assert!(g.edge_prop_read(follows, Direction::Bwd, 0).is_ok());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut raw = RawGraph::example();
        let mut cat = raw.catalog.clone();
        // Make `age` a pk and introduce a duplicate.
        cat.set_primary_key(0, "age").unwrap();
        raw.catalog = cat;
        if let crate::raw::PropData::I64(v) = &mut raw.vertices[0].props[1] {
            v[0] = Some(54); // same as bob
        }
        assert!(ColumnarGraph::build(&raw, StorageConfig::default()).is_err());
    }
}
