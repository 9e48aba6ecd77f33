//! The write-optimized delta store (ROADMAP #2, the paper's Section 7
//! mitigation): vertex/edge inserts, updates and deletes buffered in
//! append-friendly per-label structures that overlay the immutable
//! read-optimized [`ColumnarGraph`] baseline.
//!
//! The design is the classic write-store / read-store split the paper cites
//! (C-Store's WS, positional delta trees), with the paper's own offset
//! discipline: deleted delta slots are **recycled** through
//! [`crate::OffsetRecycler`] so the delta's positional ID space stays dense,
//! exactly as Section 7 prescribes for the baseline's vertex offsets.
//!
//! One type is both sides. [`DeltaStore`] keeps every per-label structure
//! in the persistent containers of [`crate::persistent`], so a clone costs
//! one `Arc` bump per label and shares everything:
//!
//! * **Writes.** All mutations funnel through [`DeltaStore::apply`] with an
//!   already-resolved [`ResolvedOp`], the same entry point WAL replay uses,
//!   so a replayed log reconstructs the store exactly. `apply` validates
//!   everything (arity, types, liveness, primary-key uniqueness,
//!   cardinality constraints) and returns [`Error::Storage`]/
//!   [`Error::Invalid`] on bad input — a corrupted WAL record can never
//!   panic the open path. A write copies only the trie paths it touches;
//!   a snapshot holding the old state never sees it.
//! * **Reads.** A published store is a [`DeltaSnapshot`]: queries resolve
//!   `(baseline ⊎ delta) ∖ tombstones` through its lookup structures — the
//!   per-endpoint edge lists, the dirty-list and touched-block counts, the
//!   string extensions — which `apply` maintains as it goes, so nothing is
//!   rebuilt at commit. The baseline portion keeps its zone maps and
//!   compiled predicates, and only rows/lists the delta touches pay the
//!   overlay price.
//!
//! **ID spaces.** Vertices keep per-label positional offsets: baseline rows
//! occupy `0..n_base` and delta rows occupy `n_base + slot` (slots recycled
//! LIFO). Baseline edges are identified storage-agnostically as
//! `(src, dst, occ)` — the `occ`-th duplicate of that endpoint pair in the
//! source's adjacency list. Both the columnar CSR and the row store build
//! their lists with the same stable grouping of the input edge table, so the
//! occurrence index names the same physical edge in every engine. Delta
//! edges are identified by their insertion index, which is never recycled
//! (deleted delta edges keep their slot with a `deleted` flag) so WAL
//! replay and snapshot readers agree on indices.

use std::collections::HashMap;
use std::sync::Arc;

use gfcl_columnar::{Dictionary, PageCursor, ZONE_BLOCK};
use gfcl_common::{Direction, Error, LabelId, Reader, Result, Value, Writer};

use crate::columnar_graph::{ColumnarGraph, ReadCursors};
use crate::mutation::OffsetRecycler;
use crate::persistent::{PMap, PVec};
use crate::store::{BaselineRead, GraphView};

/// A fully resolved mutation, the unit of WAL logging and replay.
///
/// "Resolved" means every identifier is positional: vertex offsets instead
/// of primary keys, full post-image rows instead of partial assignments,
/// and [`EdgeTarget`]s instead of endpoint pairs. Resolution happens once,
/// in the writer's transaction (`gfcl_storage::store`), against the state
/// the op will apply to — so replaying the same op sequence over the same
/// baseline is deterministic by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedOp {
    /// Insert a vertex of `label` with a full-width property row.
    InsertVertex { label: LabelId, row: Vec<Value> },
    /// Replace the property row of the (live) vertex at `off`.
    UpdateVertex { label: LabelId, off: u64, row: Vec<Value> },
    /// Delete the vertex at `off`, cascading to its incident edges.
    DeleteVertex { label: LabelId, off: u64 },
    /// Insert an edge `src -> dst` of edge label `label`.
    InsertEdge { label: LabelId, src: u64, dst: u64, props: Vec<Value> },
    /// Delete one edge of `label`.
    DeleteEdge { label: LabelId, target: EdgeTarget },
}

/// The identity of one edge for deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeTarget {
    /// A baseline edge: the `occ`-th `(src, dst)` duplicate in list order.
    Base { src: u64, dst: u64, occ: u32 },
    /// A delta-inserted edge by insertion index.
    Delta { idx: u64 },
}

/// One delta-inserted edge. `deleted` edges keep their slot so indices
/// stay stable for the WAL and for published snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEdge {
    pub src: u64,
    pub dst: u64,
    pub props: Arc<[Value]>,
    pub deleted: bool,
}

fn value_enc(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Int64(x) => {
            w.u8(1);
            w.i64(*x);
        }
        Value::Float64(x) => {
            w.u8(2);
            w.f64(*x);
        }
        Value::Bool(x) => {
            w.u8(3);
            w.bool(*x);
        }
        Value::Date(x) => {
            w.u8(4);
            w.i64(*x);
        }
        Value::String(s) => {
            w.u8(5);
            w.str(s);
        }
    }
}

fn value_dec(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int64(r.i64()?),
        2 => Value::Float64(r.f64()?),
        3 => Value::Bool(r.bool()?),
        4 => Value::Date(r.i64()?),
        5 => Value::String(r.str()?),
        t => return Err(Error::Storage(format!("unknown value tag {t} in WAL record"))),
    })
}

fn row_enc(w: &mut Writer, row: &[Value]) {
    w.usize(row.len());
    for v in row {
        value_enc(w, v);
    }
}

fn row_dec(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    let n = r.count()?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(value_dec(r)?);
    }
    Ok(row)
}

impl ResolvedOp {
    pub fn encode(&self, w: &mut Writer) {
        match self {
            ResolvedOp::InsertVertex { label, row } => {
                w.u8(0);
                w.u32(u32::from(*label));
                row_enc(w, row);
            }
            ResolvedOp::UpdateVertex { label, off, row } => {
                w.u8(1);
                w.u32(u32::from(*label));
                w.u64(*off);
                row_enc(w, row);
            }
            ResolvedOp::DeleteVertex { label, off } => {
                w.u8(2);
                w.u32(u32::from(*label));
                w.u64(*off);
            }
            ResolvedOp::InsertEdge { label, src, dst, props } => {
                w.u8(3);
                w.u32(u32::from(*label));
                w.u64(*src);
                w.u64(*dst);
                row_enc(w, props);
            }
            ResolvedOp::DeleteEdge { label, target } => {
                w.u8(4);
                w.u32(u32::from(*label));
                match target {
                    EdgeTarget::Base { src, dst, occ } => {
                        w.u8(0);
                        w.u64(*src);
                        w.u64(*dst);
                        w.u32(*occ);
                    }
                    EdgeTarget::Delta { idx } => {
                        w.u8(1);
                        w.u64(*idx);
                    }
                }
            }
        }
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<ResolvedOp> {
        let label_of = |v: u32| -> Result<LabelId> {
            LabelId::try_from(v).map_err(|_| Error::Storage(format!("label id {v} out of range")))
        };
        Ok(match r.u8()? {
            0 => ResolvedOp::InsertVertex { label: label_of(r.u32()?)?, row: row_dec(r)? },
            1 => {
                let label = label_of(r.u32()?)?;
                let off = r.u64()?;
                ResolvedOp::UpdateVertex { label, off, row: row_dec(r)? }
            }
            2 => ResolvedOp::DeleteVertex { label: label_of(r.u32()?)?, off: r.u64()? },
            3 => {
                let label = label_of(r.u32()?)?;
                let src = r.u64()?;
                let dst = r.u64()?;
                ResolvedOp::InsertEdge { label, src, dst, props: row_dec(r)? }
            }
            4 => {
                let label = label_of(r.u32()?)?;
                let target = match r.u8()? {
                    0 => EdgeTarget::Base { src: r.u64()?, dst: r.u64()?, occ: r.u32()? },
                    1 => EdgeTarget::Delta { idx: r.u64()? },
                    t => {
                        return Err(Error::Storage(format!("unknown edge-target tag {t}")));
                    }
                };
                ResolvedOp::DeleteEdge { label, target }
            }
            t => return Err(Error::Storage(format!("unknown mutation-op tag {t}"))),
        })
    }
}

/// A property row, shared between every state that holds it.
type Row = Arc<[Value]>;

/// One vertex label's part of the delta.
#[derive(Debug, Clone, Default)]
struct VertexDelta {
    /// Delta rows by slot (`None` = vacated by a delete).
    rows: PVec<Option<Row>>,
    /// Slot allocator recycling vacated delta slots.
    recycler: OffsetRecycler,
    /// Full post-image rows overriding baseline offsets.
    updates: PMap<u64, Row>,
    /// Tombstoned baseline offsets.
    tombs: PMap<u64, ()>,
    /// Primary keys of live delta rows -> global offset.
    pk: PMap<i64, u64>,
    /// `ZONE_BLOCK` index -> how many of its baseline offsets are
    /// tombstoned or overridden: the blocks a pushed-down scan cannot
    /// prune or probe positionally.
    touched_blocks: PMap<u64, u32>,
    /// Per property: extension dictionary (never used for non-strings).
    exts: Vec<StrExt>,
}

/// One edge label's part of the delta.
#[derive(Debug, Clone, Default)]
struct EdgeDelta {
    /// Delta edges in insertion order (slots never reused).
    rows: PVec<DeltaEdge>,
    /// Tombstoned baseline edges, `(src, dst) -> occs`.
    tombs: PMap<(u64, u64), Arc<[u32]>>,
    /// Number of tombstoned baseline edges (occurrences over `tombs`).
    tomb_count: usize,
    /// `[dir]`: endpoint -> tombstoned baseline edges on that side of it.
    /// With `from`, the lists that differ from the baseline.
    tomb_ends: [PMap<u64, u32>; 2],
    /// `[dir]`: endpoint -> live delta edge indices in insertion order.
    /// Only live edges appear, and a key with no edges is removed, so key
    /// presence alone says "has a live delta edge" — the vertex-delete
    /// cascade, cardinality checks and delete-edge resolution cost
    /// O(incident edges).
    from: [PMap<u64, Arc<[u64]>>; 2],
    /// `[prop][dir]` extension dictionaries.
    exts: Vec<[StrExt; 2]>,
}

/// Add one to `key`'s count.
fn count_in(counts: &mut PMap<u64, u32>, key: u64) {
    let n = counts.get(&key).copied().unwrap_or(0);
    counts.insert(key, n + 1);
}

impl VertexDelta {
    /// Count `off` in its block's touched offsets.
    fn touch_block(&mut self, off: u64) {
        count_in(&mut self.touched_blocks, off / ZONE_BLOCK as u64);
    }
}

impl EdgeDelta {
    /// Append delta edge `idx` to `v`'s side-`d` list.
    fn link(&mut self, d: usize, v: u64, idx: u64) {
        let old = self.from[d].get(&v).map_or(&[][..], |list| &list[..]);
        let list: Arc<[u64]> = old.iter().copied().chain([idx]).collect();
        self.from[d].insert(v, list);
    }

    /// Drop delta edge `idx` from `v`'s side-`d` list.
    fn unlink(&mut self, d: usize, v: u64, idx: u64) {
        let Some(list) = self.from[d].get(&v) else { return };
        let rest: Arc<[u64]> = list.iter().copied().filter(|&x| x != idx).collect();
        if rest.is_empty() {
            self.from[d].remove(&v);
        } else {
            self.from[d].insert(v, rest);
        }
    }
}

/// The delta store: the writer's accumulator and, once published, the
/// readers' [`DeltaSnapshot`]. A clone costs one `Arc` bump per label;
/// writes through [`DeltaStore::apply`] copy only what they touch, so a
/// writer works on a clone of the published state and readers holding
/// that state never observe the writes.
#[derive(Debug, Clone, Default)]
pub struct DeltaStore {
    /// Per vertex label.
    v: Vec<Arc<VertexDelta>>,
    /// Per edge label.
    e: Vec<Arc<EdgeDelta>>,
}

/// A published [`DeltaStore`]: the state one MVCC epoch's readers pin.
/// All lookups are by positional offset and are representation-agnostic:
/// the columnar engines, the row-store engine and the relational baseline
/// overlay the same snapshot over their own baselines.
pub type DeltaSnapshot = DeltaStore;

/// The baseline dictionary of a vertex property (`None` for non-strings).
fn vertex_dict(base: &ColumnarGraph, label: LabelId, prop: usize) -> Option<&Dictionary> {
    base.vertex_prop(label, prop).dictionary()
}

/// The baseline dictionary of an edge property in one traversal direction.
fn edge_dict(
    base: &ColumnarGraph,
    label: LabelId,
    dir: Direction,
    prop: usize,
) -> Option<&Dictionary> {
    base.edge_prop_read(label, dir, prop).ok().and_then(|read| read.column().dictionary())
}

const DIRS: [Direction; 2] = [Direction::Fwd, Direction::Bwd];

impl DeltaStore {
    /// The empty delta over `base`, with each string property's extension
    /// codes starting after its baseline dictionary.
    pub fn new(base: &ColumnarGraph) -> DeltaStore {
        let catalog = base.catalog();
        let dict_len = |dict: Option<&Dictionary>| dict.map_or(0, Dictionary::len);
        let v = (0..catalog.vertex_label_count() as LabelId)
            .map(|l| {
                let n_props = catalog.vertex_label(l).properties.len();
                let exts = (0..n_props).map(|p| StrExt::new(dict_len(vertex_dict(base, l, p))));
                Arc::new(VertexDelta { exts: exts.collect(), ..VertexDelta::default() })
            })
            .collect();
        let e = (0..catalog.edge_label_count() as LabelId)
            .map(|l| {
                let n_props = catalog.edge_label(l).properties.len();
                let exts = (0..n_props)
                    .map(|p| DIRS.map(|dir| StrExt::new(dict_len(edge_dict(base, l, dir, p)))));
                Arc::new(EdgeDelta { exts: exts.collect(), ..EdgeDelta::default() })
            })
            .collect();
        DeltaStore { v, e }
    }

    /// True when no mutation is visible: no live delta row or edge, no
    /// override, no tombstone. Every view helper is then the identity and
    /// engines take their unmodified fast paths. (Vacated slots and
    /// deleted delta edges are invisible, so they do not count.)
    pub fn is_empty(&self) -> bool {
        self.v.iter().all(|v| {
            v.rows.len() == v.recycler.gaps() && v.updates.is_empty() && v.tombs.is_empty()
        }) && self.e.iter().all(|e| e.from[0].is_empty() && e.tombs.is_empty())
    }

    /// Buffered entries — a merge-policy signal. Zero exactly when no op
    /// has been applied: nothing an op adds ever leaves before a merge
    /// (a slot stays when vacated, a deleted edge keeps its index, an
    /// override dropped by a delete is replaced by its tombstone).
    pub fn mutation_count(&self) -> usize {
        self.v.iter().map(|v| v.rows.len() + v.updates.len() + v.tombs.len()).sum::<usize>()
            + self.e.iter().map(|e| e.rows.len() + e.tomb_count).sum::<usize>()
    }

    // ---- effective-state queries (writer side) -----------------------------

    /// Is the vertex at global offset `off` visible?
    pub fn vertex_live(&self, base: &ColumnarGraph, label: LabelId, off: u64) -> bool {
        GraphView::new(base, Some(self)).vertex_live(label, off)
    }

    /// Effective primary-key lookup: delta rows shadow nothing (pk is
    /// unique), tombstoned baseline rows are invisible.
    pub fn lookup_pk(&self, base: &ColumnarGraph, label: LabelId, key: i64) -> Option<u64> {
        GraphView::new(base, Some(self)).lookup_pk(label, key)
    }

    /// The global offset the next `InsertVertex { label, .. }` will land
    /// on (recycled gap or fresh slot), without allocating it.
    pub fn peek_insert_offset(&self, base: &ColumnarGraph, label: LabelId) -> u64 {
        base.vertex_count(label) as u64 + self.v[label as usize].recycler.peek()
    }

    /// Resolve "delete the first live `(src, dst)` edge" to a stable
    /// [`EdgeTarget`]: baseline occurrences in list order first, then delta
    /// edges in insertion order.
    pub fn resolve_delete_edge(
        &self,
        base: &ColumnarGraph,
        label: LabelId,
        src: u64,
        dst: u64,
    ) -> Result<EdgeTarget> {
        let n_base = base.vertex_count(base.catalog().edge_label(label).src) as u64;
        if src < n_base {
            let n_occ = base_occurrences(base, label, src, dst);
            if let Some(occ) = (0..n_occ).find(|&occ| !self.edge_tombed(label, src, dst, occ)) {
                return Ok(EdgeTarget::Base { src, dst, occ });
            }
        }
        // The per-endpoint index lists live edges in insertion order, so
        // the first `dst` match is the oldest live delta edge, found at
        // O(out-degree) cost.
        for &idx in self.delta_edges_from(label, Direction::Fwd, src) {
            if self.delta_edge(label, idx).dst == dst {
                return Ok(EdgeTarget::Delta { idx });
            }
        }
        Err(Error::Invalid(format!(
            "no live edge {} from offset {src} to {dst}",
            base.catalog().edge_label(label).name
        )))
    }

    // ---- the single mutation gate ------------------------------------------

    /// Validate and apply one resolved op. This is the only way state enters
    /// the store — the writer's transaction and WAL replay both call it, so
    /// a committed log replays to exactly the state that was published. A
    /// rejected op changes nothing.
    pub fn apply(&mut self, base: &ColumnarGraph, op: &ResolvedOp) -> Result<()> {
        match op {
            ResolvedOp::InsertVertex { label, row } => self.insert_vertex(base, *label, row),
            ResolvedOp::UpdateVertex { label, off, row } => {
                self.update_vertex(base, *label, *off, row)
            }
            ResolvedOp::DeleteVertex { label, off } => self.delete_vertex(base, *label, *off),
            ResolvedOp::InsertEdge { label, src, dst, props } => {
                self.insert_edge(base, *label, *src, *dst, props)
            }
            ResolvedOp::DeleteEdge { label, target } => self.delete_edge(base, *label, *target),
        }
    }

    fn check_vlabel(&self, base: &ColumnarGraph, label: LabelId) -> Result<()> {
        if (label as usize) < base.catalog().vertex_label_count() {
            Ok(())
        } else {
            Err(Error::Storage(format!("vertex label id {label} out of range")))
        }
    }

    fn check_elabel(&self, base: &ColumnarGraph, label: LabelId) -> Result<()> {
        if (label as usize) < base.catalog().edge_label_count() {
            Ok(())
        } else {
            Err(Error::Storage(format!("edge label id {label} out of range")))
        }
    }

    /// The writable part of vertex label `label` (copied if shared).
    fn vertex_mut(&mut self, label: LabelId) -> &mut VertexDelta {
        Arc::make_mut(&mut self.v[label as usize])
    }

    /// The writable part of edge label `label` (copied if shared).
    fn edge_mut(&mut self, label: LabelId) -> &mut EdgeDelta {
        Arc::make_mut(&mut self.e[label as usize])
    }

    fn insert_vertex(&mut self, base: &ColumnarGraph, label: LabelId, row: &[Value]) -> Result<()> {
        self.check_vlabel(base, label)?;
        let def = base.catalog().vertex_label(label);
        let row = normalize_row(&def.name, &def.properties, row)?;
        let key = match def.primary_key {
            Some(pidx) => {
                let key = row[pidx].as_i64().ok_or_else(|| {
                    Error::Invalid(format!(
                        "vertex label {} requires a non-null Int64 pk",
                        def.name
                    ))
                })?;
                if self.lookup_pk(base, label, key).is_some() {
                    return Err(Error::Invalid(format!(
                        "duplicate primary key {key} on {}",
                        def.name
                    )));
                }
                Some(key)
            }
            None => None,
        };
        let n_base = base.vertex_count(label) as u64;
        let v = self.vertex_mut(label);
        let slot = v.recycler.allocate();
        if let Some(key) = key {
            v.pk.insert(key, n_base + slot);
        }
        intern_vertex_strings(&mut v.exts, base, label, &row);
        // The recycler hands out a vacated slot below its high-water mark,
        // which equals rows.len(), or the next fresh one.
        let slot = slot as usize;
        if slot < v.rows.len() {
            v.rows.set(slot, Some(row));
        } else {
            v.rows.push(Some(row));
        }
        Ok(())
    }

    fn update_vertex(
        &mut self,
        base: &ColumnarGraph,
        label: LabelId,
        off: u64,
        row: &[Value],
    ) -> Result<()> {
        self.check_vlabel(base, label)?;
        if !self.vertex_live(base, label, off) {
            return Err(Error::Invalid(format!("update of a dead vertex at offset {off}")));
        }
        let def = base.catalog().vertex_label(label);
        let row = normalize_row(&def.name, &def.properties, row)?;
        if let Some(pidx) = def.primary_key {
            let view = GraphView::new(base, Some(&*self));
            let old = view.vertex_value(&mut PageCursor::new(), label, off, pidx);
            if old != row[pidx] {
                return Err(Error::Invalid(format!(
                    "primary key of {} is immutable (delete and re-insert instead)",
                    def.name
                )));
            }
        }
        let n_base = base.vertex_count(label) as u64;
        let v = self.vertex_mut(label);
        intern_vertex_strings(&mut v.exts, base, label, &row);
        if off < n_base {
            if v.updates.insert(off, row).is_none() {
                v.touch_block(off);
            }
        } else {
            v.rows.set((off - n_base) as usize, Some(row));
        }
        Ok(())
    }

    fn delete_vertex(&mut self, base: &ColumnarGraph, label: LabelId, off: u64) -> Result<()> {
        self.check_vlabel(base, label)?;
        if !self.vertex_live(base, label, off) {
            return Err(Error::Invalid(format!("delete of a dead vertex at offset {off}")));
        }
        let catalog = base.catalog();
        // Cascade: every live edge incident to the vertex dies with it.
        // Delta edges come from the per-endpoint index, so the cascade
        // pays for incident edges only, never the whole delta.
        for elabel in 0..catalog.edge_label_count() as LabelId {
            let def = catalog.edge_label(elabel);
            if def.src == label {
                self.tomb_base_side(base, elabel, Direction::Fwd, off);
                self.drop_delta_side(elabel, 0, off);
            }
            if def.dst == label {
                self.tomb_base_side(base, elabel, Direction::Bwd, off);
                self.drop_delta_side(elabel, 1, off);
            }
        }
        let key = catalog.vertex_label(label).primary_key.and_then(|pidx| {
            GraphView::new(base, Some(&*self))
                .vertex_value(&mut PageCursor::new(), label, off, pidx)
                .as_i64()
        });
        let n_base = base.vertex_count(label) as u64;
        let v = self.vertex_mut(label);
        if let Some(key) = key {
            v.pk.remove(&key);
        }
        if off < n_base {
            // An override gives way to the tombstone: the offset stays
            // touched either way.
            if v.updates.remove(&off).is_none() {
                v.touch_block(off);
            }
            v.tombs.insert(off, ());
        } else {
            let slot = off - n_base;
            v.rows.set(slot as usize, None);
            v.recycler.release(slot);
        }
        Ok(())
    }

    /// Delete every live delta edge whose side-`d` endpoint (0 = src,
    /// 1 = dst) is `v`, keeping both directions of the endpoint index
    /// consistent.
    fn drop_delta_side(&mut self, elabel: LabelId, d: usize, v: u64) {
        let Some(idxs) = self.e[elabel as usize].from[d].get(&v).cloned() else {
            return;
        };
        let e = self.edge_mut(elabel);
        e.from[d].remove(&v);
        for &idx in idxs.iter() {
            let edge = &e.rows[idx as usize];
            let other_v = if d == 0 { edge.dst } else { edge.src };
            let dead = DeltaEdge { deleted: true, ..edge.clone() };
            e.rows.set(idx as usize, dead);
            e.unlink(1 - d, other_v, idx);
        }
    }

    /// Tombstone every baseline edge of `elabel` whose `dir`-side endpoint
    /// is the baseline vertex `v` (no-op for delta vertices, which have no
    /// baseline edges).
    fn tomb_base_side(&mut self, base: &ColumnarGraph, elabel: LabelId, dir: Direction, v: u64) {
        let from_label = base.catalog().edge_label(elabel).from_label(dir);
        if v >= base.vertex_count(from_label) as u64 {
            return;
        }
        let mut seen: HashMap<u64, u32> = HashMap::new();
        let tomb = |nbr: u64| {
            let occ = seen.entry(nbr).or_insert(0);
            let (src, dst) = if dir == Direction::Fwd { (v, nbr) } else { (nbr, v) };
            self.tomb_base_edge(elabel, src, dst, *occ);
            *occ += 1;
        };
        for_each_base_nbr(base, elabel, dir, v, tomb);
    }

    /// Tombstone the baseline edge `(src, dst, occ)`; `false` when it
    /// already was.
    fn tomb_base_edge(&mut self, elabel: LabelId, src: u64, dst: u64, occ: u32) -> bool {
        let occs: Arc<[u32]> = match self.e[elabel as usize].tombs.get(&(src, dst)) {
            Some(occs) if occs.contains(&occ) => return false,
            Some(occs) => occs.iter().copied().chain([occ]).collect(),
            None => Arc::new([occ]),
        };
        let e = self.edge_mut(elabel);
        e.tombs.insert((src, dst), occs);
        e.tomb_count += 1;
        for (ends, v) in e.tomb_ends.iter_mut().zip([src, dst]) {
            count_in(ends, v);
        }
        true
    }

    fn insert_edge(
        &mut self,
        base: &ColumnarGraph,
        label: LabelId,
        src: u64,
        dst: u64,
        props: &[Value],
    ) -> Result<()> {
        self.check_elabel(base, label)?;
        let def = base.catalog().edge_label(label);
        let props = normalize_row(&def.name, &def.properties, props)?;
        let (slabel, dlabel) = (def.src, def.dst);
        if !self.vertex_live(base, slabel, src) {
            return Err(Error::Invalid(format!("edge source offset {src} is not a live vertex")));
        }
        if !self.vertex_live(base, dlabel, dst) {
            return Err(Error::Invalid(format!(
                "edge destination offset {dst} is not a live vertex"
            )));
        }
        // Cardinality constraints stay invariants of the merged view: a
        // single-cardinality endpoint must not already have a live edge.
        let card = def.cardinality;
        for (dir, v) in [(Direction::Fwd, src), (Direction::Bwd, dst)] {
            if card.is_single(dir) && self.effective_degree_nonzero(base, label, dir, v) {
                return Err(Error::Invalid(format!(
                    "cardinality violation: {} already has a live {} edge in direction {dir}",
                    v, def.name
                )));
            }
        }
        let e = self.edge_mut(label);
        let idx = e.rows.len() as u64;
        intern_edge_strings(&mut e.exts, base, label, &props);
        e.rows.push(DeltaEdge { src, dst, props, deleted: false });
        e.link(0, src, idx);
        e.link(1, dst, idx);
        Ok(())
    }

    /// Does the (live) vertex `v` have at least one live `(elabel, dir)`
    /// edge in the merged view?
    fn effective_degree_nonzero(
        &self,
        base: &ColumnarGraph,
        elabel: LabelId,
        dir: Direction,
        v: u64,
    ) -> bool {
        // The endpoint index holds only live edges and no empty lists, so
        // key presence alone answers the delta side in O(1).
        if self.e[elabel as usize].from[dir_idx(dir)].contains_key(&v) {
            return true;
        }
        let from_label = base.catalog().edge_label(elabel).from_label(dir);
        if v >= base.vertex_count(from_label) as u64 {
            return false;
        }
        let mut seen: HashMap<u64, u32> = HashMap::new();
        let mut check = |nbr: u64| -> bool {
            let occ = seen.entry(nbr).or_insert(0);
            let (src, dst) = if dir == Direction::Fwd { (v, nbr) } else { (nbr, v) };
            let alive = !self.edge_tombed(elabel, src, dst, *occ);
            *occ += 1;
            alive
        };
        let mut alive = false;
        for_each_base_nbr(base, elabel, dir, v, |nbr| alive |= check(nbr));
        alive
    }

    fn delete_edge(
        &mut self,
        base: &ColumnarGraph,
        label: LabelId,
        target: EdgeTarget,
    ) -> Result<()> {
        self.check_elabel(base, label)?;
        match target {
            EdgeTarget::Base { src, dst, occ } => {
                if occ >= base_occurrences(base, label, src, dst) {
                    return Err(Error::Invalid(format!(
                        "no baseline edge ({src} -> {dst}, occurrence {occ})"
                    )));
                }
                if !self.tomb_base_edge(label, src, dst, occ) {
                    return Err(Error::Invalid(format!(
                        "baseline edge ({src} -> {dst}, occurrence {occ}) already deleted"
                    )));
                }
            }
            EdgeTarget::Delta { idx } => {
                let edge = self.e[label as usize]
                    .rows
                    .get(idx as usize)
                    .filter(|e| !e.deleted)
                    .ok_or_else(|| Error::Invalid(format!("no live delta edge at index {idx}")))?;
                let (src, dst) = (edge.src, edge.dst);
                let dead = DeltaEdge { deleted: true, ..edge.clone() };
                let e = self.edge_mut(label);
                e.rows.set(idx as usize, dead);
                e.unlink(0, src, idx);
                e.unlink(1, dst, idx);
            }
        }
        Ok(())
    }

    // ---- vertices (reader side) --------------------------------------------

    /// Number of delta vertex slots (live or vacated) for `label`; the scan
    /// range extends to `n_base + delta_slots(label)`.
    pub fn delta_slots(&self, label: LabelId) -> u64 {
        self.v.get(label as usize).map_or(0, |v| v.rows.len() as u64)
    }

    /// The delta row at `slot`, if live.
    pub fn delta_row(&self, label: LabelId, slot: u64) -> Option<&[Value]> {
        self.v.get(label as usize)?.rows.get(slot as usize)?.as_deref()
    }

    /// The full post-image row overriding baseline offset `off`, if any.
    pub fn updated_row(&self, label: LabelId, off: u64) -> Option<&[Value]> {
        self.v.get(label as usize)?.updates.get(&off).map(|r| &r[..])
    }

    /// Is the baseline offset `off` tombstoned?
    pub fn vertex_tombed(&self, label: LabelId, off: u64) -> bool {
        self.v.get(label as usize).is_some_and(|v| v.tombs.contains_key(&off))
    }

    /// Does `label` carry any vertex-side mutation (rows, updates, tombs)?
    pub fn vertex_label_touched(&self, label: LabelId) -> bool {
        self.v
            .get(label as usize)
            .is_some_and(|v| !v.rows.is_empty() || !v.updates.is_empty() || !v.tombs.is_empty())
    }

    /// Does folding this delta into a baseline of `n_base` `label` vertices
    /// move a vertex offset: change the label's vertex count, or renumber
    /// a surviving baseline vertex (a tombstone below a survivor)? Either
    /// changes what every adjacency list naming the label's vertices holds.
    pub(crate) fn merge_moves_offsets(&self, label: LabelId, n_base: u64) -> bool {
        let Some(v) = self.v.get(label as usize) else { return false };
        let tombs = v.tombs.len() as u64;
        let live_rows = (v.rows.len() - v.recycler.gaps()) as u64;
        // Survivors keep their offsets exactly when the tombstones are the
        // top `tombs` offsets.
        live_rows != tombs || (n_base - tombs..n_base).any(|off| !v.tombs.contains_key(&off))
    }

    /// May tombstoned/overridden baseline offsets fall in `[start, end)`?
    /// Answered per `ZONE_BLOCK`, one probe per block the range spans:
    /// exact for a range inside one block and covering the block's part of
    /// the range a scan asks about, conservative (`true` when the block
    /// has a touched offset anywhere) for a narrower one.
    pub fn base_range_touched(&self, label: LabelId, start: u64, end: u64) -> bool {
        let Some(v) = self.v.get(label as usize) else { return false };
        if start >= end || v.touched_blocks.is_empty() {
            return false;
        }
        let zb = ZONE_BLOCK as u64;
        (start / zb..=(end - 1) / zb).any(|block| v.touched_blocks.contains_key(&block))
    }

    /// Primary-key lookup against the delta only (`None` = ask the base,
    /// then reject tombstoned hits).
    pub fn pk_delta(&self, label: LabelId, key: i64) -> Option<u64> {
        self.v.get(label as usize)?.pk.get(&key).copied()
    }

    /// Extension dictionary of a string vertex property.
    pub fn vertex_str_ext(&self, label: LabelId, prop: usize) -> Option<&StrExt> {
        self.v.get(label as usize)?.exts.get(prop).filter(|e| !e.is_empty())
    }

    // ---- edges (reader side) -----------------------------------------------

    /// Is the baseline edge `(src, dst, occ)` tombstoned?
    pub fn edge_tombed(&self, label: LabelId, src: u64, dst: u64, occ: u32) -> bool {
        self.e
            .get(label as usize)
            .and_then(|e| e.tombs.get(&(src, dst)))
            .is_some_and(|occs| occs.contains(&occ))
    }

    /// Does the adjacency list of `from` in `(label, dir)` differ from the
    /// baseline: does it hold a live delta edge or a tombstoned baseline
    /// edge?
    pub fn edge_list_dirty(&self, label: LabelId, dir: Direction, from: u64) -> bool {
        let d = dir_idx(dir);
        self.e
            .get(label as usize)
            .is_some_and(|e| e.from[d].contains_key(&from) || e.tomb_ends[d].contains_key(&from))
    }

    /// Does `(label, dir)` carry any edge mutation at all? (`false` keeps
    /// the whole zero-copy extend path.)
    pub fn edge_label_touched(&self, label: LabelId, dir: Direction) -> bool {
        let d = dir_idx(dir);
        self.e
            .get(label as usize)
            .is_some_and(|e| !e.from[d].is_empty() || !e.tomb_ends[d].is_empty())
    }

    /// Live delta edge indices whose `dir`-side endpoint is `from`.
    pub fn delta_edges_from(&self, label: LabelId, dir: Direction, from: u64) -> &[u64] {
        self.e
            .get(label as usize)
            .and_then(|e| e.from[dir_idx(dir)].get(&from))
            .map_or(&[], |v| &v[..])
    }

    /// The delta edge at `idx` (deleted edges keep their slot).
    pub fn delta_edge(&self, label: LabelId, idx: u64) -> &DeltaEdge {
        &self.e[label as usize].rows[idx as usize]
    }

    /// Total delta edge slots for `label`.
    pub fn delta_edge_count(&self, label: LabelId) -> u64 {
        self.e.get(label as usize).map_or(0, |e| e.rows.len() as u64)
    }

    /// Extension dictionary of a string edge property for one traversal
    /// direction.
    pub fn edge_str_ext(&self, label: LabelId, dir: Direction, prop: usize) -> Option<&StrExt> {
        self.e
            .get(label as usize)?
            .exts
            .get(prop)
            .map(|pair| &pair[dir_idx(dir)])
            .filter(|e| !e.is_empty())
    }
}

/// Give each string of a vertex row that its baseline dictionary lacks an
/// extension code (strings already coded keep theirs).
fn intern_vertex_strings(exts: &mut [StrExt], base: &ColumnarGraph, label: LabelId, row: &[Value]) {
    for (p, (ext, v)) in exts.iter_mut().zip(row).enumerate() {
        if let Value::String(s) = v {
            if vertex_dict(base, label, p).and_then(|d| d.code_of(s)).is_none() {
                ext.intern(s);
            }
        }
    }
}

/// [`intern_vertex_strings`] for an edge row, per traversal direction.
fn intern_edge_strings(
    exts: &mut [[StrExt; 2]],
    base: &ColumnarGraph,
    label: LabelId,
    props: &[Value],
) {
    for (p, (pair, v)) in exts.iter_mut().zip(props).enumerate() {
        if let Value::String(s) = v {
            for (ext, dir) in pair.iter_mut().zip(DIRS) {
                if edge_dict(base, label, dir, p).and_then(|d| d.code_of(s)).is_none() {
                    ext.intern(s);
                }
            }
        }
    }
}

/// Count of `(src, dst)` duplicates in the baseline adjacency of `label`.
fn base_occurrences(base: &ColumnarGraph, label: LabelId, src: u64, dst: u64) -> u32 {
    let slabel = base.catalog().edge_label(label).src;
    if src >= base.vertex_count(slabel) as u64 {
        return 0;
    }
    let mut n = 0;
    for_each_base_nbr(base, label, Direction::Fwd, src, |nbr| n += u32::from(nbr == dst));
    n
}

/// Visit the neighbours in the baseline `(elabel, dir)` list of the
/// baseline vertex `v`, in list order, through one local cursor bundle.
fn for_each_base_nbr(
    base: &ColumnarGraph,
    elabel: LabelId,
    dir: Direction,
    v: u64,
    mut f: impl FnMut(u64),
) {
    let (start, len) = base.adj_range(elabel, dir, v);
    let mut cur = ReadCursors::default();
    base.for_each_adj_entry(&mut cur, elabel, dir, start, len, |nbr, _| f(nbr));
}

/// Normalize and validate a property row against its label's schema:
/// right arity, right types (`Int64` literals coerce to `Date` columns),
/// NULLs allowed everywhere except where a later constraint (pk) rejects
/// them.
fn normalize_row(
    label_name: &str,
    defs: &[crate::catalog::PropertyDef],
    row: &[Value],
) -> Result<Row> {
    use gfcl_common::DataType;
    if row.len() != defs.len() {
        return Err(Error::Invalid(format!(
            "property row for {label_name} has {} values, schema has {}",
            row.len(),
            defs.len()
        )));
    }
    let mut out = Vec::with_capacity(row.len());
    for (v, d) in row.iter().zip(defs) {
        let v = match (d.dtype, v) {
            (_, Value::Null) => Value::Null,
            (DataType::Int64, Value::Int64(x)) => Value::Int64(*x),
            (DataType::Date, Value::Date(x)) | (DataType::Date, Value::Int64(x)) => Value::Date(*x),
            (DataType::Float64, Value::Float64(x)) => Value::Float64(*x),
            (DataType::Float64, Value::Int64(x)) => Value::Float64(*x as f64),
            (DataType::Bool, Value::Bool(x)) => Value::Bool(*x),
            (DataType::String, Value::String(s)) => Value::String(s.clone()),
            (dt, v) => {
                return Err(Error::TypeMismatch {
                    expected: dt.to_string(),
                    found: format!("{v:?} for {label_name}.{}", d.name),
                })
            }
        };
        out.push(v);
    }
    Ok(out.into())
}

/// Extension dictionary for one string property: codes continue after the
/// baseline dictionary (`code = base_len + idx`), so a chunk's code vector
/// can mix baseline and delta rows and still decode unambiguously.
/// Append-only: a string keeps its one code until the next merge, whether
/// or not a live row still holds it.
#[derive(Debug, Clone, Default)]
pub struct StrExt {
    base_len: u64,
    strs: PVec<Arc<str>>,
    codes: PMap<Arc<str>, u64>,
}

impl StrExt {
    pub fn new(base_len: usize) -> StrExt {
        StrExt { base_len: base_len as u64, strs: PVec::new(), codes: PMap::new() }
    }

    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&c) = self.codes.get(s) {
            return c;
        }
        let code = self.code_end();
        let s: Arc<str> = Arc::from(s);
        self.strs.push(Arc::clone(&s));
        self.codes.insert(s, code);
        code
    }

    /// Full code of `s` if it is an extension string.
    pub fn code_of(&self, s: &str) -> Option<u64> {
        self.codes.get(s).copied()
    }

    /// Decode a full code `>= base_len()`.
    pub fn decode(&self, code: u64) -> &str {
        let ext_idx = (code - self.base_len) as usize;
        &self.strs[ext_idx]
    }

    /// First extension code (== the baseline dictionary's length).
    pub fn base_len(&self) -> u64 {
        self.base_len
    }

    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// Total code-space size (`base_len + extension entries`).
    pub fn code_end(&self) -> u64 {
        self.base_len + self.strs.len() as u64
    }

    /// Iterate `(full code, string)` over the extension entries.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str)> {
        self.strs.iter().enumerate().map(|(i, s)| (self.base_len + i as u64, &**s))
    }
}

fn dir_idx(dir: Direction) -> usize {
    match dir {
        Direction::Fwd => 0,
        Direction::Bwd => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar_graph::AdjIndex;
    use crate::config::StorageConfig;
    use crate::raw::RawGraph;

    /// The example graph with `PERSON.age` promoted to a primary key (the
    /// example ages 45/54/17/23 are unique Int64s).
    fn example() -> ColumnarGraph {
        let mut raw = RawGraph::example();
        raw.catalog.set_primary_key(0, "age").unwrap();
        ColumnarGraph::build(&raw, StorageConfig::default()).unwrap()
    }

    // PERSON schema: name (String), age (Int64, pk), gender (String).
    fn person_row(name: &str, age: i64, gender: &str) -> Vec<Value> {
        vec![Value::String(name.into()), Value::Int64(age), Value::String(gender.into())]
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let g = example();
        let person = g.catalog().vertex_label_id("PERSON").unwrap();
        let mut d = DeltaStore::new(&g);
        assert!(d.is_empty());

        d.apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("zoe", 31, "F") })
            .unwrap();
        let off = g.vertex_count(person) as u64;
        assert!(d.vertex_live(&g, person, off));
        assert_eq!(d.lookup_pk(&g, person, 31), Some(off));
        assert_eq!(
            GraphView::new(&g, Some(&d)).vertex_value(&mut PageCursor::new(), person, off, 0),
            Value::String("zoe".into())
        );

        d.apply(
            &g,
            &ResolvedOp::UpdateVertex { label: person, off, row: person_row("zoey", 31, "F") },
        )
        .unwrap();
        assert_eq!(
            GraphView::new(&g, Some(&d)).vertex_value(&mut PageCursor::new(), person, off, 0),
            Value::String("zoey".into())
        );

        d.apply(&g, &ResolvedOp::DeleteVertex { label: person, off }).unwrap();
        assert!(!d.vertex_live(&g, person, off));
        assert_eq!(d.lookup_pk(&g, person, 31), None);
        assert!(d.is_empty(), "insert+delete cancels out");
        assert_eq!(d.mutation_count(), 1, "but the vacated slot is still an entry");

        // The vacated slot is recycled by the next insert.
        d.apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("yan", 20, "M") })
            .unwrap();
        assert!(d.vertex_live(&g, person, off));
    }

    #[test]
    fn pk_constraints_enforced() {
        let g = example();
        let person = g.catalog().vertex_label_id("PERSON").unwrap();
        let mut d = DeltaStore::new(&g);
        // Duplicate against the baseline (alice has age 45).
        let err = d
            .apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("dup", 45, "F") })
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // Updates must not change the pk.
        d.apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("ok", 50, "M") })
            .unwrap();
        let off = g.vertex_count(person) as u64;
        let err = d
            .apply(
                &g,
                &ResolvedOp::UpdateVertex { label: person, off, row: person_row("ok", 51, "M") },
            )
            .unwrap_err();
        assert!(err.to_string().contains("immutable"), "{err}");
        // A baseline pk reads through; tombstoning frees it for re-use.
        assert_eq!(d.lookup_pk(&g, person, 45), Some(0));
        d.apply(&g, &ResolvedOp::DeleteVertex { label: person, off: 0 }).unwrap();
        assert_eq!(d.lookup_pk(&g, person, 45), None);
        d.apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("re", 45, "F") })
            .unwrap();
        assert!(d.lookup_pk(&g, person, 45).is_some());
    }

    #[test]
    fn vertex_delete_cascades_to_edges() {
        let g = example();
        let person = g.catalog().vertex_label_id("PERSON").unwrap();
        let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
        let mut d = DeltaStore::new(&g);
        // Vertex 0 has baseline FOLLOWS edges in both directions.
        d.apply(&g, &ResolvedOp::DeleteVertex { label: person, off: 0 }).unwrap();
        assert!(d.vertex_tombed(person, 0));
        assert!(d.edge_label_touched(follows, Direction::Fwd));
        assert!(d.base_range_touched(person, 0, 1));
        assert!(!d.base_range_touched(person, ZONE_BLOCK as u64, 2 * ZONE_BLOCK as u64));
        // Every baseline FOLLOWS edge out of 0 is tombstoned, and both of
        // its endpoints' lists are dirty.
        if let AdjIndex::Csr(csr) = g.adj(follows, Direction::Fwd) {
            let mut seen: HashMap<u64, u32> = HashMap::new();
            for (_, nbr) in csr.iter_list(0) {
                let occ = seen.entry(nbr).or_insert(0);
                assert!(d.edge_tombed(follows, 0, nbr, *occ));
                assert!(d.edge_list_dirty(follows, Direction::Bwd, nbr));
                *occ += 1;
            }
        }
        assert!(d.edge_list_dirty(follows, Direction::Fwd, 0));
    }

    #[test]
    fn cardinality_violation_rejected() {
        let g = example();
        let workat = g.catalog().edge_label_id("WORKAT").unwrap();
        // Vertex 0 already works somewhere (n-1 label): a second WORKAT
        // edge from it must be rejected.
        let mut d = DeltaStore::new(&g);
        let err = d
            .apply(
                &g,
                &ResolvedOp::InsertEdge { label: workat, src: 0, dst: 0, props: vec![Value::Null] },
            )
            .unwrap_err();
        assert!(err.to_string().contains("cardinality"), "{err}");
    }

    #[test]
    fn delete_edge_resolution_prefers_base_occurrences() {
        let g = example();
        let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
        let mut d = DeltaStore::new(&g);
        // Find one baseline FOLLOWS edge.
        let AdjIndex::Csr(csr) = g.adj(follows, Direction::Fwd) else { panic!() };
        let (src, dst) = (0u64, csr.iter_list(0).next().unwrap().1);
        let t = d.resolve_delete_edge(&g, follows, src, dst).unwrap();
        assert!(matches!(t, EdgeTarget::Base { occ: 0, .. }));
        d.apply(&g, &ResolvedOp::DeleteEdge { label: follows, target: t }).unwrap();
        // Deleting again resolves past the tombstone (to a dup occurrence
        // or a delta edge) or fails cleanly.
        match d.resolve_delete_edge(&g, follows, src, dst) {
            Ok(EdgeTarget::Base { occ, .. }) => assert!(occ > 0),
            Ok(EdgeTarget::Delta { .. }) => panic!("no delta edges inserted"),
            Err(e) => assert!(e.to_string().contains("no live edge"), "{e}"),
        }
    }

    #[test]
    fn endpoint_index_tracks_inserts_deletes_and_cascades() {
        let g = example();
        let person = g.catalog().vertex_label_id("PERSON").unwrap();
        let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
        let mut d = DeltaStore::new(&g);
        let n = g.vertex_count(person) as u64;
        d.apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("zoe", 31, "F") })
            .unwrap();
        d.apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("yan", 20, "M") })
            .unwrap();
        // Delta edges: n -> 0 (idx 0), n -> n+1 (idx 1), 0 -> n (idx 2).
        for (src, dst) in [(n, 0), (n, n + 1), (0, n)] {
            d.apply(
                &g,
                &ResolvedOp::InsertEdge {
                    label: follows,
                    src,
                    dst,
                    props: vec![Value::Int64(2024)],
                },
            )
            .unwrap();
        }
        let snap = d.clone();
        assert_eq!(snap.delta_edges_from(follows, Direction::Fwd, n), &[0, 1]);
        assert_eq!(snap.delta_edges_from(follows, Direction::Bwd, n), &[2]);
        assert_eq!(snap.delta_edges_from(follows, Direction::Bwd, 0), &[0]);

        // Deleting a delta edge drops it from both directions.
        d.apply(
            &g,
            &ResolvedOp::DeleteEdge { label: follows, target: EdgeTarget::Delta { idx: 0 } },
        )
        .unwrap();
        assert_eq!(d.delta_edges_from(follows, Direction::Fwd, n), &[1]);
        assert!(d.delta_edges_from(follows, Direction::Bwd, 0).is_empty());
        // ... and leaves the clone taken before it untouched.
        assert_eq!(snap.delta_edges_from(follows, Direction::Bwd, 0), &[0]);
        assert!(!snap.delta_edge(follows, 0).deleted);

        // Resolution walks the index: the only live 0 -> n edge is idx 2.
        assert_eq!(d.resolve_delete_edge(&g, follows, 0, n).unwrap(), EdgeTarget::Delta { idx: 2 });

        // A vertex-delete cascade clears every incident delta edge.
        d.apply(&g, &ResolvedOp::DeleteVertex { label: person, off: n }).unwrap();
        assert!(d.delta_edges_from(follows, Direction::Fwd, n).is_empty());
        assert!(d.delta_edges_from(follows, Direction::Bwd, n).is_empty());
        assert!(d.delta_edges_from(follows, Direction::Bwd, n + 1).is_empty());
        assert!(d.delta_edge(follows, 1).deleted);
        assert!(d.delta_edge(follows, 2).deleted);
    }

    #[test]
    fn resolved_op_codec_roundtrip() {
        let ops = vec![
            ResolvedOp::InsertVertex {
                label: 1,
                row: vec![Value::Null, Value::String("x".into()), Value::Float64(0.5)],
            },
            ResolvedOp::UpdateVertex { label: 0, off: 7, row: vec![Value::Date(123)] },
            ResolvedOp::DeleteVertex { label: 2, off: 0 },
            ResolvedOp::InsertEdge { label: 0, src: 3, dst: 9, props: vec![Value::Bool(true)] },
            ResolvedOp::DeleteEdge {
                label: 1,
                target: EdgeTarget::Base { src: 1, dst: 2, occ: 3 },
            },
            ResolvedOp::DeleteEdge { label: 1, target: EdgeTarget::Delta { idx: 4 } },
        ];
        let mut w = Writer::new();
        for op in &ops {
            op.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for op in &ops {
            assert_eq!(&ResolvedOp::decode(&mut r).unwrap(), op);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn snapshot_str_ext_extends_dictionary() {
        let g = example();
        let person = g.catalog().vertex_label_id("PERSON").unwrap();
        let mut d = DeltaStore::new(&g);
        d.apply(
            &g,
            &ResolvedOp::InsertVertex { label: person, row: person_row("zaphod", 42, "M") },
        )
        .unwrap();
        // "zaphod" is not a baseline name: it gets an extension code after
        // the baseline dictionary.
        let ext = d.vertex_str_ext(person, 0).expect("name ext").clone();
        let dict_len = g.vertex_prop(person, 0).dictionary().unwrap().len() as u64;
        let code = ext.code_of("zaphod").unwrap();
        assert!(code >= dict_len);
        assert_eq!(ext.decode(code), "zaphod");
        // "M" IS a baseline gender: no extension entry for it.
        assert!(d.vertex_str_ext(person, 2).is_none());
        // The code outlives the row until the next merge, and a new string
        // takes the next one.
        let off = g.vertex_count(person) as u64;
        d.apply(&g, &ResolvedOp::DeleteVertex { label: person, off }).unwrap();
        d.apply(&g, &ResolvedOp::InsertVertex { label: person, row: person_row("ford", 43, "M") })
            .unwrap();
        let now = d.vertex_str_ext(person, 0).unwrap();
        assert_eq!(now.code_of("zaphod"), Some(code));
        assert_eq!(now.code_of("ford"), Some(code + 1));
        assert_eq!(ext.code_of("ford"), None, "the earlier clone did not change");
    }
}
