//! [`RowGraph`]: the GF-RV storage substrate the paper starts from.
//!
//! This models GraphflowDB's original row-oriented layout (Section 8):
//!
//! * vertex and edge properties in the **interpreted attribute layout**
//!   [Beckmann et al.]: each record is a list of `(property key, value)`
//!   entries, so keys are stored explicitly per record and property reads
//!   scan the record comparing keys;
//! * 8-byte global vertex and edge IDs;
//! * adjacency lists in per-label CSRs whose entries are uncompressed
//!   `(edge ID, neighbour ID)` pairs — 16 bytes per edge per direction;
//! * a property **pointer per edge**, even for labels with no properties —
//!   the overhead the paper calls out when motivating `+COLS`.

use std::collections::HashMap;

use gfcl_columnar::PageCursor;
use gfcl_common::{Direction, Error, LabelId, MemoryUsage, Result, Value};

use crate::catalog::Catalog;
use crate::columnar_graph::ReadCursors;
use crate::raw::RawGraph;
use crate::store::BaselineRead;

/// One `(key, value)` pair of the interpreted attribute layout. The key is
/// an 8-byte property identifier stored explicitly with every value.
#[derive(Debug, Clone, PartialEq)]
pub struct PropEntry {
    pub key: u64,
    pub value: Value,
}

impl MemoryUsage for PropEntry {
    fn memory_bytes(&self) -> usize {
        // Inline size (key + value enum) plus any string heap.
        std::mem::size_of::<PropEntry>()
            + match &self.value {
                Value::String(s) => s.capacity(),
                _ => 0,
            }
    }
}

/// A record: boxed slice of present properties (NULLs are simply absent).
pub type RowRecord = Box<[PropEntry]>;

fn record_bytes(rec: &RowRecord) -> usize {
    rec.iter().map(PropEntry::memory_bytes).sum::<usize>()
}

/// Row-oriented CSR: uncompressed `(edge ID, neighbour global ID)` pairs.
#[derive(Debug, Clone)]
pub struct RowCsr {
    offsets: Vec<u64>,
    /// Global edge IDs (label-scoped, 0..m).
    edge_ids: Vec<u64>,
    /// Global neighbour vertex IDs.
    nbrs: Vec<u64>,
}

impl RowCsr {
    fn build(n_vertices: usize, from: &[u64], edge_ids: &[u64], nbrs: &[u64]) -> RowCsr {
        let mut offsets = vec![0u64; n_vertices + 1];
        for &f in from {
            offsets[f as usize + 1] += 1;
        }
        for v in 0..n_vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut e_sorted = vec![0u64; from.len()];
        let mut n_sorted = vec![0u64; from.len()];
        for i in 0..from.len() {
            let f = from[i] as usize;
            let p = cursor[f] as usize;
            cursor[f] += 1;
            e_sorted[p] = edge_ids[i];
            n_sorted[p] = nbrs[i];
        }
        RowCsr { offsets, edge_ids: e_sorted, nbrs: n_sorted }
    }

    /// `(start, len)` of vertex `v`'s list.
    #[inline]
    pub fn list(&self, v: u64) -> (u64, usize) {
        let s = self.offsets[v as usize];
        (s, (self.offsets[v as usize + 1] - s) as usize)
    }

    #[inline]
    pub fn pair_at(&self, pos: u64) -> (u64, u64) {
        (self.edge_ids[pos as usize], self.nbrs[pos as usize])
    }

    pub fn degree(&self, v: u64) -> usize {
        self.list(v).1
    }
}

impl MemoryUsage for RowCsr {
    fn memory_bytes(&self) -> usize {
        self.offsets.memory_bytes() + self.edge_ids.memory_bytes() + self.nbrs.memory_bytes()
    }
}

/// The row-oriented graph database (GF-RV substrate).
#[derive(Debug, Clone)]
pub struct RowGraph {
    catalog: Catalog,
    vertex_counts: Vec<usize>,
    edge_counts: Vec<usize>,
    /// Global vertex ID of the first vertex of each label.
    label_base: Vec<u64>,
    /// Per label: one record per vertex.
    vertex_records: Vec<Vec<RowRecord>>,
    /// Per edge label: a property pointer per edge (None = no properties,
    /// but the pointer slot itself is still paid for).
    edge_records: Vec<Vec<Option<RowRecord>>>,
    fwd: Vec<RowCsr>,
    bwd: Vec<RowCsr>,
    pk: Vec<Option<HashMap<i64, u64>>>,
}

impl RowGraph {
    pub fn build(raw: &RawGraph) -> Result<RowGraph> {
        raw.validate()?;
        let mut catalog = raw.catalog.clone();
        // Same statistics as the columnar build: both engines must pick the
        // same join orders for the cross-engine comparisons to be fair.
        catalog.set_stats(crate::stats::Stats::collect(raw));
        let vertex_counts: Vec<usize> = raw.vertices.iter().map(|t| t.count).collect();
        let edge_counts: Vec<usize> = raw.edges.iter().map(|t| t.len()).collect();
        let mut label_base = Vec::with_capacity(vertex_counts.len());
        let mut base = 0u64;
        for &c in &vertex_counts {
            label_base.push(base);
            base += c as u64;
        }

        let mut vertex_records = Vec::with_capacity(raw.vertices.len());
        for (lid, table) in raw.vertices.iter().enumerate() {
            let def = catalog.vertex_label(lid as LabelId);
            let mut records = Vec::with_capacity(table.count);
            for v in 0..table.count {
                let mut entries = Vec::new();
                for (j, prop) in table.props.iter().enumerate() {
                    let val = prop.value(v, def.properties[j].dtype);
                    if !val.is_null() {
                        entries.push(PropEntry { key: j as u64, value: val });
                    }
                }
                records.push(entries.into_boxed_slice());
            }
            vertex_records.push(records);
        }

        let mut edge_records = Vec::with_capacity(raw.edges.len());
        let mut fwd = Vec::with_capacity(raw.edges.len());
        let mut bwd = Vec::with_capacity(raw.edges.len());
        for (eid, table) in raw.edges.iter().enumerate() {
            let def = catalog.edge_label(eid as LabelId);
            let m = table.len();
            // One property pointer per edge, even when there is nothing to
            // point at (GF-RV overhead reproduced).
            let mut records: Vec<Option<RowRecord>> = Vec::with_capacity(m);
            for i in 0..m {
                let mut entries = Vec::new();
                for (j, prop) in table.props.iter().enumerate() {
                    let val = prop.value(i, def.properties[j].dtype);
                    if !val.is_null() {
                        entries.push(PropEntry { key: j as u64, value: val });
                    }
                }
                records.push(if entries.is_empty() {
                    None
                } else {
                    Some(entries.into_boxed_slice())
                });
            }
            edge_records.push(records);

            let edge_ids: Vec<u64> = (0..m as u64).collect();
            let src_globals: Vec<u64> =
                table.src.iter().map(|&o| label_base[def.src as usize] + o).collect();
            let dst_globals: Vec<u64> =
                table.dst.iter().map(|&o| label_base[def.dst as usize] + o).collect();
            fwd.push(RowCsr::build(
                raw.vertices[def.src as usize].count,
                &table.src,
                &edge_ids,
                &dst_globals,
            ));
            bwd.push(RowCsr::build(
                raw.vertices[def.dst as usize].count,
                &table.dst,
                &edge_ids,
                &src_globals,
            ));
        }

        let mut pk = Vec::with_capacity(raw.vertices.len());
        for (lid, records) in vertex_records.iter().enumerate() {
            let def = catalog.vertex_label(lid as LabelId);
            pk.push(match def.primary_key {
                Some(j) => {
                    let mut map = HashMap::with_capacity(records.len());
                    for (v, rec) in records.iter().enumerate() {
                        if let Some(entry) = rec.iter().find(|e| e.key == j as u64) {
                            if let Some(key) = entry.value.as_i64() {
                                if map.insert(key, v as u64).is_some() {
                                    return Err(Error::Invalid(format!(
                                        "duplicate primary key {key} in {}",
                                        def.name
                                    )));
                                }
                            }
                        }
                    }
                    Some(map)
                }
                None => None,
            });
        }

        Ok(RowGraph {
            catalog,
            vertex_counts,
            edge_counts,
            label_base,
            vertex_records,
            edge_records,
            fwd,
            bwd,
            pk,
        })
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn vertex_count(&self, label: LabelId) -> usize {
        self.vertex_counts[label as usize]
    }

    pub fn edge_count(&self, label: LabelId) -> usize {
        self.edge_counts[label as usize]
    }

    /// Global vertex ID of `(label, offset)` — GF-RV's 8-byte ID scheme.
    pub fn global_id(&self, label: LabelId, offset: u64) -> u64 {
        self.label_base[label as usize] + offset
    }

    /// Convert a global ID of a known label back to a label-level offset.
    pub fn offset_of_global(&self, label: LabelId, global: u64) -> u64 {
        global - self.label_base[label as usize]
    }

    pub fn adj(&self, label: LabelId, dir: Direction) -> &RowCsr {
        match dir {
            Direction::Fwd => &self.fwd[label as usize],
            Direction::Bwd => &self.bwd[label as usize],
        }
    }

    /// Read a vertex property by scanning the record's key/value entries —
    /// the interpreted-attribute-layout access path ("checking equality on
    /// property keys", Section 8.7).
    pub fn read_vertex_prop(&self, label: LabelId, offset: u64, prop: usize) -> Value {
        let rec = &self.vertex_records[label as usize][offset as usize];
        for entry in rec.iter() {
            if entry.key == prop as u64 {
                return entry.value.clone();
            }
        }
        Value::Null
    }

    /// Read an edge property by following the edge's record pointer and
    /// scanning its entries.
    pub fn read_edge_prop(&self, label: LabelId, edge_id: u64, prop: usize) -> Value {
        match &self.edge_records[label as usize][edge_id as usize] {
            Some(rec) => {
                for entry in rec.iter() {
                    if entry.key == prop as u64 {
                        return entry.value.clone();
                    }
                }
                Value::Null
            }
            None => Value::Null,
        }
    }

    pub fn lookup_pk(&self, label: LabelId, key: i64) -> Option<u64> {
        self.pk[label as usize].as_ref()?.get(&key).copied()
    }

    /// Memory of the four Table 2 components (GF-RV column).
    pub fn memory_breakdown(&self) -> crate::columnar_graph::MemoryBreakdown {
        let vertex_props = self
            .vertex_records
            .iter()
            .map(|recs| {
                recs.capacity() * std::mem::size_of::<RowRecord>()
                    + recs.iter().map(record_bytes).sum::<usize>()
            })
            .sum();
        let edge_props = self
            .edge_records
            .iter()
            .map(|recs| {
                // The pointer-per-edge slots plus the records themselves.
                recs.capacity() * std::mem::size_of::<Option<RowRecord>>()
                    + recs.iter().flatten().map(record_bytes).sum::<usize>()
            })
            .sum();
        let fwd_adj = self.fwd.iter().map(RowCsr::memory_bytes).sum();
        let bwd_adj = self.bwd.iter().map(RowCsr::memory_bytes).sum();
        // The row store is always fully resident: no pageable bytes, no pool.
        crate::columnar_graph::MemoryBreakdown {
            vertex_props,
            edge_props,
            fwd_adj,
            bwd_adj,
            resident: vertex_props + edge_props + fwd_adj + bwd_adj,
            pageable: 0,
            buffer_pool: 0,
        }
    }
}

impl BaselineRead for RowGraph {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn vertex_count(&self, label: LabelId) -> usize {
        self.vertex_counts[label as usize]
    }

    fn lookup_pk(&self, label: LabelId, key: i64) -> Option<u64> {
        RowGraph::lookup_pk(self, label, key)
    }

    fn adj_range(&self, elabel: LabelId, dir: Direction, from: u64) -> (u64, u64) {
        // GF-RV stores every label in CSRs — no vertex-column shortcut.
        let (start, len) = self.adj(elabel, dir).list(from);
        (start, len as u64)
    }

    // Rows are never paged: the reads below ignore the caller's cursors.
    fn adj_entry(
        &self,
        _cur: &mut ReadCursors,
        elabel: LabelId,
        dir: Direction,
        pos: u64,
    ) -> Option<(u64, u64)> {
        let (edge_id, nbr_global) = self.adj(elabel, dir).pair_at(pos);
        // 8-byte global IDs are converted back to label offsets on use.
        let nbr_label = self.catalog.edge_label(elabel).nbr_label(dir);
        Some((self.offset_of_global(nbr_label, nbr_global), edge_id))
    }

    fn vertex_value(&self, _cur: &mut PageCursor, label: LabelId, off: u64, prop: usize) -> Value {
        self.read_vertex_prop(label, off, prop)
    }

    fn edge_value(
        &self,
        _cur: &mut ReadCursors,
        elabel: LabelId,
        _dir: Direction,
        _from: u64,
        token: u64,
        prop: usize,
    ) -> Result<Value> {
        Ok(self.read_edge_prop(elabel, token, prop))
    }
}

impl MemoryUsage for RowGraph {
    fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar_graph::ColumnarGraph;
    use crate::config::StorageConfig;

    #[test]
    fn row_graph_roundtrips_example() {
        let raw = RawGraph::example();
        let g = RowGraph::build(&raw).unwrap();
        assert_eq!(g.vertex_count(0), 4);
        assert_eq!(g.edge_count(0), 8);
        assert_eq!(g.read_vertex_prop(0, 1, 0), Value::String("bob".into()));
        assert_eq!(g.read_vertex_prop(0, 1, 1), Value::Int64(54));
        // Adjacency pairs carry global IDs.
        let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
        let (start, len) = g.adj(follows, Direction::Fwd).list(0);
        assert_eq!(len, 2);
        let mut nbrs: Vec<u64> = (start..start + len as u64)
            .map(|p| g.adj(follows, Direction::Fwd).pair_at(p).1)
            .collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 3]); // persons share label 0: base 0
    }

    #[test]
    fn edge_property_reads_via_record_pointer() {
        let raw = RawGraph::example();
        let g = RowGraph::build(&raw).unwrap();
        let follows = g.catalog().edge_label_id("FOLLOWS").unwrap();
        // Edge 0 in input order: (alice -> bob, since 2003).
        assert_eq!(g.read_edge_prop(follows, 0, 0), Value::Int64(2003));
        // Missing prop index is NULL.
        assert_eq!(g.read_edge_prop(follows, 0, 7), Value::Null);
    }

    #[test]
    fn global_id_scheme_roundtrips() {
        let raw = RawGraph::example();
        let g = RowGraph::build(&raw).unwrap();
        let org = g.catalog().vertex_label_id("ORG").unwrap();
        let gid = g.global_id(org, 1);
        assert_eq!(gid, 5); // 4 persons before orgs
        assert_eq!(g.offset_of_global(org, gid), 1);
    }

    #[test]
    fn row_store_is_bigger_than_columnar() {
        // The headline claim of Table 2, on the running example.
        let raw = RawGraph::example();
        let row = RowGraph::build(&raw).unwrap();
        let col = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
        assert!(
            row.memory_bytes() > col.memory_bytes(),
            "row {} <= columnar {}",
            row.memory_bytes(),
            col.memory_bytes()
        );
    }
}
