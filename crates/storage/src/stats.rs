//! Table statistics collected at graph build time, feeding the
//! statistics-driven join orderer in `gfcl_core::optimize`.
//!
//! The paper hand-picks left-deep plans for its evaluation; a system that
//! serves arbitrary queries must pick the extend order itself, and that
//! requires knowing, per label, how big a scan is and how much an extend
//! fans out. [`Stats`] records exactly the quantities the cost model
//! consumes:
//!
//! * per vertex label: the vertex count and per-property [`PropStats`];
//! * per edge label: the edge count, the average and maximum degree in each
//!   traversal direction (the fan-out of a `ListExtend`; ≤ 1 for the
//!   single-cardinality side, which extends 1:1 via `ColumnExtend`);
//! * per property: an exact number-of-distinct-values count (cheap at our
//!   scales — a production system would substitute HyperLogLog), the NULL
//!   fraction, and the integer min/max for range-predicate selectivity.
//!
//! Statistics are computed from the [`RawGraph`] by [`Stats::collect`] —
//! label by label, through [`VertexLabelStats::collect`] and
//! [`EdgeLabelStats::collect`] — and stashed on the [`crate::Catalog`]
//! clone each storage build makes, so every engine built from the same raw
//! data plans with identical statistics (and therefore picks identical
//! orders — the cross-engine equivalence suites rely on this). A merge
//! recollects only the labels it rebuilds and copies the rest: a label's
//! statistics depend on its table and, for an edge label, its endpoint
//! labels' vertex counts, which is exactly what decides a rebuild.

use std::collections::HashSet;

use gfcl_common::{Direction, LabelId, Reader, Result, Writer};

use crate::raw::{EdgeTable, PropData, RawGraph, VertexTable};

/// Statistics of one property column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropStats {
    /// Number of distinct non-NULL values (exact).
    pub ndv: u64,
    /// Fraction of NULL entries in `[0, 1]`.
    pub null_fraction: f64,
    /// Minimum non-NULL value, for `Int64`/`Date` columns.
    pub min_i64: Option<i64>,
    /// Maximum non-NULL value, for `Int64`/`Date` columns.
    pub max_i64: Option<i64>,
}

/// Statistics of one vertex label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VertexLabelStats {
    /// Number of vertices with this label.
    pub count: u64,
    /// Per-property statistics, parallel to the catalog's property list.
    pub props: Vec<PropStats>,
}

/// Statistics of one edge label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeLabelStats {
    /// Number of edges with this label.
    pub count: u64,
    /// Average out-degree over *all* source-label vertices (empty lists
    /// included) — the expected fan-out of a forward extend.
    pub avg_fwd_degree: f64,
    /// Largest forward adjacency list.
    pub max_fwd_degree: u64,
    /// Average in-degree over all destination-label vertices.
    pub avg_bwd_degree: f64,
    /// Largest backward adjacency list.
    pub max_bwd_degree: u64,
    /// Per-property statistics, parallel to the catalog's property list.
    pub props: Vec<PropStats>,
}

/// Graph statistics for one database, indexed by [`LabelId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    pub vertices: Vec<VertexLabelStats>,
    pub edges: Vec<EdgeLabelStats>,
}

impl VertexLabelStats {
    /// Statistics of one vertex label's table, one pass per column.
    pub fn collect(table: &VertexTable) -> VertexLabelStats {
        VertexLabelStats {
            count: table.count as u64,
            props: table.props.iter().map(prop_stats).collect(),
        }
    }
}

impl EdgeLabelStats {
    /// Statistics of one edge label's table between endpoint labels of
    /// `n_src` and `n_dst` vertices.
    pub fn collect(table: &EdgeTable, n_src: usize, n_dst: usize) -> EdgeLabelStats {
        let (avg_fwd, max_fwd) = degree_profile(&table.src, n_src);
        let (avg_bwd, max_bwd) = degree_profile(&table.dst, n_dst);
        EdgeLabelStats {
            count: table.len() as u64,
            avg_fwd_degree: avg_fwd,
            max_fwd_degree: max_fwd,
            avg_bwd_degree: avg_bwd,
            max_bwd_degree: max_bwd,
            props: table.props.iter().map(prop_stats).collect(),
        }
    }
}

impl Stats {
    /// Collect statistics from a raw graph, label by label.
    pub fn collect(raw: &RawGraph) -> Stats {
        let vertices = raw.vertices.iter().map(VertexLabelStats::collect).collect();
        let edges = raw
            .edges
            .iter()
            .enumerate()
            .map(|(lid, t)| {
                let def = raw.catalog.edge_label(lid as LabelId);
                let n = |l: LabelId| raw.vertices[l as usize].count;
                EdgeLabelStats::collect(t, n(def.src), n(def.dst))
            })
            .collect();
        Stats { vertices, edges }
    }

    /// Statistics of one vertex label.
    pub fn vertex(&self, label: LabelId) -> &VertexLabelStats {
        &self.vertices[label as usize]
    }

    /// Statistics of one edge label.
    pub fn edge(&self, label: LabelId) -> &EdgeLabelStats {
        &self.edges[label as usize]
    }

    /// Expected fan-out of extending one tuple along `(label, dir)`.
    pub fn avg_degree(&self, label: LabelId, dir: Direction) -> f64 {
        let e = self.edge(label);
        match dir {
            Direction::Fwd => e.avg_fwd_degree,
            Direction::Bwd => e.avg_bwd_degree,
        }
    }

    /// Largest adjacency list of `(label, dir)`.
    pub fn max_degree(&self, label: LabelId, dir: Direction) -> u64 {
        let e = self.edge(label);
        match dir {
            Direction::Fwd => e.max_fwd_degree,
            Direction::Bwd => e.max_bwd_degree,
        }
    }

    /// Encode for the on-disk format; statistics are persisted rather than
    /// recollected so a reopened graph plans with *identical* numbers (the
    /// cross-engine equivalence suites depend on matching join orders).
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.vertices.len());
        for v in &self.vertices {
            w.u64(v.count);
            encode_props(w, &v.props);
        }
        w.usize(self.edges.len());
        for e in &self.edges {
            w.u64(e.count);
            w.f64(e.avg_fwd_degree);
            w.u64(e.max_fwd_degree);
            w.f64(e.avg_bwd_degree);
            w.u64(e.max_bwd_degree);
            encode_props(w, &e.props);
        }
    }

    /// Decode a [`Stats::encode`] stream.
    pub fn decode(r: &mut Reader<'_>) -> Result<Stats> {
        let n_v = r.count()?;
        let mut vertices = Vec::with_capacity(n_v);
        for _ in 0..n_v {
            vertices.push(VertexLabelStats { count: r.u64()?, props: decode_props(r)? });
        }
        let n_e = r.count()?;
        let mut edges = Vec::with_capacity(n_e);
        for _ in 0..n_e {
            edges.push(EdgeLabelStats {
                count: r.u64()?,
                avg_fwd_degree: r.f64()?,
                max_fwd_degree: r.u64()?,
                avg_bwd_degree: r.f64()?,
                max_bwd_degree: r.u64()?,
                props: decode_props(r)?,
            });
        }
        Ok(Stats { vertices, edges })
    }
}

fn encode_props(w: &mut Writer, props: &[PropStats]) {
    w.usize(props.len());
    for p in props {
        w.u64(p.ndv);
        w.f64(p.null_fraction);
        w.opt(p.min_i64, Writer::i64);
        w.opt(p.max_i64, Writer::i64);
    }
}

fn decode_props(r: &mut Reader<'_>) -> Result<Vec<PropStats>> {
    let n = r.count()?;
    let mut props = Vec::with_capacity(n);
    for _ in 0..n {
        props.push(PropStats {
            ndv: r.u64()?,
            null_fraction: r.f64()?,
            min_i64: r.opt(Reader::i64)?,
            max_i64: r.opt(Reader::i64)?,
        });
    }
    Ok(props)
}

/// `(average, max)` list length when grouping `endpoints` over `n` vertices.
fn degree_profile(endpoints: &[u64], n: usize) -> (f64, u64) {
    if n == 0 {
        return (0.0, 0);
    }
    let mut deg = vec![0u64; n];
    for &v in endpoints {
        deg[v as usize] += 1;
    }
    let max = deg.iter().copied().max().unwrap_or(0);
    (endpoints.len() as f64 / n as f64, max)
}

/// NDV / NULL fraction / integer min-max of one raw property column.
fn prop_stats(p: &PropData) -> PropStats {
    let null_fraction = p.null_fraction();
    let (ndv, min_i64, max_i64) = match p {
        PropData::I64(v) => {
            let mut set = HashSet::new();
            let mut min = None;
            let mut max = None;
            for x in v.iter().flatten() {
                set.insert(*x);
                min = Some(min.map_or(*x, |m: i64| m.min(*x)));
                max = Some(max.map_or(*x, |m: i64| m.max(*x)));
            }
            (set.len() as u64, min, max)
        }
        PropData::F64(v) => {
            let set: HashSet<u64> = v.iter().flatten().map(|x| x.to_bits()).collect();
            (set.len() as u64, None, None)
        }
        PropData::Bool(v) => {
            let set: HashSet<bool> = v.iter().flatten().copied().collect();
            (set.len() as u64, None, None)
        }
        PropData::Str(v) => {
            let set: HashSet<&str> = v.iter().flatten().map(String::as_str).collect();
            (set.len() as u64, None, None)
        }
    };
    PropStats { ndv, null_fraction, min_i64, max_i64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawGraph;

    #[test]
    fn collects_counts_and_degrees_from_the_example() {
        let raw = RawGraph::example();
        let s = Stats::collect(&raw);
        assert_eq!(s.vertex(0).count, 4); // PERSON
        assert_eq!(s.vertex(1).count, 2); // ORG
        let follows = s.edge(0);
        assert_eq!(follows.count, 8);
        assert_eq!(follows.avg_fwd_degree, 2.0); // 8 edges / 4 persons
        assert_eq!(follows.max_fwd_degree, 3); // peter follows 3
        assert_eq!(follows.max_bwd_degree, 3); // jenny followed by 3
                                               // WORKAT is n-1: average forward degree ≤ 1.
        let workat = s.edge(2);
        assert!(workat.avg_fwd_degree <= 1.0);
        assert_eq!(workat.max_fwd_degree, 1);
        assert_eq!(s.avg_degree(0, Direction::Bwd), 2.0);
        assert_eq!(s.max_degree(0, Direction::Fwd), 3);
    }

    #[test]
    fn prop_stats_count_distinct_and_ranges() {
        let raw = RawGraph::example();
        let s = Stats::collect(&raw);
        // PERSON.age: 45, 54, 17, 23 — all distinct, no NULLs.
        let age = &s.vertex(0).props[1];
        assert_eq!(age.ndv, 4);
        assert_eq!(age.null_fraction, 0.0);
        assert_eq!((age.min_i64, age.max_i64), (Some(17), Some(54)));
        // PERSON.gender: two distinct strings; no integer range.
        let gender = &s.vertex(0).props[2];
        assert_eq!(gender.ndv, 2);
        assert_eq!(gender.min_i64, None);
        // FOLLOWS.since is an edge property with 8 distinct years.
        assert_eq!(s.edge(0).props[0].ndv, 8);
    }

    #[test]
    fn encode_roundtrips_example_stats() {
        use gfcl_common::{Reader, Writer};
        let s = Stats::collect(&RawGraph::example());
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(Stats::decode(&mut Reader::new(&bytes)).unwrap(), s);
        assert!(Stats::decode(&mut Reader::new(&bytes[..bytes.len() / 2])).is_err());
    }

    #[test]
    fn null_fraction_and_empty_labels() {
        let mut raw = RawGraph::example();
        // NULL one age.
        if let PropData::I64(v) = &mut raw.vertices[0].props[1] {
            v[0] = None;
        }
        let s = Stats::collect(&raw);
        let age = &s.vertex(0).props[1];
        assert_eq!(age.null_fraction, 0.25);
        assert_eq!(age.ndv, 3);
        assert_eq!(age.min_i64, Some(17));
    }
}
