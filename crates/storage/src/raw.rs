//! [`RawGraph`]: the storage-agnostic interchange representation.
//!
//! Data generators produce a `RawGraph`; both [`crate::ColumnarGraph`] and
//! [`crate::RowGraph`] are built from it, guaranteeing that every storage
//! configuration in an experiment holds *exactly* the same logical data.

use gfcl_common::{DataType, Direction, Error, Result, Value};

use crate::catalog::Catalog;

/// A property column of the interchange format: plain `Option<T>` vectors.
#[derive(Debug, Clone)]
pub enum PropData {
    I64(Vec<Option<i64>>),
    F64(Vec<Option<f64>>),
    Bool(Vec<Option<bool>>),
    Str(Vec<Option<String>>),
}

impl PropData {
    /// An empty column of the right shape for `dtype`.
    pub fn new(dtype: DataType) -> PropData {
        match dtype {
            DataType::Int64 | DataType::Date => PropData::I64(Vec::new()),
            DataType::Float64 => PropData::F64(Vec::new()),
            DataType::Bool => PropData::Bool(Vec::new()),
            DataType::String => PropData::Str(Vec::new()),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            PropData::I64(v) => v.len(),
            PropData::F64(v) => v.len(),
            PropData::Bool(v) => v.len(),
            PropData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push_null(&mut self) {
        match self {
            PropData::I64(v) => v.push(None),
            PropData::F64(v) => v.push(None),
            PropData::Bool(v) => v.push(None),
            PropData::Str(v) => v.push(None),
        }
    }

    pub fn push_i64(&mut self, x: i64) {
        match self {
            PropData::I64(v) => v.push(Some(x)),
            _ => panic!("push_i64 on non-integer PropData"),
        }
    }

    pub fn push_f64(&mut self, x: f64) {
        match self {
            PropData::F64(v) => v.push(Some(x)),
            _ => panic!("push_f64 on non-float PropData"),
        }
    }

    pub fn push_bool(&mut self, x: bool) {
        match self {
            PropData::Bool(v) => v.push(Some(x)),
            _ => panic!("push_bool on non-bool PropData"),
        }
    }

    pub fn push_str(&mut self, x: impl Into<String>) {
        match self {
            PropData::Str(v) => v.push(Some(x.into())),
            _ => panic!("push_str on non-string PropData"),
        }
    }

    /// Push a dynamically-typed value.
    pub fn push_value(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (p, Value::Null) => {
                p.push_null();
                Ok(())
            }
            (PropData::I64(d), Value::Int64(x)) | (PropData::I64(d), Value::Date(x)) => {
                d.push(Some(x));
                Ok(())
            }
            (PropData::F64(d), Value::Float64(x)) => {
                d.push(Some(x));
                Ok(())
            }
            (PropData::Bool(d), Value::Bool(x)) => {
                d.push(Some(x));
                Ok(())
            }
            (PropData::Str(d), Value::String(x)) => {
                d.push(Some(x));
                Ok(())
            }
            (p, v) => Err(Error::TypeMismatch {
                expected: format!("{p:?}").chars().take(12).collect(),
                found: v.data_type().map(|t| t.to_string()).unwrap_or_default(),
            }),
        }
    }

    /// Read position `i` as a [`Value`], mapping integers through `dtype`
    /// so `Date` columns yield `Value::Date`.
    pub fn value(&self, i: usize, dtype: DataType) -> Value {
        match self {
            PropData::I64(v) => match v[i] {
                Some(x) if dtype == DataType::Date => Value::Date(x),
                Some(x) => Value::Int64(x),
                None => Value::Null,
            },
            PropData::F64(v) => v[i].map_or(Value::Null, Value::Float64),
            PropData::Bool(v) => v[i].map_or(Value::Null, Value::Bool),
            PropData::Str(v) => v[i].clone().map_or(Value::Null, Value::String),
        }
    }

    /// Reorder values by `perm`: `new[i] = old[perm[i]]`.
    pub fn reorder(&mut self, perm: &[usize]) {
        match self {
            PropData::I64(v) => *v = perm.iter().map(|&i| v[i]).collect(),
            PropData::F64(v) => *v = perm.iter().map(|&i| v[i]).collect(),
            PropData::Bool(v) => *v = perm.iter().map(|&i| v[i]).collect(),
            PropData::Str(v) => *v = perm.iter().map(|&i| v[i].take()).collect(),
        }
    }

    /// Fraction of NULL entries, used by generators to verify sparsity.
    pub fn null_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let nulls = match self {
            PropData::I64(v) => v.iter().filter(|x| x.is_none()).count(),
            PropData::F64(v) => v.iter().filter(|x| x.is_none()).count(),
            PropData::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
            PropData::Str(v) => v.iter().filter(|x| x.is_none()).count(),
        };
        nulls as f64 / self.len() as f64
    }
}

/// All vertices of one label: a count plus property columns parallel to the
/// catalog's property list.
#[derive(Debug, Clone)]
pub struct VertexTable {
    pub count: usize,
    pub props: Vec<PropData>,
}

/// All edges of one label: endpoint offset pairs plus property columns
/// aligned with the edge order.
#[derive(Debug, Clone, Default)]
pub struct EdgeTable {
    pub src: Vec<u64>,
    pub dst: Vec<u64>,
    pub props: Vec<PropData>,
}

impl EdgeTable {
    pub fn len(&self) -> usize {
        self.src.len()
    }

    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Reorder edges (and their aligned property values) by `perm`:
    /// `new[i] = old[perm[i]]`. Generators use this to emit n-n edges in a
    /// realistic arrival order rather than grouped by source.
    pub fn reorder(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.len());
        self.src = perm.iter().map(|&i| self.src[i]).collect();
        self.dst = perm.iter().map(|&i| self.dst[i]).collect();
        for p in &mut self.props {
            p.reorder(perm);
        }
    }
}

/// A complete logical property graph: catalog + tables.
#[derive(Debug, Clone)]
pub struct RawGraph {
    pub catalog: Catalog,
    pub vertices: Vec<VertexTable>,
    pub edges: Vec<EdgeTable>,
}

impl RawGraph {
    /// An empty graph over `catalog` with zero-row tables.
    pub fn new(catalog: Catalog) -> RawGraph {
        let vertices = catalog
            .vertex_labels()
            .iter()
            .map(|def| VertexTable {
                count: 0,
                props: def.properties.iter().map(|p| PropData::new(p.dtype)).collect(),
            })
            .collect();
        let edges = catalog
            .edge_labels()
            .iter()
            .map(|def| EdgeTable {
                src: Vec::new(),
                dst: Vec::new(),
                props: def.properties.iter().map(|p| PropData::new(p.dtype)).collect(),
            })
            .collect();
        RawGraph { catalog, vertices, edges }
    }

    pub fn vertex_count(&self, label: u16) -> usize {
        self.vertices[label as usize].count
    }

    pub fn edge_count(&self, label: u16) -> usize {
        self.edges[label as usize].len()
    }

    pub fn total_vertices(&self) -> usize {
        self.vertices.iter().map(|t| t.count).sum()
    }

    pub fn total_edges(&self) -> usize {
        self.edges.iter().map(|t| t.len()).sum()
    }

    /// Check structural consistency: property column lengths, endpoint
    /// offsets in range, and declared cardinality constraints.
    pub fn validate(&self) -> Result<()> {
        for l in 0..self.vertices.len() as u16 {
            self.validate_vertex_table(l)?;
        }
        for l in 0..self.edges.len() as u16 {
            let def = self.catalog.edge_label(l);
            let n = |v: u16| self.vertices[v as usize].count;
            self.validate_edge_table(l, n(def.src), n(def.dst))?;
        }
        Ok(())
    }

    /// [`RawGraph::validate`] for vertex label `lid`'s table alone.
    pub(crate) fn validate_vertex_table(&self, lid: u16) -> Result<()> {
        let (def, table) = (self.catalog.vertex_label(lid), &self.vertices[lid as usize]);
        if table.props.len() != def.properties.len() {
            return Err(Error::Invalid(format!(
                "{}: {} property columns, schema has {}",
                def.name,
                table.props.len(),
                def.properties.len()
            )));
        }
        for (p, col) in table.props.iter().enumerate() {
            if col.len() != table.count {
                return Err(Error::Invalid(format!(
                    "{}.{}: {} values for {} vertices",
                    def.name,
                    def.properties[p].name,
                    col.len(),
                    table.count
                )));
            }
        }
        Ok(())
    }

    /// [`RawGraph::validate`] for edge label `lid`'s table alone, between
    /// endpoint labels of `n_src` and `n_dst` vertices.
    pub(crate) fn validate_edge_table(&self, lid: u16, n_src: usize, n_dst: usize) -> Result<()> {
        let (def, table) = (self.catalog.edge_label(lid), &self.edges[lid as usize]);
        let (n_src, n_dst) = (n_src as u64, n_dst as u64);
        if table.src.len() != table.dst.len() {
            return Err(Error::Invalid(format!("{}: src/dst length mismatch", def.name)));
        }
        for col in &table.props {
            if col.len() != table.len() {
                return Err(Error::Invalid(format!(
                    "{}: property column length mismatch",
                    def.name
                )));
            }
        }
        if table.src.iter().any(|&s| s >= n_src) || table.dst.iter().any(|&d| d >= n_dst) {
            return Err(Error::Invalid(format!("{}: endpoint offset out of range", def.name)));
        }
        for dir in [Direction::Fwd, Direction::Bwd] {
            if def.cardinality.is_single(dir) {
                let endpoints = match dir {
                    Direction::Fwd => &table.src,
                    Direction::Bwd => &table.dst,
                };
                let mut seen =
                    vec![false; endpoints.iter().map(|&e| e as usize + 1).max().unwrap_or(0)];
                for &e in endpoints {
                    if seen[e as usize] {
                        return Err(Error::Invalid(format!(
                            "{}: cardinality violated, vertex {e} has two edges ({dir})",
                            def.name
                        )));
                    }
                    seen[e as usize] = true;
                }
            }
        }
        Ok(())
    }

    /// The paper's Figure 1 running example: PERSON/ORG vertices with
    /// FOLLOWS (n-n, `since`), STUDYAT (n-1, `doj`) and WORKAT (n-1, `doj`)
    /// edges. Used throughout unit tests, docs and the quickstart example.
    pub fn example() -> RawGraph {
        use crate::catalog::{Cardinality, PropertyDef};
        use gfcl_common::DataType::*;

        let mut cat = Catalog::new();
        let person = cat
            .add_vertex_label(
                "PERSON",
                vec![
                    PropertyDef::new("name", String),
                    PropertyDef::new("age", Int64),
                    PropertyDef::new("gender", String),
                ],
            )
            .unwrap();
        let org = cat
            .add_vertex_label(
                "ORG",
                vec![PropertyDef::new("name", String), PropertyDef::new("estd", Int64)],
            )
            .unwrap();
        let follows = cat
            .add_edge_label(
                "FOLLOWS",
                person,
                person,
                Cardinality::ManyMany,
                vec![PropertyDef::new("since", Int64)],
            )
            .unwrap();
        let studyat = cat
            .add_edge_label(
                "STUDYAT",
                person,
                org,
                Cardinality::ManyOne,
                vec![PropertyDef::new("doj", Int64)],
            )
            .unwrap();
        let workat = cat
            .add_edge_label(
                "WORKAT",
                person,
                org,
                Cardinality::ManyOne,
                vec![PropertyDef::new("doj", Int64)],
            )
            .unwrap();

        let mut g = RawGraph::new(cat);
        // Persons: p0=alice(45,F) p1=bob(54,M) p2=peter(17,M) p3=jenny(23,F)
        {
            let t = &mut g.vertices[person as usize];
            t.count = 4;
            for (name, age, gender) in
                [("alice", 45, "F"), ("bob", 54, "M"), ("peter", 17, "M"), ("jenny", 23, "F")]
            {
                t.props[0].push_str(name);
                t.props[1].push_i64(age);
                t.props[2].push_str(gender);
            }
        }
        // Orgs: o0=UW(1934) o1=UofT(1885)
        {
            let t = &mut g.vertices[org as usize];
            t.count = 2;
            for (name, estd) in [("UW", 1934), ("UofT", 1885)] {
                t.props[0].push_str(name);
                t.props[1].push_i64(estd);
            }
        }
        // FOLLOWS edges with `since`, from the paper's Figure 5.
        {
            let t = &mut g.edges[follows as usize];
            for (s, d, since) in [
                (0u64, 1u64, 2003),
                (1, 2, 2009),
                (0, 3, 1999),
                (1, 3, 2006),
                (2, 3, 2015),
                (3, 1, 2012),
                (2, 1, 1992),
                (2, 0, 2011),
            ] {
                t.src.push(s);
                t.dst.push(d);
                t.props[0].push_i64(since);
            }
        }
        // STUDYAT (n-1): peter->UW(2019), jenny->UofT(2014).
        {
            let t = &mut g.edges[studyat as usize];
            for (s, d, doj) in [(2u64, 0u64, 2019), (3, 1, 2014)] {
                t.src.push(s);
                t.dst.push(d);
                t.props[0].push_i64(doj);
            }
        }
        // WORKAT (n-1): alice->UW(2006), bob->UofT(1980).
        {
            let t = &mut g.edges[workat as usize];
            for (s, d, doj) in [(0u64, 0u64, 2006), (1, 1, 1980)] {
                t.src.push(s);
                t.dst.push(d);
                t.props[0].push_i64(doj);
            }
        }
        g.validate().expect("example graph is consistent");
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_graph_validates() {
        let g = RawGraph::example();
        assert_eq!(g.total_vertices(), 6);
        assert_eq!(g.total_edges(), 12);
        assert_eq!(g.vertex_count(0), 4);
        assert_eq!(g.edge_count(0), 8);
    }

    #[test]
    fn validate_catches_cardinality_violation() {
        let mut g = RawGraph::example();
        // STUDYAT is n-1: a second out-edge from peter must fail.
        let t = &mut g.edges[1];
        t.src.push(2);
        t.dst.push(1);
        t.props[0].push_i64(2021);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_range_offsets() {
        let mut g = RawGraph::example();
        g.edges[0].src.push(99);
        g.edges[0].dst.push(0);
        g.edges[0].props[0].push_null();
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_prop_length_mismatch() {
        let mut g = RawGraph::example();
        g.vertices[0].props[1].push_i64(1);
        assert!(g.validate().is_err());
    }

    #[test]
    fn prop_data_typed_pushes() {
        let mut p = PropData::new(DataType::Date);
        p.push_i64(5);
        p.push_null();
        assert_eq!(p.value(0, DataType::Date), Value::Date(5));
        assert_eq!(p.value(1, DataType::Date), Value::Null);
        assert_eq!(p.null_fraction(), 0.5);
        let mut s = PropData::new(DataType::String);
        s.push_value(Value::String("x".into())).unwrap();
        assert!(s.push_value(Value::Int64(1)).is_err());
    }
}
