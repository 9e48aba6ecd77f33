//! The catalog: vertex/edge label definitions, structured property schemas
//! and cardinality constraints (Guideline 3 / Desideratum 3).
//!
//! The paper observes that graph data often has *partial structure*:
//! (i) an edge label determines its endpoint vertex labels, (ii) a label
//! determines its properties and their datatypes, and (iii) edges may have
//! cardinality constraints. The catalog records exactly this structure; the
//! storage layer exploits it for ID factoring (Section 5.2) and vertex-column
//! storage of single-cardinality edges (Section 4.1.2).

use std::collections::HashMap;

use gfcl_common::{DataType, Direction, Error, LabelId, Reader, Result, Writer};

use crate::stats::Stats;

/// A structured property: name + datatype (structure point (ii)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyDef {
    pub name: String,
    pub dtype: DataType,
}

impl PropertyDef {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        PropertyDef { name: name.into(), dtype }
    }
}

/// Edge cardinality constraint (structure point (iii)).
///
/// Directions follow the paper's convention: *n-1* means each source has at
/// most one out-edge (single cardinality in the forward direction); *1-n*
/// means each destination has at most one in-edge (single backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// 1-1: single in both directions.
    OneOne,
    /// 1-n: single cardinality in the backward direction.
    OneMany,
    /// n-1: single cardinality in the forward direction.
    ManyOne,
    /// n-n: no constraint; stored in CSRs.
    ManyMany,
}

impl Cardinality {
    /// Does each vertex have at most one edge when traversing in `dir`?
    pub fn is_single(self, dir: Direction) -> bool {
        matches!(
            (self, dir),
            (Cardinality::OneOne, _)
                | (Cardinality::ManyOne, Direction::Fwd)
                | (Cardinality::OneMany, Direction::Bwd)
        )
    }

    /// Is this a single-cardinality label in at least one direction?
    pub fn is_single_any(self) -> bool {
        self != Cardinality::ManyMany
    }

    /// The side whose vertex columns hold the edge (and its properties)
    /// when stored per Section 4.1.2: source for n-1 and 1-1, destination
    /// for 1-n, none for n-n.
    pub fn property_side(self) -> Option<Direction> {
        match self {
            Cardinality::ManyOne | Cardinality::OneOne => Some(Direction::Fwd),
            Cardinality::OneMany => Some(Direction::Bwd),
            Cardinality::ManyMany => None,
        }
    }
}

/// A vertex label and its structured properties.
#[derive(Debug, Clone)]
pub struct VertexLabelDef {
    pub name: String,
    pub properties: Vec<PropertyDef>,
    /// Index of a unique `Int64` property used as the external key (LDBC's
    /// `id`). The storage layer builds a hash index over it so engines can
    /// seek to a vertex in constant time, as every native GDBMS does.
    pub primary_key: Option<usize>,
}

/// An edge label: endpoint labels (structure point (i)), cardinality, and
/// structured properties.
#[derive(Debug, Clone)]
pub struct EdgeLabelDef {
    pub name: String,
    pub src: LabelId,
    pub dst: LabelId,
    pub cardinality: Cardinality,
    pub properties: Vec<PropertyDef>,
}

impl EdgeLabelDef {
    /// The endpoint vertex label reached when traversing in `dir`.
    pub fn nbr_label(&self, dir: Direction) -> LabelId {
        match dir {
            Direction::Fwd => self.dst,
            Direction::Bwd => self.src,
        }
    }

    /// The endpoint vertex label traversal starts from in `dir`.
    pub fn from_label(&self, dir: Direction) -> LabelId {
        match dir {
            Direction::Fwd => self.src,
            Direction::Bwd => self.dst,
        }
    }
}

/// The schema of a property graph database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    vertex_labels: Vec<VertexLabelDef>,
    edge_labels: Vec<EdgeLabelDef>,
    vertex_by_name: HashMap<String, LabelId>,
    edge_by_name: HashMap<String, LabelId>,
    /// Graph statistics, populated by the storage builds
    /// ([`crate::ColumnarGraph::build`] / [`crate::RowGraph::build`]) from
    /// the raw data. `None` for a bare schema-only catalog, in which case
    /// the planner falls back to declaration-order joins.
    stats: Option<Stats>,
    /// Single-cardinality edges are stored in CSRs, not vertex columns
    /// (`StorageConfig::single_card_in_vcols` off, the Table 4 ablation).
    /// Set by the columnar build and open; never encoded — the saved
    /// configuration already carries it.
    single_card_in_csrs: bool,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a vertex label; returns its [`LabelId`].
    pub fn add_vertex_label(
        &mut self,
        name: impl Into<String>,
        properties: Vec<PropertyDef>,
    ) -> Result<LabelId> {
        let name = name.into();
        if self.vertex_by_name.contains_key(&name) {
            return Err(Error::Invalid(format!("duplicate vertex label {name}")));
        }
        let id = self.vertex_labels.len() as LabelId;
        self.vertex_by_name.insert(name.clone(), id);
        self.vertex_labels.push(VertexLabelDef { name, properties, primary_key: None });
        Ok(id)
    }

    /// Declare `prop` of `label` as the unique external key.
    pub fn set_primary_key(&mut self, label: LabelId, prop: &str) -> Result<()> {
        let idx = self.vertex_prop_idx(label, prop)?;
        let def = &mut self.vertex_labels[label as usize];
        if def.properties[idx].dtype != DataType::Int64 {
            return Err(Error::Invalid(format!(
                "primary key {prop} of {} must be INT64",
                def.name
            )));
        }
        def.primary_key = Some(idx);
        Ok(())
    }

    /// Register an edge label; returns its [`LabelId`].
    pub fn add_edge_label(
        &mut self,
        name: impl Into<String>,
        src: LabelId,
        dst: LabelId,
        cardinality: Cardinality,
        properties: Vec<PropertyDef>,
    ) -> Result<LabelId> {
        let name = name.into();
        if self.edge_by_name.contains_key(&name) {
            return Err(Error::Invalid(format!("duplicate edge label {name}")));
        }
        if src as usize >= self.vertex_labels.len() || dst as usize >= self.vertex_labels.len() {
            return Err(Error::Invalid(format!("edge label {name} references unknown endpoints")));
        }
        let id = self.edge_labels.len() as LabelId;
        self.edge_by_name.insert(name.clone(), id);
        self.edge_labels.push(EdgeLabelDef { name, src, dst, cardinality, properties });
        Ok(id)
    }

    pub fn vertex_label_count(&self) -> usize {
        self.vertex_labels.len()
    }

    pub fn edge_label_count(&self) -> usize {
        self.edge_labels.len()
    }

    pub fn vertex_label(&self, id: LabelId) -> &VertexLabelDef {
        &self.vertex_labels[id as usize]
    }

    pub fn edge_label(&self, id: LabelId) -> &EdgeLabelDef {
        &self.edge_labels[id as usize]
    }

    pub fn vertex_label_id(&self, name: &str) -> Result<LabelId> {
        self.vertex_by_name.get(name).copied().ok_or_else(|| Error::UnknownLabel(name.to_owned()))
    }

    pub fn edge_label_id(&self, name: &str) -> Result<LabelId> {
        self.edge_by_name.get(name).copied().ok_or_else(|| Error::UnknownLabel(name.to_owned()))
    }

    /// Index of `prop` within the vertex label's property list.
    pub fn vertex_prop_idx(&self, label: LabelId, prop: &str) -> Result<usize> {
        let def = &self.vertex_labels[label as usize];
        def.properties.iter().position(|p| p.name == prop).ok_or_else(|| Error::UnknownProperty {
            label: def.name.clone(),
            property: prop.into(),
        })
    }

    /// Index of `prop` within the edge label's property list.
    pub fn edge_prop_idx(&self, label: LabelId, prop: &str) -> Result<usize> {
        let def = &self.edge_labels[label as usize];
        def.properties.iter().position(|p| p.name == prop).ok_or_else(|| Error::UnknownProperty {
            label: def.name.clone(),
            property: prop.into(),
        })
    }

    /// Attach build-time graph statistics (see [`Stats::collect`]).
    pub fn set_stats(&mut self, stats: Stats) {
        self.stats = Some(stats);
    }

    /// Graph statistics, if a storage build attached them.
    pub fn stats(&self) -> Option<&Stats> {
        self.stats.as_ref()
    }

    /// Record where the columnar storage keeps single-cardinality edges
    /// (`StorageConfig::single_card_in_vcols`), which
    /// [`Catalog::column_extend`] reads.
    pub(crate) fn set_single_card_in_vcols(&mut self, in_vcols: bool) {
        self.single_card_in_csrs = !in_vcols;
    }

    /// Does traversing `label` in `dir` read a vertex column — at most one
    /// neighbour per vertex, a `ColumnExtend` that stays in its source's
    /// list group — rather than a CSR list, a `ListExtend` that opens a new
    /// one? The single-cardinality constraint *and* vertex-column storage
    /// (Section 4.1.2): the one predicate the columnar build stores a label
    /// by and the planner, cost model and plan verifier lay out its chunk
    /// by. A schema-only catalog answers for the default storage.
    pub fn column_extend(&self, label: LabelId, dir: Direction) -> bool {
        !self.single_card_in_csrs && self.edge_label(label).cardinality.is_single(dir)
    }

    pub fn vertex_labels(&self) -> &[VertexLabelDef] {
        &self.vertex_labels
    }

    pub fn edge_labels(&self) -> &[EdgeLabelDef] {
        &self.edge_labels
    }

    /// Encode schema + statistics for the on-disk format. The name→ID maps
    /// are rebuilt on decode through the normal registration API, which
    /// also re-validates the schema's internal references.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.vertex_labels.len());
        for v in &self.vertex_labels {
            w.str(&v.name);
            encode_props(w, &v.properties);
            w.opt(v.primary_key, Writer::usize);
        }
        w.usize(self.edge_labels.len());
        for e in &self.edge_labels {
            w.str(&e.name);
            w.u32(e.src as u32);
            w.u32(e.dst as u32);
            w.u8(match e.cardinality {
                Cardinality::OneOne => 0,
                Cardinality::OneMany => 1,
                Cardinality::ManyOne => 2,
                Cardinality::ManyMany => 3,
            });
            encode_props(w, &e.properties);
        }
        w.opt(self.stats.as_ref(), |w, s| s.encode(w));
    }

    /// Decode a [`Catalog::encode`] stream.
    pub fn decode(r: &mut Reader<'_>) -> Result<Catalog> {
        let mut cat = Catalog::new();
        let n_v = r.count()?;
        for _ in 0..n_v {
            let name = r.str()?;
            let properties = decode_props(r)?;
            let pk = r.opt(Reader::usize)?;
            let id = cat
                .add_vertex_label(name, properties)
                .map_err(|e| Error::Storage(format!("bad vertex label: {e}")))?;
            if let Some(idx) = pk {
                let def = &cat.vertex_labels[id as usize];
                let prop_name =
                    def.properties.get(idx).map(|p| p.name.clone()).ok_or_else(|| {
                        Error::Storage(format!("primary key index {idx} out of range"))
                    })?;
                cat.set_primary_key(id, &prop_name)
                    .map_err(|e| Error::Storage(format!("bad primary key: {e}")))?;
            }
        }
        let n_e = r.count()?;
        for _ in 0..n_e {
            let name = r.str()?;
            let src = r.u32()? as LabelId;
            let dst = r.u32()? as LabelId;
            let cardinality = match r.u8()? {
                0 => Cardinality::OneOne,
                1 => Cardinality::OneMany,
                2 => Cardinality::ManyOne,
                3 => Cardinality::ManyMany,
                t => return Err(Error::Storage(format!("invalid cardinality tag {t}"))),
            };
            let properties = decode_props(r)?;
            cat.add_edge_label(name, src, dst, cardinality, properties)
                .map_err(|e| Error::Storage(format!("bad edge label: {e}")))?;
        }
        cat.stats = r.opt(Stats::decode)?;
        Ok(cat)
    }
}

fn encode_props(w: &mut Writer, props: &[PropertyDef]) {
    w.usize(props.len());
    for p in props {
        w.str(&p.name);
        w.dtype(p.dtype);
    }
}

fn decode_props(r: &mut Reader<'_>) -> Result<Vec<PropertyDef>> {
    let n = r.count()?;
    let mut props = Vec::with_capacity(n);
    for _ in 0..n {
        props.push(PropertyDef { name: r.str()?, dtype: r.dtype()? });
    }
    Ok(props)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_single_sides() {
        use Direction::*;
        assert!(Cardinality::OneOne.is_single(Fwd) && Cardinality::OneOne.is_single(Bwd));
        assert!(Cardinality::ManyOne.is_single(Fwd) && !Cardinality::ManyOne.is_single(Bwd));
        assert!(!Cardinality::OneMany.is_single(Fwd) && Cardinality::OneMany.is_single(Bwd));
        assert!(!Cardinality::ManyMany.is_single(Fwd) && !Cardinality::ManyMany.is_single(Bwd));
        assert_eq!(Cardinality::ManyOne.property_side(), Some(Fwd));
        assert_eq!(Cardinality::OneMany.property_side(), Some(Bwd));
        assert_eq!(Cardinality::ManyMany.property_side(), None);
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let mut c = Catalog::new();
        let person = c
            .add_vertex_label(
                "PERSON",
                vec![
                    PropertyDef::new("id", DataType::Int64),
                    PropertyDef::new("age", DataType::Int64),
                ],
            )
            .unwrap();
        let org =
            c.add_vertex_label("ORG", vec![PropertyDef::new("estd", DataType::Int64)]).unwrap();
        let works = c
            .add_edge_label(
                "WORKAT",
                person,
                org,
                Cardinality::ManyOne,
                vec![PropertyDef::new("doj", DataType::Int64)],
            )
            .unwrap();
        assert_eq!(c.vertex_label_id("PERSON").unwrap(), person);
        assert_eq!(c.edge_label_id("WORKAT").unwrap(), works);
        assert_eq!(c.vertex_prop_idx(person, "age").unwrap(), 1);
        assert!(c.vertex_prop_idx(person, "nope").is_err());
        assert!(c.vertex_label_id("NOPE").is_err());
        assert_eq!(c.edge_label(works).nbr_label(Direction::Fwd), org);
        assert_eq!(c.edge_label(works).nbr_label(Direction::Bwd), person);
        c.set_primary_key(person, "id").unwrap();
        assert_eq!(c.vertex_label(person).primary_key, Some(0));
    }

    #[test]
    fn encode_roundtrips_schema_and_pk() {
        let mut c = Catalog::new();
        let person = c
            .add_vertex_label(
                "PERSON",
                vec![
                    PropertyDef::new("id", DataType::Int64),
                    PropertyDef::new("name", DataType::String),
                ],
            )
            .unwrap();
        let org = c.add_vertex_label("ORG", vec![]).unwrap();
        c.set_primary_key(person, "id").unwrap();
        c.add_edge_label(
            "WORKAT",
            person,
            org,
            Cardinality::ManyOne,
            vec![PropertyDef::new("doj", DataType::Date)],
        )
        .unwrap();
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let back = Catalog::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.vertex_label_count(), 2);
        assert_eq!(back.vertex_label_id("PERSON").unwrap(), person);
        assert_eq!(back.vertex_label(person).primary_key, Some(0));
        assert_eq!(back.vertex_label(person).properties[1].dtype, DataType::String);
        let e = back.edge_label(back.edge_label_id("WORKAT").unwrap());
        assert_eq!((e.src, e.dst, e.cardinality), (person, org, Cardinality::ManyOne));
        assert_eq!(e.properties[0].dtype, DataType::Date);
        assert!(Catalog::decode(&mut Reader::new(&bytes[..10])).is_err());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut c = Catalog::new();
        c.add_vertex_label("A", vec![]).unwrap();
        assert!(c.add_vertex_label("A", vec![]).is_err());
        assert!(c.add_edge_label("E", 0, 9, Cardinality::ManyMany, vec![]).is_err());
    }

    #[test]
    fn primary_key_must_be_int() {
        let mut c = Catalog::new();
        let l = c.add_vertex_label("A", vec![PropertyDef::new("name", DataType::String)]).unwrap();
        assert!(c.set_primary_key(l, "name").is_err());
    }
}
