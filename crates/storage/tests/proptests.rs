//! Property-based tests of the storage invariants, of the snapshot-read
//! invariant at the seam
//! every engine reads it through — `GraphView` over either baseline layout
//! agrees with a rebuild of [`merged_raw`] — of the persistent containers
//! the delta is kept in: each agrees with its std model, and a published
//! snapshot never sees a later write — and of merge: it rebuilds exactly
//! the labels its delta touched, each as a full rebuild would, and shares
//! the rest by pointer.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gfcl_columnar::{NullKind, PageCursor};
use gfcl_common::{DataType, Direction, LabelId, Value};
use gfcl_storage::edge_prop_pages::assign_insertion_order;
use gfcl_storage::{
    merged_raw, BaselineRead, Cardinality, Catalog, ColumnarGraph, Csr, CsrOptions, DeltaStore,
    GraphSnapshot, GraphStore, GraphView, PMap, PVec, PropertyDef, RawGraph, ReadCursors, RowGraph,
    StorageConfig, WriteTxn,
};
use proptest::prelude::*;

/// Random edge lists over a small vertex set.
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(u64, u64)>)> {
    (2usize..40)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n as u64, 0..n as u64), 0..200)))
}

proptest! {
    /// Invariant 4: flattening all CSR adjacency lists reproduces the exact
    /// multiset of input edges, under every empty-list layout, and the
    /// forward and backward CSRs are transposes of each other.
    #[test]
    fn csr_roundtrips_and_transposes((n, edges) in edges_strategy()) {
        let src: Vec<u64> = edges.iter().map(|e| e.0).collect();
        let dst: Vec<u64> = edges.iter().map(|e| e.1).collect();
        for nulls in [NullKind::Uncompressed, NullKind::Vanilla, NullKind::jacobson_default()] {
            let opts = CsrOptions { zero_suppress: true, nulls };
            let (fwd, _) = Csr::build(n, &src, &dst, opts);
            let (bwd, _) = Csr::build(n, &dst, &src, opts);

            let mut expected: Vec<(u64, u64)> = edges.clone();
            expected.sort_unstable();
            let mut from_fwd = Vec::new();
            for v in 0..n as u64 {
                for (_, nb) in fwd.iter_list(v) {
                    from_fwd.push((v, nb));
                }
            }
            from_fwd.sort_unstable();
            prop_assert_eq!(&from_fwd, &expected);

            let mut from_bwd = Vec::new();
            for v in 0..n as u64 {
                for (_, nb) in bwd.iter_list(v) {
                    from_bwd.push((nb, v)); // transpose back
                }
            }
            from_bwd.sort_unstable();
            prop_assert_eq!(&from_bwd, &expected);

            // Degrees consistent with the multiset.
            for v in 0..n as u64 {
                prop_assert_eq!(fwd.degree(v), src.iter().filter(|&&s| s == v).count());
                prop_assert_eq!(bwd.degree(v), dst.iter().filter(|&&d| d == v).count());
            }
        }
    }

    /// Invariant 5 (page geometry): insertion-order page assignment is a
    /// bijection between edges and flat slots; flat = page_start + slot;
    /// slots never exceed the max page offset; pages partition the range.
    #[test]
    fn page_assignment_is_consistent((n, edges) in edges_strategy(), k in 1usize..16) {
        let src: Vec<u64> = edges.iter().map(|e| e.0).collect();
        let a = assign_insertion_order(k, n, &src);
        // Bijection: all flat indices distinct and dense in 0..m.
        let mut flats = a.flat_of_input.clone();
        flats.sort_unstable();
        let expected: Vec<u64> = (0..src.len() as u64).collect();
        prop_assert_eq!(flats, expected);
        // flat = page_start[page] + slot, slot bounded by max page size.
        for (i, &s) in src.iter().enumerate() {
            let page = s as usize / k;
            prop_assert_eq!(
                a.flat_of_input[i],
                a.page_starts[page] + a.slot_of_input[i]
            );
            prop_assert!(a.slot_of_input[i] < a.max_page_size.max(1));
            // Within the page's range.
            prop_assert!(a.flat_of_input[i] < a.page_starts[page + 1]);
        }
        // Page starts are monotone.
        prop_assert!(a.page_starts.windows(2).all(|w| w[0] <= w[1]));
    }
}

// ---- the overlay seam -------------------------------------------------------

/// One random mutation; vertex operands index into the harness's lists of
/// offsets it has seen, so ops stay meaningful as the graph shrinks and
/// grows. Small index ranges make repeats likely: parallel duplicates of
/// one endpoint pair, deletes that pick them off by occurrence, and
/// delete-then-reinsert of the same edge or key.
#[derive(Debug, Clone)]
enum Op {
    InsertA { x: i64 },
    InsertB { y: i64 },
    UpdateA { slot: usize, x: i64 },
    DeleteA { slot: usize },
    DeleteB { slot: usize },
    InsertEdge { single: bool, a: usize, b: usize, w: i64 },
    DeleteEdge { single: bool, a: usize, b: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-50i64..50).prop_map(|x| Op::InsertA { x }),
        (-50i64..50).prop_map(|y| Op::InsertB { y }),
        (0usize..8, -50i64..50).prop_map(|(slot, x)| Op::UpdateA { slot, x }),
        (0usize..8).prop_map(|slot| Op::DeleteA { slot }),
        (0usize..8).prop_map(|slot| Op::DeleteB { slot }),
        (any::<bool>(), 0usize..8, 0usize..8, -30i64..30)
            .prop_map(|(single, a, b, w)| Op::InsertEdge { single, a, b, w }),
        (any::<bool>(), 0usize..8, 0usize..8).prop_map(|(single, a, b)| Op::DeleteEdge {
            single,
            a,
            b
        }),
    ]
}

/// `(n_a, n_b, AB edges with duplicates, ops)`.
type Scenario = (usize, usize, Vec<(u64, u64, i64)>, Vec<Op>);

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (2usize..7, 2usize..7).prop_flat_map(|(n_a, n_b)| {
        let ab = proptest::collection::vec((0..n_a as u64, 0..n_b as u64, -30i64..30), 0..40);
        (Just(n_a), Just(n_b), ab, proptest::collection::vec(op_strategy(), 1..48))
    })
}

/// Two pk-keyed labels, a ManyMany edge stored in CSRs both ways and a
/// ManyOne edge whose forward adjacency is a vertex column.
fn overlay_base(n_a: usize, n_b: usize, ab: &[(u64, u64, i64)]) -> RawGraph {
    let int = |name| PropertyDef::new(name, DataType::Int64);
    let mut cat = Catalog::new();
    let a = cat.add_vertex_label("A", vec![int("id"), int("x")]).unwrap();
    let b = cat.add_vertex_label("B", vec![int("id"), int("y")]).unwrap();
    let many = cat.add_edge_label("AB", a, b, Cardinality::ManyMany, vec![int("w")]).unwrap();
    let one = cat.add_edge_label("SINGLE", a, b, Cardinality::ManyOne, vec![int("w")]).unwrap();
    cat.set_primary_key(a, "id").unwrap();
    cat.set_primary_key(b, "id").unwrap();

    let mut raw = RawGraph::new(cat);
    for (label, n) in [(a, n_a), (b, n_b)] {
        let t = &mut raw.vertices[label as usize];
        t.count = n;
        for v in 0..n as i64 {
            t.props[0].push_i64(v);
            t.props[1].push_i64((v * 7) % 23 - 11);
        }
    }
    for &(src, dst, w) in ab {
        let t = &mut raw.edges[many as usize];
        t.src.push(src);
        t.dst.push(dst);
        t.props[0].push_i64(w);
    }
    for v in (0..n_a as u64).step_by(2) {
        let t = &mut raw.edges[one as usize];
        t.src.push(v);
        t.dst.push(v % n_b as u64);
        t.props[0].push_i64(v as i64 - 4);
    }
    raw.validate().unwrap();
    raw
}

/// The naive reference the overlay is checked against: live vertices by
/// offset and live edges in one global order — baseline table order, then
/// insertion order — which restricted to one endpoint is exactly the order
/// of that vertex's merged list, in either direction.
#[derive(Default)]
struct Model {
    /// `[A, B]`: offset -> `(id, x or y)`.
    vertices: [std::collections::BTreeMap<u64, (i64, i64)>; 2],
    /// `(edge label, src, dst, w)`.
    edges: Vec<(LabelId, u64, u64, i64)>,
}

impl Model {
    fn of(raw: &RawGraph) -> Model {
        let mut m = Model::default();
        for (l, t) in raw.vertices.iter().enumerate() {
            for v in 0..t.count {
                let int = |p: usize| t.props[p].value(v, DataType::Int64).as_i64().unwrap();
                m.vertices[l].insert(v as u64, (int(0), int(1)));
            }
        }
        for (l, t) in raw.edges.iter().enumerate() {
            for i in 0..t.len() {
                let w = t.props[0].value(i, DataType::Int64).as_i64().unwrap();
                m.edges.push((l as LabelId, t.src[i], t.dst[i], w));
            }
        }
        m
    }

    fn delete_vertex(&mut self, label: usize, off: u64) {
        self.vertices[label].remove(&off);
        self.edges.retain(|&(_, src, dst, _)| [src, dst][label] != off);
    }

    /// The expected `(label, dir)` list of `from`.
    fn list(&self, label: LabelId, dir: Direction, from: u64) -> Vec<(u64, Vec<Value>)> {
        let ends = |src, dst| if dir == Direction::Fwd { (src, dst) } else { (dst, src) };
        self.edges
            .iter()
            .filter(|&&(l, src, dst, _)| l == label && ends(src, dst).0 == from)
            .map(|&(_, src, dst, w)| (ends(src, dst).1, vec![Value::Int64(w)]))
            .collect()
    }
}

/// Apply `ops` in committed batches of four, mirroring every accepted op
/// in the model. Rejected ops (dead operands, cardinality violations, no
/// such live edge) are part of the input space.
fn apply_batches(store: &GraphStore, model: &mut Model, ops: &[Op]) {
    let mut offs: [Vec<u64>; 2] = [0, 1].map(|l| model.vertices[l].keys().copied().collect());
    let mut next_id = 1_000i64;
    let pick = |offs: &[u64], i: usize| offs[i % offs.len()];
    for batch in ops.chunks(4) {
        let mut txn = store.begin_write();
        for op in batch {
            match *op {
                Op::InsertA { x: v } | Op::InsertB { y: v } => {
                    let l = usize::from(matches!(op, Op::InsertB { .. }));
                    next_id += 1;
                    let row = [("id", Value::Int64(next_id)), (["x", "y"][l], Value::Int64(v))];
                    let off = txn.insert_vertex(["A", "B"][l], &row).unwrap();
                    offs[l].push(off);
                    model.vertices[l].insert(off, (next_id, v));
                }
                Op::UpdateA { slot, x } => {
                    let off = pick(&offs[0], slot);
                    txn.update_vertex("A", off, &[("x", Value::Int64(x))]).unwrap();
                    model.vertices[0].get_mut(&off).unwrap().1 = x;
                }
                Op::DeleteA { slot } | Op::DeleteB { slot } => {
                    let l = usize::from(matches!(op, Op::DeleteB { .. }));
                    if offs[l].len() > 1 {
                        let off = offs[l].remove(slot % offs[l].len());
                        txn.delete_vertex(["A", "B"][l], off).unwrap();
                        model.delete_vertex(l, off);
                    }
                }
                Op::InsertEdge { single, a, b, w } => {
                    let (src, dst) = (pick(&offs[0], a), pick(&offs[1], b));
                    let name = ["AB", "SINGLE"][usize::from(single)];
                    if txn.insert_edge(name, src, dst, &[("w", Value::Int64(w))]).is_ok() {
                        model.edges.push((LabelId::from(single), src, dst, w));
                    }
                }
                Op::DeleteEdge { single, a, b } => {
                    let (src, dst) = (pick(&offs[0], a), pick(&offs[1], b));
                    let key = (LabelId::from(single), src, dst);
                    // "The first live edge": the model's order is the
                    // resolution order (baseline occurrences, then delta).
                    let hit = model.edges.iter().position(|&(l, s, d, _)| (l, s, d) == key);
                    let deleted = txn.delete_edge(["AB", "SINGLE"][usize::from(single)], src, dst);
                    assert_eq!(deleted.is_ok(), hit.is_some(), "delete_edge {key:?}");
                    if let Some(i) = hit {
                        model.edges.remove(i);
                    }
                }
            }
        }
        txn.commit().unwrap();
    }
}

/// The live `(label, dir)` list of `from`: `(neighbour, property row)`.
fn live_list<B: BaselineRead>(
    view: GraphView<'_, B>,
    label: LabelId,
    dir: Direction,
    from: u64,
) -> Vec<(u64, Vec<Value>)> {
    let n_props = view.base().catalog().edge_label(label).properties.len();
    let mut edges = Vec::new();
    view.for_each_live_edge(&mut ReadCursors::default(), label, dir, from, |nbr, tag| {
        edges.push((nbr, tag))
    });
    // The materialized list and the single-neighbour read sit on the walk.
    let (nbrs, tags) = view.merged_adj(&mut ReadCursors::default(), label, dir, from);
    assert_eq!(nbrs.into_iter().zip(tags).collect::<Vec<_>>(), edges);
    assert_eq!(
        view.single_nbr(&mut ReadCursors::default(), label, dir, from),
        edges.first().copied()
    );
    edges
        .into_iter()
        .map(|(nbr, tag)| {
            let row = (0..n_props).map(|p| {
                view.edge_value(&mut ReadCursors::default(), label, dir, from, tag, p).unwrap()
            });
            (nbr, row.collect())
        })
        .collect()
}

proptest! {
    /// The snapshot-read invariant, checked once at the seam all engines
    /// share: after random committed batches, the overlay over the columnar
    /// baseline and the overlay over a row graph built from the same input
    /// agree — vertex by vertex and list by list — with a naive model of
    /// the mutations and, modulo the offset compaction, with a graph
    /// rebuilt from `merged_raw`.
    #[test]
    fn overlay_agrees_across_baselines_and_with_rebuild(
        (n_a, n_b, ab, ops) in scenario_strategy(),
    ) {
        let raw = overlay_base(n_a, n_b, &ab);
        let store = GraphStore::in_memory(&raw, StorageConfig::default()).unwrap();
        let mut model = Model::of(&raw);
        apply_batches(&store, &mut model, &ops);

        let snap = store.snapshot();
        let rows = RowGraph::build(&raw).unwrap();
        let col = snap.view();
        let row = GraphView::new(&rows, Some(snap.delta()));
        let rebuilt = ColumnarGraph::build(
            &merged_raw(snap.base(), snap.delta()).unwrap(),
            StorageConfig::default(),
        )
        .unwrap();
        let clean = GraphView::clean(&rebuilt);
        let catalog = snap.catalog();

        // Vertices; `remap[label][offset]` is the rebuild's compaction.
        let mut remap: Vec<Vec<Option<u64>>> = Vec::new();
        for label in 0..catalog.vertex_label_count() as LabelId {
            prop_assert_eq!(col.scan_total(label), row.scan_total(label));
            let mut map = Vec::new();
            let mut live = 0u64;
            for off in 0..col.scan_total(label) {
                let want = model.vertices[label as usize].get(&off);
                prop_assert_eq!(col.vertex_live(label, off), want.is_some());
                prop_assert_eq!(row.vertex_live(label, off), want.is_some());
                let Some(&(key, val)) = want else {
                    // Baseline ids equal their offsets (delta ids start at
                    // 1000): a tombstone must hide the key as well.
                    prop_assert_eq!(col.lookup_pk(label, off as i64), None);
                    prop_assert_eq!(row.lookup_pk(label, off as i64), None);
                    map.push(None);
                    continue;
                };
                // One cursor per graph: a cursor keys its pages by number.
                let (cur, clean_cur) = (&mut PageCursor::new(), &mut PageCursor::new());
                for (p, v) in [key, val].into_iter().map(Value::Int64).enumerate() {
                    prop_assert_eq!(&col.vertex_value(cur, label, off, p), &v);
                    prop_assert_eq!(&row.vertex_value(cur, label, off, p), &v);
                    prop_assert_eq!(&clean.vertex_value(clean_cur, label, live, p), &v);
                }
                prop_assert_eq!(col.lookup_pk(label, key), Some(off));
                prop_assert_eq!(row.lookup_pk(label, key), Some(off));
                prop_assert_eq!(clean.lookup_pk(label, key), Some(live));
                map.push(Some(live));
                live += 1;
            }
            prop_assert_eq!(clean.scan_total(label), live);
            remap.push(map);
        }

        // Adjacency, both directions of both edge labels.
        for label in 0..catalog.edge_label_count() as LabelId {
            let def = catalog.edge_label(label);
            for dir in [Direction::Fwd, Direction::Bwd] {
                let (fl, nl) = (def.from_label(dir) as usize, def.nbr_label(dir) as usize);
                for from in 0..col.scan_total(def.from_label(dir)) {
                    let list = model.list(label, dir, from);
                    prop_assert_eq!(&live_list(col, label, dir, from), &list);
                    prop_assert_eq!(&live_list(row, label, dir, from), &list);
                    let Some(new_from) = remap[fl][from as usize] else {
                        prop_assert!(list.is_empty(), "a dead vertex kept live edges");
                        continue;
                    };
                    let mut want: Vec<_> = list
                        .into_iter()
                        .map(|(nbr, props)| (remap[nl][nbr as usize].expect("live nbr"), props))
                        .collect();
                    let mut got = live_list(clean, label, dir, new_from);
                    if dir == Direction::Bwd {
                        // The rebuild regroups backward lists by the merged
                        // table's order; only forward order is preserved.
                        want.sort_by_cached_key(|e| format!("{e:?}"));
                        got.sort_by_cached_key(|e| format!("{e:?}"));
                    }
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}

// ---- the persistent containers ----------------------------------------------

/// A key whose hash is its residue mod 7: most keys share a full hash with
/// others, so lookups, inserts and removals go through collision nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Clash(u16);

impl Hash for Clash {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self.0 % 7).hash(h);
    }
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u32),
    Remove(u16),
    /// Keep a clone of the map (and of the model) to check at the end.
    Pin,
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    let insert = || (0u16..700, any::<u32>()).prop_map(|(k, v)| MapOp::Insert(k, v));
    let op = prop_oneof![insert(), insert(), (0u16..700).prop_map(MapOp::Remove), Just(MapOp::Pin)];
    proptest::collection::vec(op, 0..1_500)
}

/// Run `ops` on a [`PMap`] and a `HashMap` side by side: every result
/// agrees, and every pinned clone still equals the model it was pinned
/// with after all later writes.
fn check_map<K: Hash + Eq + Clone + std::fmt::Debug>(ops: &[MapOp], key: impl Fn(u16) -> K) {
    let agree = |map: &PMap<K, u32>, model: &HashMap<u16, u32>| {
        assert_eq!(map.len(), model.len());
        for k in 0..700 {
            assert_eq!(map.get(&key(k)), model.get(&k), "key {k}");
        }
    };
    let mut map = PMap::new();
    let mut model = HashMap::new();
    let mut pinned = Vec::new();
    for op in ops {
        match *op {
            MapOp::Insert(k, v) => assert_eq!(map.insert(key(k), v), model.insert(k, v)),
            MapOp::Remove(k) => assert_eq!(map.remove(&key(k)), model.remove(&k)),
            MapOp::Pin => pinned.push((map.clone(), model.clone())),
        }
    }
    agree(&map, &model);
    for (map, model) in &pinned {
        agree(map, model);
    }
}

#[derive(Debug, Clone)]
enum VecOp {
    Push(u32),
    Pop,
    Set(u16, u32),
    Pin,
}

fn vec_ops() -> impl Strategy<Value = Vec<VecOp>> {
    let push = || any::<u32>().prop_map(VecOp::Push);
    let set = (any::<u16>(), any::<u32>()).prop_map(|(i, v)| VecOp::Set(i, v));
    let op = prop_oneof![push(), push(), push(), Just(VecOp::Pop), set, Just(VecOp::Pin)];
    // Pushes outnumber pops, so lengths pass 1 024 and the trie grows a
    // third level (and shrinks back when pops win for a while).
    proptest::collection::vec(op, 0..4_000)
}

fn check_vec(v: &PVec<u32>, model: &[u32]) {
    assert_eq!(v.len(), model.len());
    assert!(v.iter().eq(model.iter()));
    for (i, x) in model.iter().enumerate() {
        assert_eq!((v.get(i), &v[i]), (Some(x), x), "index {i}");
    }
    assert_eq!(v.get(model.len()), None);
    assert_eq!(v.last(), model.last());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `PMap` is a `HashMap` whose clones are independent.
    #[test]
    fn pmap_matches_a_hash_map(ops in map_ops()) {
        check_map(&ops, |k| u64::from(k) * 1_021);
    }

    /// The same with forced hash collisions.
    #[test]
    fn pmap_matches_a_hash_map_under_collisions(ops in map_ops()) {
        check_map(&ops, Clash);
    }

    /// `PVec` is a `Vec` whose clones are independent.
    #[test]
    fn pvec_matches_a_vec(ops in vec_ops()) {
        let mut v = PVec::new();
        let mut model = Vec::new();
        let mut pinned = Vec::new();
        for op in &ops {
            match *op {
                VecOp::Push(x) => {
                    v.push(x);
                    model.push(x);
                }
                VecOp::Pop => prop_assert_eq!(v.pop(), model.pop()),
                VecOp::Set(i, x) => {
                    let i = usize::from(i) % model.len().max(1);
                    let old = model.get_mut(i).map(|m| std::mem::replace(m, x));
                    prop_assert_eq!(v.set(i, x), old);
                }
                VecOp::Pin => pinned.push((v.clone(), model.clone())),
            }
        }
        check_vec(&v, &model);
        for (v, model) in &pinned {
            check_vec(v, model);
        }
    }
}

// ---- structural sharing never reaches a published snapshot ------------------

/// Baseline `A` offsets are this far apart, so the harness's writes land in
/// several zone blocks of `A`.
const SPREAD: u64 = 700;
/// Delta primary keys start here (baseline keys equal their offsets).
const FIRST_DELTA_ID: i64 = 1_000_000;

fn tagged(tag: &str, v: i64, of: i64) -> Value {
    Value::String(format!("{tag}{}", v.rem_euclid(of)))
}

/// The seam test's schema with a string property on `A` and on `AB`: the
/// baseline holds `s0..s3` and `t0..t2`, writes also use `s4..s7` and
/// `t3..t5`, which take extension codes.
fn sharing_base(n_a: usize, n_b: usize, ab: &[(u64, u64, i64)]) -> RawGraph {
    sharing_base_with(n_a, n_b, ab, 0)
}

/// [`sharing_base`], plus — when `n_c > 0` — labels the seam ops never
/// name: a vertex label `C` of `n_c` vertices, an edge label `CC` among
/// them, and a property-less edge label `AC` from every other spread `A`
/// vertex, which only a delete's cascade or a moved `A` offset reaches.
fn sharing_base_with(n_a: usize, n_b: usize, ab: &[(u64, u64, i64)], n_c: usize) -> RawGraph {
    let int = |name| PropertyDef::new(name, DataType::Int64);
    let string = |name| PropertyDef::new(name, DataType::String);
    let mut cat = Catalog::new();
    let a = cat.add_vertex_label("A", vec![int("id"), int("x"), string("s")]).unwrap();
    let b = cat.add_vertex_label("B", vec![int("id"), int("y")]).unwrap();
    let many =
        cat.add_edge_label("AB", a, b, Cardinality::ManyMany, vec![int("w"), string("t")]).unwrap();
    let one = cat.add_edge_label("SINGLE", a, b, Cardinality::ManyOne, vec![int("w")]).unwrap();
    cat.set_primary_key(a, "id").unwrap();
    cat.set_primary_key(b, "id").unwrap();
    let untouched = (n_c > 0).then(|| {
        let c = cat.add_vertex_label("C", vec![int("id"), string("z")]).unwrap();
        let cc_props = vec![int("w"), string("t")];
        let cc = cat.add_edge_label("CC", c, c, Cardinality::ManyMany, cc_props).unwrap();
        let ac = cat.add_edge_label("AC", a, c, Cardinality::ManyMany, vec![]).unwrap();
        cat.set_primary_key(c, "id").unwrap();
        (c, cc, ac)
    });

    let mut raw = RawGraph::new(cat);
    if let Some((c, cc, ac)) = untouched {
        let t = &mut raw.vertices[c as usize];
        t.count = n_c;
        for v in 0..n_c as i64 {
            t.props[0].push_i64(v);
            t.props[1].push_value(tagged("z", v, 3)).unwrap();
        }
        let n_c = n_c as u64;
        for v in 0..n_c {
            for (dst, w) in [((v * 3 + 1) % n_c, v as i64), ((v + 1) % n_c, -(v as i64))] {
                let t = &mut raw.edges[cc as usize];
                t.src.push(v);
                t.dst.push(dst);
                t.props[0].push_i64(w);
                t.props[1].push_value(tagged("t", w, 3)).unwrap();
            }
        }
        for v in (0..n_a as u64).step_by(2) {
            let t = &mut raw.edges[ac as usize];
            t.src.push(v * SPREAD);
            t.dst.push(v % n_c);
        }
    }
    let counts = [(n_a as u64 - 1) * SPREAD + 1, n_b as u64];
    for (label, n) in [a, b].into_iter().zip(counts) {
        let t = &mut raw.vertices[label as usize];
        t.count = n as usize;
        for v in 0..n as i64 {
            t.props[0].push_i64(v);
            t.props[1].push_i64((v * 7) % 23 - 11);
            if label == a {
                t.props[2].push_value(tagged("s", v, 4)).unwrap();
            }
        }
    }
    for &(src, dst, w) in ab {
        let t = &mut raw.edges[many as usize];
        t.src.push(src * SPREAD);
        t.dst.push(dst);
        t.props[0].push_i64(w);
        t.props[1].push_value(tagged("t", w, 3)).unwrap();
    }
    for v in (0..n_a as u64).step_by(2) {
        let t = &mut raw.edges[one as usize];
        t.src.push(v * SPREAD);
        t.dst.push(v % n_b as u64);
        t.props[0].push_i64(v as i64 - 4);
    }
    raw.validate().unwrap();
    raw
}

/// The live offsets ops draw operands from, and the last primary key used.
#[derive(Clone)]
struct Operands {
    offs: [Vec<u64>; 2],
    last_id: i64,
}

/// Issue `ops` in `txn` the way the seam test does, writing strings on `A`
/// rows and `AB` edges. Rejected edge ops are part of the input space.
fn issue(txn: &mut WriteTxn<'_>, at: &mut Operands, ops: &[Op]) {
    let pick = |offs: &[u64], i: usize| offs[i % offs.len()];
    for op in ops {
        match *op {
            Op::InsertA { x: v } | Op::InsertB { y: v } => {
                let l = usize::from(matches!(op, Op::InsertB { .. }));
                at.last_id += 1;
                let mut row =
                    vec![("id", Value::Int64(at.last_id)), (["x", "y"][l], Value::Int64(v))];
                if l == 0 {
                    row.push(("s", tagged("s", v, 8)));
                }
                let off = txn.insert_vertex(["A", "B"][l], &row).unwrap();
                at.offs[l].push(off);
            }
            Op::UpdateA { slot, x } => {
                let off = pick(&at.offs[0], slot);
                let row = [("x", Value::Int64(x)), ("s", tagged("s", x, 8))];
                txn.update_vertex("A", off, &row).unwrap();
            }
            Op::DeleteA { slot } | Op::DeleteB { slot } => {
                let l = usize::from(matches!(op, Op::DeleteB { .. }));
                if at.offs[l].len() > 1 {
                    let off = at.offs[l].remove(slot % at.offs[l].len());
                    txn.delete_vertex(["A", "B"][l], off).unwrap();
                }
            }
            Op::InsertEdge { single, a, b, w } => {
                let (src, dst) = (pick(&at.offs[0], a), pick(&at.offs[1], b));
                let mut props = vec![("w", Value::Int64(w))];
                if !single {
                    props.push(("t", tagged("t", w, 6)));
                }
                let _ = txn.insert_edge(["AB", "SINGLE"][usize::from(single)], src, dst, &props);
            }
            Op::DeleteEdge { single, a, b } => {
                let (src, dst) = (pick(&at.offs[0], a), pick(&at.offs[1], b));
                let _ = txn.delete_edge(["AB", "SINGLE"][usize::from(single)], src, dst);
            }
        }
    }
}

/// Everything a snapshot's delta answers, through its reader accessors:
/// delta rows, updated rows, tombstones, primary-key hits, string
/// extensions, touched zone blocks, per-endpoint delta edges both ways,
/// dirty lists, delta edges and baseline-edge tombstones.
fn dump(snap: &GraphSnapshot, raw: &RawGraph, max_id: i64) -> String {
    use std::fmt::Write;
    let (base, d) = (snap.base(), snap.delta());
    let catalog = base.catalog();
    let zb = gfcl_columnar::ZONE_BLOCK as u64;
    let mut out = format!("empty {} entries {}\n", d.is_empty(), d.mutation_count());
    for l in 0..catalog.vertex_label_count() as LabelId {
        let n_base = base.vertex_count(l) as u64;
        let _ =
            writeln!(out, "v{l} slots {} touched {}", d.delta_slots(l), d.vertex_label_touched(l));
        for slot in 0..d.delta_slots(l) {
            let _ = writeln!(out, "  row {slot} {:?}", d.delta_row(l, slot));
        }
        for off in 0..n_base {
            if let Some(row) = d.updated_row(l, off) {
                let _ = writeln!(out, "  update {off} {row:?}");
            }
            if d.vertex_tombed(l, off) {
                let _ = writeln!(out, "  tomb {off}");
            }
        }
        for key in (0..n_base as i64).chain(FIRST_DELTA_ID..=max_id) {
            if let Some(off) = d.pk_delta(l, key) {
                let _ = writeln!(out, "  pk {key} -> {off}");
            }
        }
        for p in 0..catalog.vertex_label(l).properties.len() {
            let codes: Vec<_> =
                d.vertex_str_ext(l, p).map(|e| e.iter().collect()).unwrap_or_default();
            let _ = writeln!(out, "  ext {p} {codes:?}");
        }
        for block in 0..n_base.div_ceil(zb) {
            let end = ((block + 1) * zb).min(n_base);
            let _ = writeln!(out, "  block {block} {}", d.base_range_touched(l, block * zb, end));
        }
    }
    for l in 0..catalog.edge_label_count() as LabelId {
        let def = catalog.edge_label(l);
        for dir in [Direction::Fwd, Direction::Bwd] {
            let from_label = def.from_label(dir);
            let total = base.vertex_count(from_label) as u64 + d.delta_slots(from_label);
            let _ = writeln!(out, "e{l}{dir} touched {}", d.edge_label_touched(l, dir));
            for from in 0..total {
                let edges = d.delta_edges_from(l, dir, from);
                if !edges.is_empty() || d.edge_list_dirty(l, dir, from) {
                    let _ = writeln!(out, "  {from} dirty {edges:?}",);
                }
            }
            for p in 0..def.properties.len() {
                let codes: Vec<_> =
                    d.edge_str_ext(l, dir, p).map(|e| e.iter().collect()).unwrap_or_default();
                let _ = writeln!(out, "  ext {p} {codes:?}");
            }
        }
        for idx in 0..d.delta_edge_count(l) {
            let _ = writeln!(out, "  edge {idx} {:?}", d.delta_edge(l, idx));
        }
        let t = &raw.edges[l as usize];
        let mut pairs: Vec<(u64, u64)> = t.src.iter().copied().zip(t.dst.iter().copied()).collect();
        pairs.sort_unstable();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let occ = pairs[..i].iter().filter(|&&p| p == (src, dst)).count() as u32;
            let _ = writeln!(out, "  tombed {src} {dst} {occ} {}", d.edge_tombed(l, src, dst, occ));
        }
    }
    out
}

/// One write batch and what becomes of it.
#[derive(Debug, Clone)]
enum Fate {
    Commit,
    /// Applied in a transaction that is then dropped.
    Abort,
    /// Committed with a WAL append that fails after `cut` bytes.
    Fail {
        cut: usize,
    },
}

fn batches_strategy() -> impl Strategy<Value = Vec<(Fate, Vec<Op>)>> {
    let fate = prop_oneof![
        Just(Fate::Commit),
        Just(Fate::Commit),
        Just(Fate::Abort),
        (0usize..48).prop_map(|cut| Fate::Fail { cut }),
    ];
    proptest::collection::vec((fate, proptest::collection::vec(op_strategy(), 1..6)), 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writers share every node of the published delta they do not write,
    /// so a write that copied too little would reach back into snapshots
    /// readers hold. Random batches are committed, aborted or failed at the
    /// WAL on a directory-backed store; every snapshot pinned along the way
    /// must answer at the end exactly as it did when it was pinned.
    #[test]
    fn published_snapshots_never_see_later_writes(
        (n_a, n_b, ab) in (2usize..6, 2usize..6).prop_flat_map(|(n_a, n_b)| {
            let ab = proptest::collection::vec((0..n_a as u64, 0..n_b as u64, -30i64..30), 0..30);
            (Just(n_a), Just(n_b), ab)
        }),
        batches in batches_strategy(),
    ) {
        let raw = sharing_base(n_a, n_b, &ab);
        let dir = std::env::temp_dir().join(format!(
            "gfcl_sharing_{}_{:x}",
            std::process::id(),
            ab.iter().fold(n_a as u64 * 31 + n_b as u64, |h, e| h.rotate_left(7) ^ e.0 ^ e.1 << 8)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = GraphStore::create(&dir, &raw, StorageConfig::default()).unwrap();
        let max_id = FIRST_DELTA_ID + 6 * batches.len() as i64;
        let mut at = Operands {
            offs: [(0..n_a as u64).map(|i| i * SPREAD).collect(), (0..n_b as u64).collect()],
            last_id: FIRST_DELTA_ID,
        };
        let mut pinned = Vec::new();
        for (fate, ops) in &batches {
            let snap = store.snapshot();
            pinned.push((dump(&snap, &raw, max_id), snap));
            let mut next = at.clone();
            let mut txn = store.begin_write();
            issue(&mut txn, &mut next, ops);
            match fate {
                Fate::Commit => {
                    txn.commit().unwrap();
                    at = next;
                }
                Fate::Abort => drop(txn),
                Fate::Fail { cut } => {
                    // An empty transaction never reaches the log: arm the
                    // one-shot failure only for a commit that appends.
                    if txn.op_count() > 0 {
                        store.inject_wal_append_failure(*cut);
                        prop_assert!(txn.commit().is_err(), "the injected WAL failure fired");
                    }
                }
            }
        }
        let last = store.snapshot();
        pinned.push((dump(&last, &raw, max_id), last));
        for (i, (then, snap)) in pinned.iter().enumerate() {
            prop_assert_eq!(&dump(snap, &raw, max_id), then, "snapshot {} changed", i);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- a merge rebuilds what changed and shares the rest ----------------------

/// The labels a merge of `snap` must rebuild, worked out from the reader
/// API alone: a vertex label the delta touched; an edge label whose edges
/// it touched, or one with an endpoint label whose vertex count changes or
/// whose surviving baseline vertices sit above a tombstone. A paged
/// baseline rebuilds every label.
fn expected_rebuilds(snap: &GraphSnapshot) -> (Vec<bool>, Vec<bool>) {
    let (base, d, view) = (snap.base(), snap.delta(), snap.view());
    let catalog = base.catalog();
    let paged = base.buffer_pool().is_some();
    let moved: Vec<bool> = (0..catalog.vertex_label_count() as LabelId)
        .map(|l| {
            let n = base.vertex_count(l) as u64;
            let live = (0..view.scan_total(l)).filter(|&off| view.vertex_live(l, off)).count();
            let mut offs = 0..n;
            let renumbered = offs.by_ref().any(|off| d.vertex_tombed(l, off))
                && offs.any(|off| !d.vertex_tombed(l, off));
            live as u64 != n || renumbered
        })
        .collect();
    let vertices = (0..catalog.vertex_label_count() as LabelId)
        .map(|l| paged || d.vertex_label_touched(l))
        .collect();
    let edges = (0..catalog.edge_label_count() as LabelId)
        .map(|l| {
            let def = catalog.edge_label(l);
            paged
                || d.edge_label_touched(l, Direction::Fwd)
                || d.edge_label_touched(l, Direction::Bwd)
                || moved[def.src as usize]
                || moved[def.dst as usize]
        })
        .collect();
    (vertices, edges)
}

/// The bytes `graph` saves, with its build nonce and the two checksums
/// that cover it zeroed.
fn saved_modulo_nonce(graph: &ColumnarGraph, path: &std::path::Path) -> Vec<u8> {
    graph.save(path).unwrap();
    let mut bytes = std::fs::read(path).unwrap();
    std::fs::remove_file(path).unwrap();
    // Header: magic, version, page size, data pages, then the metadata
    // offset at byte 20, its checksum at 36, the header's own at 68.
    let meta_off = u64::from_le_bytes(bytes[20..28].try_into().unwrap()) as usize;
    for range in [36..44, 68..76, meta_off..meta_off + 8] {
        bytes[range].fill(0);
    }
    bytes
}

/// Everything a reader sees through `view`: every live vertex row by
/// offset, and every non-empty list of every edge label both ways, with
/// its property rows, as a multiset.
fn answers(view: GraphView<'_>) -> String {
    use std::fmt::Write;
    let catalog = view.base().catalog();
    let mut out = String::new();
    for l in 0..catalog.vertex_label_count() as LabelId {
        let n_props = catalog.vertex_label(l).properties.len();
        for off in (0..view.scan_total(l)).filter(|&off| view.vertex_live(l, off)) {
            let row: Vec<Value> = (0..n_props)
                .map(|p| view.vertex_value(&mut PageCursor::new(), l, off, p))
                .collect();
            let _ = writeln!(out, "v{l}@{off} {row:?}");
        }
    }
    for l in 0..catalog.edge_label_count() as LabelId {
        let def = catalog.edge_label(l);
        for dir in [Direction::Fwd, Direction::Bwd] {
            for from in 0..view.scan_total(def.from_label(dir)) {
                let mut list = live_list(view, l, dir, from);
                if !list.is_empty() {
                    list.sort_by_cached_key(|e| format!("{e:?}"));
                    let _ = writeln!(out, "e{l}{dir}@{from} {list:?}");
                }
            }
        }
    }
    out
}

/// Merge `store` and check the new baseline against a full rebuild from
/// [`merged_raw`] of the state it merged: each rebuilt label encodes like
/// the full rebuild's, each other label is the old baseline's by pointer,
/// statistics and answers agree, and — once every label has been built
/// from an export (`canonical`) — the whole save is the full rebuild's
/// byte for byte, build nonce aside. Moves `at` to the merged offsets and
/// returns the full rebuild, or `None` when there was nothing to merge.
fn merge_and_check(
    store: &GraphStore,
    at: &mut Operands,
    canonical: &mut bool,
    path: &std::path::Path,
) -> Option<ColumnarGraph> {
    let before = store.snapshot();
    if before.delta().mutation_count() == 0 {
        assert_eq!(store.merge().unwrap(), before.epoch(), "an empty merge is a no-op");
        return None;
    }
    let (vertices, edges) = expected_rebuilds(&before);
    let merged = merged_raw(before.base(), before.delta()).unwrap();
    let full = ColumnarGraph::build(&merged, StorageConfig::default()).unwrap();
    store.merge().unwrap();
    let after = store.snapshot();
    let (old, new) = (before.base(), after.base());

    for (l, &rebuilt) in vertices.iter().enumerate() {
        let (was, now) =
            (old.vertex_label_parts(l as LabelId), new.vertex_label_parts(l as LabelId));
        if rebuilt {
            let want = full.vertex_label_parts(l as LabelId).encoded();
            assert!(now.encoded() == want, "vertex label {l} encodes unlike the full rebuild's");
        } else {
            assert!(Arc::ptr_eq(was, now), "vertex label {l} was rebuilt, not shared");
        }
    }
    for (l, &rebuilt) in edges.iter().enumerate() {
        let (was, now) = (old.edge_label_parts(l as LabelId), new.edge_label_parts(l as LabelId));
        if rebuilt {
            let want = full.edge_label_parts(l as LabelId).encoded();
            assert!(now.encoded() == want, "edge label {l} encodes unlike the full rebuild's");
        } else {
            assert!(Arc::ptr_eq(was, now), "edge label {l} was rebuilt, not shared");
        }
    }
    assert_eq!(new.catalog().stats(), full.catalog().stats());
    *canonical |= vertices.iter().chain(&edges).all(|&rebuilt| rebuilt);
    if *canonical {
        assert!(saved_modulo_nonce(new, path) == saved_modulo_nonce(&full, path), "saves differ");
    }
    assert_eq!(answers(after.view()), answers(GraphView::clean(&full)));

    // The ops address vertices by offset: follow them through the
    // compaction by primary key.
    for (l, offs) in at.offs.iter_mut().enumerate() {
        for off in offs {
            let id = before
                .view()
                .vertex_value(&mut PageCursor::new(), l as LabelId, *off, 0)
                .as_i64()
                .unwrap();
            *off = after.view().lookup_pk(l as LabelId, id).expect("a live operand survives");
        }
    }
    Some(full)
}

/// Issue `ops` in committed batches of four.
fn commit_batches(store: &GraphStore, at: &mut Operands, ops: &[Op]) {
    for batch in ops.chunks(4) {
        let mut txn = store.begin_write();
        issue(&mut txn, at, batch);
        txn.commit().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Merge rebuilds exactly the labels its delta touched and shares the
    /// rest by pointer, and the result is the full rebuild's: the seam op
    /// mix over a schema with labels the ops never name (`C`, `CC`, and
    /// `AC`, which only cascades and moved `A` offsets reach), several
    /// merges in a row on an in-memory and a durable store, then — on the
    /// durable one — a reopen that answers the same and a merge of the
    /// paged baseline, which rebuilds every label.
    #[test]
    fn merges_rebuild_what_changed_and_share_the_rest(
        (n_a, n_b, ab) in (2usize..5, 2usize..6).prop_flat_map(|(n_a, n_b)| {
            let ab = proptest::collection::vec((0..n_a as u64, 0..n_b as u64, -30i64..30), 0..30);
            (Just(n_a), Just(n_b), ab)
        }),
        rounds in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..8), 2..6),
    ) {
        let generated = sharing_base_with(n_a, n_b, &ab, 4);
        // The durable store starts from a baseline built from an export:
        // every baseline merged from it is built from exports too, so its
        // saves match full rebuilds byte for byte from the first merge on.
        let g = ColumnarGraph::build(&generated, StorageConfig::default()).unwrap();
        let exported = merged_raw(&g, &DeltaStore::new(&g)).unwrap();
        static STORES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        for durable in [false, true] {
            let (raw, from_export) = if durable { (&exported, true) } else { (&generated, false) };
            let n = STORES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("gfcl_merge_{}_{n}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let config = StorageConfig::default();
            let store = if durable {
                GraphStore::create(&dir, raw, config).unwrap()
            } else {
                GraphStore::in_memory(raw, config).unwrap()
            };
            let mut at = Operands {
                offs: [(0..n_a as u64).map(|i| i * SPREAD).collect(), (0..n_b as u64).collect()],
                last_id: FIRST_DELTA_ID,
            };
            let mut canonical = from_export;
            let scratch = dir.join("compare.gfcl");
            let mut last = None;
            for ops in &rounds {
                commit_batches(&store, &mut at, ops);
                last = merge_and_check(&store, &mut at, &mut canonical, &scratch).or(last);
            }
            if durable {
                drop(store);
                let store = GraphStore::open(&dir, config).unwrap();
                if let Some(full) = &last {
                    prop_assert_eq!(answers(store.snapshot().view()), answers(GraphView::clean(full)));
                }
                commit_batches(&store, &mut at, &rounds[0]);
                merge_and_check(&store, &mut at, &mut canonical, &scratch);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
