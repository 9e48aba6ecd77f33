//! Property-based tests of the storage invariants (DESIGN.md §5,
//! invariants 4 and 5) and of the snapshot-read invariant at the seam
//! every engine reads it through: `GraphView` over either baseline layout
//! agrees with a rebuild of [`merged_raw`].

use gfcl_columnar::NullKind;
use gfcl_common::{DataType, Direction, LabelId, Value};
use gfcl_storage::edge_prop_pages::assign_insertion_order;
use gfcl_storage::{
    merged_raw, BaselineRead, Cardinality, Catalog, ColumnarGraph, Csr, CsrOptions, GraphStore,
    GraphView, PropertyDef, RawGraph, RowGraph, StorageConfig,
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
        for compress in [None, Some(NullKind::jacobson_default()), Some(NullKind::Sparse),
                         Some(NullKind::Uncompressed)] {
            let opts = CsrOptions { zero_suppress: true, compress_empty: compress };
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
    view.for_each_live_edge(label, dir, from, |nbr, tag| edges.push((nbr, tag)));
    // The materialized list and the single-neighbour read sit on the walk.
    let (nbrs, tags) = view.merged_adj(label, dir, from);
    assert_eq!(nbrs.into_iter().zip(tags).collect::<Vec<_>>(), edges);
    assert_eq!(view.single_nbr(label, dir, from), edges.first().copied());
    edges
        .into_iter()
        .map(|(nbr, tag)| {
            let row = (0..n_props).map(|p| view.edge_value(label, dir, from, tag, p).unwrap());
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
                for (p, v) in [key, val].into_iter().map(Value::Int64).enumerate() {
                    prop_assert_eq!(&col.vertex_value(label, off, p), &v);
                    prop_assert_eq!(&row.vertex_value(label, off, p), &v);
                    prop_assert_eq!(&clean.vertex_value(label, live, p), &v);
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
