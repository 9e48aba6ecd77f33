//! Every NULL layout a `StorageConfig` can name stores and reads back every
//! NULL and every empty list: columns of all four types, the
//! single-cardinality adjacency column (also fully populated, where it
//! keeps no NULL map), a CSR with empty lists (and one without, which
//! keeps no empty-list map) and a whole
//! `ColumnarGraph` built from a raw graph with NULLs. CI runs this file in
//! release as well, where `debug_assert!`s are compiled out: a layout that
//! only a debug assertion guards passes in debug and corrupts in release.

use gfcl_columnar::{Column, NullKind, PageCursor, RankParams, UIntArray};
use gfcl_common::{DataType, Direction, LabelId, MemoryUsage, Value};
use gfcl_storage::{
    ColumnarGraph, Csr, CsrOptions, GraphView, PropData, RawGraph, ReadCursors, SingleCardAdj,
    StorageConfig,
};

/// Enough positions to span several blocks of the smallest rank index.
const N: usize = 700;

/// Every third position is NULL / empty, and so is the last one.
fn valid(i: usize) -> bool {
    !i.is_multiple_of(3) && i != N - 1
}

fn layouts() -> Vec<NullKind> {
    let mut kinds = vec![NullKind::Uncompressed, NullKind::Vanilla];
    for c in [4, 8, 16] {
        for m in [8, 16, 24, 32] {
            kinds.push(NullKind::Jacobson(RankParams::new(c, m).unwrap()));
        }
    }
    kinds
}

fn columns_read_back(nulls: NullKind) {
    let ints: Vec<Option<i64>> = (0..N).map(|i| valid(i).then_some(i as i64 * 7 - 300)).collect();
    let floats: Vec<Option<f64>> = (0..N).map(|i| valid(i).then_some(i as f64 / 4.0)).collect();
    let bools: Vec<Option<bool>> = (0..N).map(|i| valid(i).then_some(i % 2 == 0)).collect();
    let strs: Vec<Option<String>> =
        (0..N).map(|i| valid(i).then(|| format!("s{}", i % 11))).collect();
    let values = |f: &dyn Fn(usize) -> Value| (0..N).map(f).collect::<Vec<_>>();
    let cols = [
        (
            Column::from_i64(DataType::Int64, &ints, nulls),
            values(&|i| ints[i].map_or(Value::Null, Value::Int64)),
        ),
        (
            Column::from_i64(DataType::Date, &ints, nulls),
            values(&|i| ints[i].map_or(Value::Null, Value::Date)),
        ),
        (
            Column::from_f64(&floats, nulls),
            values(&|i| floats[i].map_or(Value::Null, Value::Float64)),
        ),
        (Column::from_bool(&bools, nulls), values(&|i| bools[i].map_or(Value::Null, Value::Bool))),
        (
            Column::from_str(&strs, nulls, true),
            values(&|i| strs[i].clone().map_or(Value::Null, Value::String)),
        ),
    ];
    let cur = &mut PageCursor::new();
    for (col, want) in &cols {
        assert_eq!(col.len(), N);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(&col.value(cur, i), w, "{nulls:?} {:?} at {i}", col.dtype());
            assert_eq!(col.is_null(i), w.is_null(), "{nulls:?} {:?} at {i}", col.dtype());
        }
    }
    // The shape a layout that assumed "no NULL" read back as `Some(0)`.
    let col = Column::from_i64(DataType::Int64, &[Some(5), None, Some(7)], nulls);
    assert_eq!((0..3).map(|i| col.get_i64(i)).collect::<Vec<_>>(), [Some(5), None, Some(7)]);
}

fn single_card_reads_back(nulls: NullKind) {
    let nbrs: Vec<Option<u64>> = (0..N).map(|i| valid(i).then_some((i * 5 % N) as u64)).collect();
    let adj = SingleCardAdj::build(&nbrs, nulls, true, vec![]);
    assert_eq!(adj.n_edges(), nbrs.iter().flatten().count());
    let cur = &mut PageCursor::new();
    for (v, want) in nbrs.iter().enumerate() {
        assert_eq!(adj.nbr_with(cur, v as u64), *want, "{nulls:?} at {v}");
    }
    // A fully populated direction (every person is located somewhere)
    // stores no NULL map under any layout: its bytes are the neighbour
    // array's alone, and every read is the identity, with no rank.
    let full: Vec<u64> = (0..N as u64).map(|v| v * 5 % N as u64).collect();
    let adj = SingleCardAdj::build(
        &full.iter().copied().map(Some).collect::<Vec<_>>(),
        nulls,
        true,
        vec![],
    );
    assert_eq!(adj.n_edges(), N, "{nulls:?}");
    assert_eq!(
        adj.adjacency_bytes(),
        UIntArray::from_values(&full, true).memory_bytes(),
        "{nulls:?}"
    );
    for (v, &want) in full.iter().enumerate() {
        assert_eq!(adj.nbr_with(cur, v as u64), Some(want), "{nulls:?} full at {v}");
    }
}

fn csr_reads_back(nulls: NullKind) {
    // Two edges from every valid vertex, none from the others.
    let from: Vec<u64> =
        (0..N as u64).filter(|&v| valid(v as usize)).flat_map(|v| [v, v]).collect();
    let nbr: Vec<u64> = (0..from.len() as u64).collect();
    let (csr, _) = Csr::build(N, &from, &nbr, CsrOptions { zero_suppress: true, nulls });
    let mut next = 0u64;
    for v in 0..N {
        let list: Vec<u64> = csr.iter_list(v as u64).map(|(_, n)| n).collect();
        if valid(v) {
            assert_eq!(list, [next, next + 1], "{nulls:?} at {v}");
            next += 2;
        } else {
            assert!(list.is_empty(), "{nulls:?}: vertex {v} must have an empty list");
        }
    }
    // A CSR without an empty list (every person knows someone) stores no
    // empty-list map under any layout: its offsets are the uncompressed
    // layout's, byte for byte, and every list reads back.
    let from: Vec<u64> = (0..N as u64).flat_map(|v| [v, v]).collect();
    let nbr: Vec<u64> = (0..from.len() as u64).map(|p| p * 7 % N as u64).collect();
    let (csr, _) = Csr::build(N, &from, &nbr, CsrOptions { zero_suppress: true, nulls });
    let uncompressed = CsrOptions { zero_suppress: true, nulls: NullKind::Uncompressed };
    let (plain, _) = Csr::build(N, &from, &nbr, uncompressed);
    assert_eq!(csr.offsets_bytes(), plain.offsets_bytes(), "{nulls:?}: full CSR offsets");
    assert_eq!(csr.memory_bytes(), plain.memory_bytes(), "{nulls:?}: full CSR");
    for v in 0..N as u64 {
        assert_eq!(csr.list(v), (2 * v, 2), "{nulls:?}: full CSR list of {v}");
    }
}

/// The raw example with the second value of every vertex and edge
/// property NULL.
fn example_with_nulls() -> RawGraph {
    let mut raw = RawGraph::example();
    let props = raw.vertices.iter_mut().flat_map(|t| &mut t.props);
    for p in props.chain(raw.edges.iter_mut().flat_map(|t| &mut t.props)) {
        match p {
            PropData::I64(v) => v[1] = None,
            PropData::F64(v) => v[1] = None,
            PropData::Bool(v) => v[1] = None,
            PropData::Str(v) => v[1] = None,
        }
    }
    raw
}

fn graph_reads_back(raw: &RawGraph, config: StorageConfig) {
    let g = ColumnarGraph::build(raw, config).unwrap();
    let view = GraphView::clean(&g);
    let cat = &raw.catalog;
    let cur = &mut PageCursor::new();
    for (l, t) in raw.vertices.iter().enumerate() {
        for (j, p) in t.props.iter().enumerate() {
            let dtype = cat.vertex_label(l as LabelId).properties[j].dtype;
            for off in 0..t.count {
                let got = view.vertex_value(cur, l as LabelId, off as u64, j);
                assert_eq!(got, p.value(off, dtype), "{config:?}: vertex {l}/{off} prop {j}");
            }
        }
    }
    let rc = &mut ReadCursors::default();
    for (l, t) in raw.edges.iter().enumerate() {
        let (label, def) = (l as LabelId, cat.edge_label(l as LabelId));
        for dir in [Direction::Fwd, Direction::Bwd] {
            for v in 0..raw.vertices[def.from_label(dir) as usize].count as u64 {
                let mut want: Vec<String> = (0..t.len())
                    .filter_map(|i| {
                        let (from, to) = match dir {
                            Direction::Fwd => (t.src[i], t.dst[i]),
                            Direction::Bwd => (t.dst[i], t.src[i]),
                        };
                        let props: Vec<Value> = (0..def.properties.len())
                            .map(|j| t.props[j].value(i, def.properties[j].dtype))
                            .collect();
                        (from == v).then(|| format!("{to} {props:?}"))
                    })
                    .collect();
                let mut edges = Vec::new();
                view.for_each_live_edge(rc, label, dir, v, |nbr, tag| edges.push((nbr, tag)));
                let mut got: Vec<String> = edges
                    .into_iter()
                    .map(|(nbr, tag)| {
                        let props: Vec<Value> = (0..def.properties.len())
                            .map(|j| view.edge_value(rc, label, dir, v, tag, j).unwrap())
                            .collect();
                        format!("{nbr} {props:?}")
                    })
                    .collect();
                want.sort();
                got.sort();
                assert_eq!(got, want, "{config:?}: {} {dir} of {v}", def.name);
            }
        }
    }
}

#[test]
fn every_layout_reads_back_every_null_and_empty_list() {
    let raw = example_with_nulls();
    for nulls in layouts() {
        columns_read_back(nulls);
        single_card_reads_back(nulls);
        csr_reads_back(nulls);
        // Without vertex columns the n-1 labels' forward lists are CSRs
        // with empty lists; with them, the missing edges are NULLs.
        for single_card_in_vcols in [true, false] {
            let config = StorageConfig { nulls, single_card_in_vcols, ..StorageConfig::default() };
            graph_reads_back(&raw, config);
        }
    }
}
