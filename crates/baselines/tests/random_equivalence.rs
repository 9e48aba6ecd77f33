//! Randomized cross-engine equivalence (ARCHITECTURE.md, "Data flow of one
//! query"): all four
//! engines must return identical canonical results on randomized pattern
//! queries over randomized small graphs, under randomized storage
//! configurations.

use std::sync::Arc;

use gfcl_baselines::{GfCvEngine, GfRvEngine, RelEngine};
use gfcl_common::DataType;
use gfcl_core::query::{col, ge, gt, le, lit, lt, PatternQuery, QueryBuilder};
use gfcl_core::{Config, Engine, GfClEngine};
use gfcl_storage::{
    Cardinality, Catalog, ColumnarGraph, EdgePropLayout, PropertyDef, RawGraph, RowGraph,
    StorageConfig,
};
use proptest::prelude::*;

/// A random two-label graph: A-nodes with an int property, B-nodes with an
/// int property, an n-n edge label A->B with an int property, an n-1 label
/// A->B, and an n-n self-label A->A.
#[derive(Debug, Clone)]
struct RandomGraph {
    n_a: usize,
    n_b: usize,
    ab: Vec<(u64, u64, i64)>,
    aa: Vec<(u64, u64, i64)>,
    /// n-1: at most one per A (dst, prop).
    single: Vec<Option<(u64, i64)>>,
    a_props: Vec<Option<i64>>,
    b_props: Vec<Option<i64>>,
}

fn graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (2usize..12, 2usize..12)
        .prop_flat_map(|(n_a, n_b)| {
            let ab = proptest::collection::vec((0..n_a as u64, 0..n_b as u64, -20i64..20), 0..60);
            let aa = proptest::collection::vec((0..n_a as u64, 0..n_a as u64, -20i64..20), 0..40);
            let single =
                proptest::collection::vec(proptest::option::of((0..n_b as u64, -20i64..20)), n_a);
            let a_props =
                proptest::collection::vec(proptest::option::weighted(0.8, -50i64..50), n_a);
            let b_props =
                proptest::collection::vec(proptest::option::weighted(0.8, -50i64..50), n_b);
            (Just(n_a), Just(n_b), ab, aa, single, a_props, b_props)
        })
        .prop_map(|(n_a, n_b, ab, aa, single, a_props, b_props)| RandomGraph {
            n_a,
            n_b,
            ab,
            aa,
            single,
            a_props,
            b_props,
        })
}

fn to_raw(g: &RandomGraph) -> RawGraph {
    let mut cat = Catalog::new();
    let a = cat.add_vertex_label("A", vec![PropertyDef::new("x", DataType::Int64)]).unwrap();
    let b = cat.add_vertex_label("B", vec![PropertyDef::new("y", DataType::Int64)]).unwrap();
    let ab = cat
        .add_edge_label(
            "AB",
            a,
            b,
            Cardinality::ManyMany,
            vec![PropertyDef::new("w", DataType::Int64)],
        )
        .unwrap();
    let aa = cat
        .add_edge_label(
            "AA",
            a,
            a,
            Cardinality::ManyMany,
            vec![PropertyDef::new("w", DataType::Int64)],
        )
        .unwrap();
    let sg = cat
        .add_edge_label(
            "SINGLE",
            a,
            b,
            Cardinality::ManyOne,
            vec![PropertyDef::new("w", DataType::Int64)],
        )
        .unwrap();
    let mut raw = RawGraph::new(cat);
    raw.vertices[a as usize].count = g.n_a;
    for v in &g.a_props {
        match v {
            Some(x) => raw.vertices[a as usize].props[0].push_i64(*x),
            None => raw.vertices[a as usize].props[0].push_null(),
        }
    }
    raw.vertices[b as usize].count = g.n_b;
    for v in &g.b_props {
        match v {
            Some(x) => raw.vertices[b as usize].props[0].push_i64(*x),
            None => raw.vertices[b as usize].props[0].push_null(),
        }
    }
    for &(s, d, w) in &g.ab {
        let t = &mut raw.edges[ab as usize];
        t.src.push(s);
        t.dst.push(d);
        t.props[0].push_i64(w);
    }
    for &(s, d, w) in &g.aa {
        let t = &mut raw.edges[aa as usize];
        t.src.push(s);
        t.dst.push(d);
        t.props[0].push_i64(w);
    }
    for (s, e) in g.single.iter().enumerate() {
        if let Some((d, w)) = e {
            let t = &mut raw.edges[sg as usize];
            t.src.push(s as u64);
            t.dst.push(*d);
            t.props[0].push_i64(*w);
        }
    }
    raw.validate().unwrap();
    raw
}

/// A small family of randomized queries exercising paths, stars,
/// single-cardinality joins, flat/unflat predicates and all return kinds.
fn queries(t1: i64, t2: i64) -> Vec<PatternQuery> {
    let path = QueryBuilder::default()
        .node("a1", "A")
        .node("a2", "A")
        .node("b", "B")
        .edge("e1", "AA", "a1", "a2")
        .edge("e2", "AB", "a2", "b")
        .filter(gt(col("e2", "w"), col("e1", "w")))
        .filter(ge(col("a1", "x"), lit(t1)))
        .returns_count()
        .build();
    let star = QueryBuilder::default()
        .node("a", "A")
        .node("b1", "B")
        .node("b2", "B")
        .edge("e1", "AB", "a", "b1")
        .edge("e2", "AB", "a", "b2")
        .filter(lt(col("b1", "y"), lit(t2)))
        .returns(&[("a", "x"), ("b2", "y")])
        .build();
    let single = QueryBuilder::default()
        .node("a", "A")
        .node("b", "B")
        .edge("s", "SINGLE", "a", "b")
        .filter(le(col("s", "w"), lit(t2)))
        .returns_sum("a", "x")
        .build();
    let backward = QueryBuilder::default()
        .node("a", "A")
        .node("b", "B")
        .edge("e", "AB", "a", "b")
        .filter(gt(col("e", "w"), lit(t1)))
        .start_at("b")
        .returns_count()
        .build();
    let agg = QueryBuilder::default()
        .node("a1", "A")
        .node("a2", "A")
        .edge("e", "AA", "a1", "a2")
        .returns_max("e", "w")
        .build();
    vec![path, star, single, backward, agg]
}

fn configs() -> Vec<StorageConfig> {
    vec![
        StorageConfig::default(),
        StorageConfig::cols(),
        StorageConfig { edge_prop_layout: EdgePropLayout::EdgeColumns, ..StorageConfig::default() },
        StorageConfig {
            edge_prop_layout: EdgePropLayout::DoubleIndexed,
            single_card_in_vcols: false,
            ..StorageConfig::default()
        },
        StorageConfig {
            edge_prop_layout: EdgePropLayout::Pages { k: 2 },
            ..StorageConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn engines_agree_on_random_graphs(g in graph_strategy(), t1 in -20i64..20, t2 in -20i64..20) {
        let raw = to_raw(&g);
        let row = Arc::new(RowGraph::build(&raw).unwrap());
        // CI's `parallel` job runs this binary with `GFCL_THREADS=4`.
        let exec = Config::from_env().expect("GFCL_* configuration").exec;
        for cfg in configs() {
            let colg = Arc::new(ColumnarGraph::build(&raw, cfg).unwrap());
            let engines: Vec<Box<dyn Engine>> = vec![
                Box::new(GfClEngine::with_options(colg.clone(), exec)),
                Box::new(GfCvEngine::new(colg.clone())),
                Box::new(GfRvEngine::new(row.clone())),
                Box::new(RelEngine::new(colg)),
            ];
            for (qi, q) in queries(t1, t2).into_iter().enumerate() {
                let canons: Vec<String> = engines
                    .iter()
                    .map(|e| e.execute(&q).unwrap().canonical())
                    .collect();
                for (i, c) in canons.iter().enumerate() {
                    prop_assert_eq!(
                        c, &canons[0],
                        "query {} under {:?}: {} vs {}",
                        qi, cfg, engines[i].name(), engines[0].name()
                    );
                }
            }
        }
    }
}
