//! Counted tail extends against the tuple-at-a-time reference.
//!
//! A CSR extend the planner marks *counted* (`PlanStep::Extend::counted`:
//! nothing after it reads its source list group or the group it opens)
//! hands the sinks one chunk state per child state — its source flattened
//! once and an output group that is only a length, the sum of the selected
//! sources' list lengths. Every shape below has at least one counted step
//! (asserted, so the suite cannot silently stop covering the mode) and must
//! answer exactly as GF-CV, which enumerates every tuple, at 1 and N GF-CL
//! workers (N = `GFCL_THREADS`, default 4):
//!
//! * sources with a selection mask (a filter before the extend, a pushed
//!   scan predicate), a `ScanPk` source, a source that arrived flat, and
//!   sources with empty lists;
//! * every sink: scalar `COUNT(*)` / `SUM` / `MIN` / `MAX`, grouped
//!   aggregates over the other groups, projection rows without and with a
//!   `LIMIT` (row multiplicity) and a `DISTINCT` projection;
//! * a reopened, paged graph with a small buffer pool (4 pages, or
//!   `GFCL_BUFFER_MB`);
//! * a mutated snapshot: dirty lists, tombstoned vertices and edges, and
//!   delta-inserted source vertices.

use std::sync::Arc;

use gfcl_baselines::GfCvEngine;
use gfcl_common::Value;
use gfcl_core::query::{col, eq, lit, lt, Agg, PatternQuery, QueryBuilder, SortDir};
use gfcl_core::{plan_query, Config, Engine, ExecOptions, GfClEngine, PlanStep};
use gfcl_datagen::{PowerLawParams, SocialParams};
use gfcl_storage::{Catalog, ColumnarGraph, GraphStore, RawGraph, StorageConfig};

/// GF-CL worker counts under test: serial, and `GFCL_THREADS` (default 4).
fn threads() -> [usize; 2] {
    [1, std::env::var("GFCL_THREADS").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(4)]
}

/// Persons of the social graph; the overlay engines of the mutated
/// snapshot read row at a time, so that test uses a smaller graph.
const PERSONS: usize = 60;

fn social(persons: usize) -> RawGraph {
    gfcl_datagen::generate_social(SocialParams::scale(persons))
}

/// `(a)-[k1:knows]->(b)-[k2:knows]->(c)`, extended in that order: `k2` is
/// counted unless the query reads `b` or `c`.
fn two_hop() -> QueryBuilder {
    PatternQuery::builder()
        .node("a", "Person")
        .node("b", "Person")
        .node("c", "Person")
        .edge("k1", "knows", "a", "b")
        .edge("k2", "knows", "b", "c")
        .start_at("a")
        .edge_order(vec![0, 1])
}

/// `two_hop` plus `(c)-[k3:knows]->(d)`: `k3` is counted, while `b` (the
/// source of the uncounted `k2`) stays readable by the sink.
fn three_hop() -> QueryBuilder {
    two_hop().node("d", "Person").edge("k3", "knows", "c", "d").edge_order(vec![0, 1, 2])
}

/// The counted shapes over the social graph of `persons` persons.
fn social_queries(persons: usize) -> Vec<(&'static str, PatternQuery)> {
    let person = (persons / 2) as i64;
    vec![
        ("2hop count", two_hop().returns_count().build()),
        (
            "2hop count, filtered source",
            two_hop().filter(eq(col("b", "gender"), lit("female"))).returns_count().build(),
        ),
        (
            "1hop count, pushed scan mask",
            PatternQuery::builder()
                .node("a", "Person")
                .node("b", "Person")
                .edge("k1", "knows", "a", "b")
                .filter(lt(col("a", "id"), lit(40i64)))
                .returns_count()
                .build(),
        ),
        (
            "2hop count from a ScanPk",
            two_hop().filter(eq(col("a", "id"), lit(person))).returns_count().build(),
        ),
        (
            "star rows, source arrived flat",
            PatternQuery::builder()
                .node("p", "Person")
                .node("f", "Person")
                .node("m", "Comment")
                .edge("k", "knows", "p", "f")
                .edge("l", "likes", "p", "m")
                .filter(eq(col("p", "id"), lit(person)))
                .returns(&[("f", "id")])
                .start_at("p")
                .edge_order(vec![0, 1])
                .build(),
        ),
        (
            "comments per person, empty lists",
            PatternQuery::builder()
                .node("p", "Person")
                .node("c", "Comment")
                .edge("hc", "hasCreator", "c", "p")
                .start_at("p")
                .returns_count()
                .build(),
        ),
        ("2hop rows", two_hop().returns(&[("a", "id")]).build()),
        (
            "2hop top-k rows",
            two_hop().returns(&[("a", "id")]).order_by(0, SortDir::Desc).limit(25).build(),
        ),
        ("2hop distinct", two_hop().returns(&[("a", "gender")]).distinct().build()),
        (
            "2hop grouped top-k",
            two_hop()
                .group_by(&[("a", "id")])
                .returns_agg(vec![Agg::count_star()])
                .order_by(1, SortDir::Desc)
                .limit(10)
                .build(),
        ),
        (
            "3hop grouped aggregates",
            three_hop()
                .group_by(&[("a", "gender")])
                .returns_agg(vec![
                    Agg::count_star(),
                    Agg::count("b", "fName"),
                    Agg::sum("b", "id"),
                    Agg::avg("b", "birthday"),
                    Agg::min("b", "birthday"),
                    Agg::max("b", "browserUsed"),
                    Agg::count_distinct("b", "browserUsed"),
                ])
                .build(),
        ),
        ("3hop sum", three_hop().returns_sum("b", "id").build()),
        ("3hop min", three_hop().returns_min("b", "birthday").build()),
        ("3hop max", three_hop().returns_max("b", "fName").build()),
    ]
}

/// Power-law shapes. Every vertex has an out-edge, but the rank-biased
/// targets leave most vertices without an in-edge, so the backward chains
/// meet empty lists at every hop.
fn powerlaw_queries() -> Vec<(&'static str, PatternQuery)> {
    // `v0 - v1 - ... - vn` from `v0`, along (`fwd`) or against `LINK`.
    let hops = |n: usize, fwd: bool| {
        let mut b = PatternQuery::builder();
        for i in 0..=n {
            b = b.node(&format!("v{i}"), "NODE");
        }
        for i in 0..n {
            let (from, to) = (format!("v{i}"), format!("v{}", i + 1));
            let (src, dst) = if fwd { (&from, &to) } else { (&to, &from) };
            b = b.edge(&format!("e{i}"), "LINK", src, dst);
        }
        b.start_at("v0").edge_order((0..n).collect())
    };
    vec![
        ("powerlaw 2hop count", hops(2, true).returns_count().build()),
        ("powerlaw backward 1hop count", hops(1, false).returns_count().build()),
        ("powerlaw backward 2hop count", hops(2, false).returns_count().build()),
        ("powerlaw backward 3hop count", hops(3, false).returns_count().build()),
        (
            "powerlaw backward 2hop grouped",
            hops(2, false).group_by(&[("v0", "id")]).returns_agg(vec![Agg::count_star()]).build(),
        ),
        (
            "powerlaw backward 3hop grouped sum",
            hops(3, false)
                .group_by(&[("v0", "id")])
                .returns_agg(vec![Agg::count_star(), Agg::sum("v1", "id"), Agg::max("e0", "ts")])
                .order_by(1, SortDir::Desc)
                .limit(20)
                .build(),
        ),
    ]
}

fn powerlaw() -> RawGraph {
    gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: 3_000,
        avg_degree: 4.0,
        exponent: 1.8,
        seed: 41,
    })
}

/// Panic unless `q`'s plan has a counted step.
fn assert_counted(name: &str, q: &PatternQuery, catalog: &Catalog) {
    let plan = plan_query(q, catalog).unwrap_or_else(|e| panic!("{name} failed to plan: {e}"));
    assert!(
        plan.steps.iter().any(|s| matches!(s, PlanStep::Extend { counted: true, .. })),
        "{name}: no counted step in {:?}",
        plan.steps
    );
}

/// Run every query through GF-CV (`reference`) and through each GF-CL
/// engine, and assert identical canonical outputs.
fn assert_equivalent(
    queries: &[(&str, PatternQuery)],
    catalog: &Catalog,
    reference: &dyn Engine,
    engines: &[(String, Box<dyn Engine>)],
) {
    for (name, q) in queries {
        assert_counted(name, q, catalog);
        let truth = reference
            .execute(q)
            .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", reference.name()))
            .canonical();
        for (engine, e) in engines {
            let got = e.execute(q).unwrap_or_else(|e| panic!("{name} failed on {engine}: {e}"));
            assert_eq!(got.canonical(), truth, "{name}: {engine} diverges from GF-CV");
        }
    }
}

fn gfcl_engines(g: &Arc<ColumnarGraph>) -> Vec<(String, Box<dyn Engine>)> {
    threads()
        .into_iter()
        .map(|t| {
            let engine: Box<dyn Engine> =
                Box::new(GfClEngine::with_options(Arc::clone(g), ExecOptions::with_threads(t)));
            (format!("GF-CL/{t}"), engine)
        })
        .collect()
}

#[test]
fn counted_shapes_match_gfcv_on_the_social_graph() {
    let g = Arc::new(ColumnarGraph::build(&social(PERSONS), StorageConfig::default()).unwrap());
    let reference = GfCvEngine::new(Arc::clone(&g));
    assert_equivalent(&social_queries(PERSONS), g.catalog(), &reference, &gfcl_engines(&g));
}

#[test]
fn counted_shapes_match_gfcv_over_empty_lists() {
    let g = Arc::new(ColumnarGraph::build(&powerlaw(), StorageConfig::default()).unwrap());
    // The shapes only cover empty lists if the graph has them.
    let link = g.catalog().edge_label_id("LINK").unwrap();
    let csr = g.adj(link, gfcl_common::Direction::Bwd).as_csr().expect("LINK is a CSR");
    assert!((0..csr.n_vertices() as u64).any(|v| csr.degree(v) == 0));
    let reference = GfCvEngine::new(Arc::clone(&g));
    assert_equivalent(&powerlaw_queries(), g.catalog(), &reference, &gfcl_engines(&g));
}

#[test]
fn counted_shapes_match_gfcv_on_a_reopened_paged_graph() {
    let raw = social(PERSONS);
    let built = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let path =
        std::env::temp_dir().join(format!("gfcl_counted_{}_reopen.gfcl", std::process::id()));
    built.save(&path).unwrap();
    let env = Config::from_env().expect("GFCL_* configuration");
    let pages = env.buffer_pool_pages.unwrap_or(4);
    let config = StorageConfig { buffer_pool_pages: pages, ..StorageConfig::default() };
    let reopened = Arc::new(ColumnarGraph::open(&path, config).unwrap());
    std::fs::remove_file(&path).unwrap();
    assert!(reopened.memory_breakdown().pageable > 0, "the reopened graph reads pages");
    let reference = GfCvEngine::new(Arc::clone(&built));
    assert_equivalent(
        &social_queries(PERSONS),
        built.catalog(),
        &reference,
        &gfcl_engines(&reopened),
    );
}

#[test]
fn counted_shapes_match_gfcv_on_a_mutated_snapshot() {
    let persons = 30;
    let store = GraphStore::in_memory(&social(persons), StorageConfig::default()).unwrap();
    let mut txn = store.begin_write();
    let off = |txn: &gfcl_storage::WriteTxn<'_>, id: i64| {
        txn.lookup_pk("Person", id).unwrap().unwrap_or_else(|| panic!("Person {id} missing"))
    };
    let date = |ts: i64| [("date", Value::Date(ts))];
    // Delta-inserted sources with lists of their own, into and out of the
    // baseline, so some scanned and some extended-to sources have no CSR
    // entry.
    let new: Vec<u64> = (0..3)
        .map(|i| {
            txn.insert_vertex(
                "Person",
                &[
                    ("id", Value::Int64(9_000 + i)),
                    ("fName", Value::String(format!("New{i}"))),
                    ("gender", Value::String("female".into())),
                    ("browserUsed", Value::String("Lynx".into())),
                ],
            )
            .unwrap()
        })
        .collect();
    let (p0, p1, p2) = (off(&txn, 0), off(&txn, 1), off(&txn, 2));
    for (i, &n) in new.iter().enumerate() {
        let ts = 1_450_000_000 + i as i64;
        txn.insert_edge("knows", p0, n, &date(ts)).unwrap();
        txn.insert_edge("knows", n, p1, &date(ts)).unwrap();
        txn.insert_edge("knows", n, new[(i + 1) % new.len()], &date(ts)).unwrap();
    }
    // Dirty baseline lists: an inserted and a tombstoned baseline edge.
    txn.insert_edge("knows", p2, p1, &date(1_450_000_100)).unwrap();
    txn.delete_edge("knows", p0, new[0]).unwrap();
    // Tombstoned vertices, taking their incident edges with them.
    for id in [3, 4] {
        let v = off(&txn, id);
        txn.delete_vertex("Person", v).unwrap();
    }
    txn.commit().unwrap();
    let snapshot = store.snapshot();

    let reference = GfCvEngine::with_snapshot(&snapshot);
    let engines: Vec<(String, Box<dyn Engine>)> = threads()
        .into_iter()
        .map(|t| {
            let engine: Box<dyn Engine> = Box::new(GfClEngine::with_snapshot_options(
                &snapshot,
                ExecOptions::with_threads(t),
            ));
            (format!("GF-CL/{t}+delta"), engine)
        })
        .collect();
    let mut queries = social_queries(persons);
    queries.push((
        "2hop count from a delta-inserted ScanPk",
        two_hop().filter(eq(col("a", "id"), lit(9_001i64))).returns_count().build(),
    ));
    assert_equivalent(&queries, snapshot.base().catalog(), &reference, &engines);
}
