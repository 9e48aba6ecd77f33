//! Workspace smoke test: all four engines construct from the Figure-1
//! example graph and agree — cardinality and canonical result set — on the
//! paper's Example 1 query. This is the cheapest possible "is the whole
//! stack wired together" check; the deeper equivalence suites live in
//! `crates/baselines/tests/`.

use std::sync::Arc;

use gfcl::query::{col, gt, lit, lt, PatternQuery};
use gfcl::{
    ColumnarGraph, Config, Engine, GfClEngine, GfCvEngine, GfRvEngine, QueryOutput, RawGraph,
    RelEngine, RowGraph, StorageConfig,
};

/// GF-CL under the process configuration: CI's `parallel` job runs this
/// binary with `GFCL_THREADS=4`.
fn gfcl(graph: Arc<ColumnarGraph>) -> GfClEngine {
    GfClEngine::with_options(graph, Config::from_env().expect("GFCL_* configuration").exec)
}

fn example_1() -> PatternQuery {
    // MATCH (a:PERSON)-[e:WORKAT]->(b:ORG)
    // WHERE a.age > 22 AND b.estd < 2015 RETURN a.name, b.name
    PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "ORG")
        .edge("e", "WORKAT", "a", "b")
        .filter(gt(col("a", "age"), lit(22)))
        .filter(lt(col("b", "estd"), lit(2015)))
        .returns(&[("a", "name"), ("b", "name")])
        .build()
}

#[test]
fn all_four_engines_construct_and_agree_on_figure_1() {
    let raw = RawGraph::example();
    let colg = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let rowg = Arc::new(RowGraph::build(&raw).unwrap());

    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(gfcl(colg.clone())),
        Box::new(GfCvEngine::new(colg.clone())),
        Box::new(GfRvEngine::new(rowg)),
        Box::new(RelEngine::new(colg)),
    ];

    let q = example_1();
    let outputs: Vec<_> =
        engines.iter().map(|e| (e.name().to_owned(), e.execute(&q).unwrap())).collect();

    for (name, out) in &outputs {
        assert_eq!(out.cardinality(), 2, "{name}: expected alice->UW and bob->UofT");
    }
    let reference = outputs[0].1.canonical();
    for (name, out) in &outputs[1..] {
        assert_eq!(
            out.canonical(),
            reference,
            "{name} disagrees with {} on Example 1",
            outputs[0].0
        );
    }
}

#[test]
fn the_largest_limit_returns_every_row_in_order() {
    // LIMIT admits any non-negative i64; the top-k sink once sized its
    // buffer as `4 * k` and overflowed on this one.
    let raw = RawGraph::example();
    let colg = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let text = "MATCH (a:PERSON) RETURN a.name ORDER BY a.name LIMIT 9223372036854775807";
    let QueryOutput::Rows { rows: all, .. } =
        gfcl::query(&colg, "MATCH (a:PERSON) RETURN a.name").unwrap()
    else {
        panic!("rows expected")
    };
    let mut expected = all;
    expected.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert!(expected.len() > 1, "the example graph has several persons");

    let QueryOutput::Rows { rows, .. } = gfcl::query(&colg, text).unwrap() else {
        panic!("rows expected")
    };
    assert_eq!(rows, expected, "gfcl::query");
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(gfcl(colg.clone())),
        Box::new(GfCvEngine::new(colg.clone())),
        Box::new(GfRvEngine::new(Arc::new(RowGraph::build(&raw).unwrap()))),
        Box::new(RelEngine::new(colg)),
    ];
    for engine in &engines {
        let QueryOutput::Rows { rows, .. } = gfcl::query_on(engine.as_ref(), text).unwrap() else {
            panic!("{}: rows expected", engine.name())
        };
        assert_eq!(rows, expected, "{}", engine.name());
    }
}

#[test]
fn gfcl_runs_at_the_configured_worker_count() {
    // Read `GFCL_THREADS` here without `Config`: the GF-CL engine these
    // tests compare must run at the worker count the environment names.
    let want = match std::env::var("GFCL_THREADS") {
        Ok(s) if !s.trim().is_empty() => s.trim().parse().expect("GFCL_THREADS is a count"),
        _ => 1,
    };
    let raw = RawGraph::example();
    let colg = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    assert_eq!(gfcl(colg).options().threads, want);
}
