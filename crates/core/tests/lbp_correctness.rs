//! End-to-end correctness of the list-based processor on the running
//! example graph and on generated data, across every storage configuration.

use std::sync::Arc;

use gfcl_core::query::{col, contains, ge, gt, lit, lt, PatternQuery};
use gfcl_core::{Config, Engine, GfClEngine, QueryOutput};
use gfcl_datagen::SocialParams;
use gfcl_storage::{ColumnarGraph, EdgePropLayout, RawGraph, StorageConfig};

/// GF-CL under the process configuration: CI's `parallel` job runs this
/// binary with `GFCL_THREADS=4`.
fn engine_with(raw: &RawGraph, cfg: StorageConfig) -> GfClEngine {
    let exec = Config::from_env().expect("GFCL_* configuration").exec;
    GfClEngine::with_options(Arc::new(ColumnarGraph::build(raw, cfg).unwrap()), exec)
}

fn engine(raw: &RawGraph) -> GfClEngine {
    engine_with(raw, StorageConfig::default())
}

fn all_configs() -> Vec<StorageConfig> {
    let mut v: Vec<StorageConfig> = StorageConfig::ladder().into_iter().map(|(_, c)| c).collect();
    v.push(StorageConfig {
        edge_prop_layout: EdgePropLayout::EdgeColumns,
        ..StorageConfig::default()
    });
    v.push(StorageConfig {
        edge_prop_layout: EdgePropLayout::DoubleIndexed,
        ..StorageConfig::default()
    });
    v.push(StorageConfig { single_card_in_vcols: false, ..StorageConfig::default() });
    v
}

#[test]
fn paper_example_1_workat_filter() {
    // MATCH (a:PERSON)-[e:WORKAT]->(b:ORG)
    // WHERE a.age > 22 AND b.estd < 2015 RETURN * — Example 1 of the paper.
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "ORG")
        .edge("e", "WORKAT", "a", "b")
        .filter(gt(col("a", "age"), lit(22)))
        .filter(lt(col("b", "estd"), lit(2015)))
        .returns(&[("a", "name"), ("b", "name")])
        .build();
    for cfg in all_configs() {
        let out = engine_with(&raw, cfg).execute(&q).unwrap();
        // alice(45)->UW(1934) and bob(54)->UofT(1885) both qualify.
        let QueryOutput::Rows { rows, .. } = &out else { panic!("rows expected") };
        let mut names: Vec<String> = rows.iter().map(|r| format!("{}-{}", r[0], r[1])).collect();
        names.sort();
        assert_eq!(names, vec![r#""alice"-"UW""#, r#""bob"-"UofT""#], "{cfg:?}");
    }
}

#[test]
fn one_hop_count_matches_edge_count() {
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .returns_count()
        .build();
    assert_eq!(engine(&raw).execute(&q).unwrap(), QueryOutput::Count(8));
}

#[test]
fn two_hop_count_brute_force() {
    // MATCH (a)-[:FOLLOWS]->(b)-[:FOLLOWS]->(c) RETURN COUNT(*).
    let raw = RawGraph::example();
    let edges = [(0u64, 1u64), (1, 2), (0, 3), (1, 3), (2, 3), (3, 1), (2, 1), (2, 0)];
    let expected =
        edges.iter().flat_map(|&(_, b)| edges.iter().filter(move |&&(b2, _)| b2 == b)).count()
            as u64;
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .node("c", "PERSON")
        .edge("e1", "FOLLOWS", "a", "b")
        .edge("e2", "FOLLOWS", "b", "c")
        .returns_count()
        .build();
    for cfg in all_configs() {
        assert_eq!(
            engine_with(&raw, cfg).execute(&q).unwrap(),
            QueryOutput::Count(expected),
            "{cfg:?}"
        );
    }
}

#[test]
fn edge_property_predicate_along_path() {
    // 2-hop where the second edge is more recent than the first — the
    // Section 8.3 microbenchmark shape, exercising flat-vs-list expression
    // evaluation.
    let raw = RawGraph::example();
    let edges = [
        (0u64, 1u64, 2003i64),
        (1, 2, 2009),
        (0, 3, 1999),
        (1, 3, 2006),
        (2, 3, 2015),
        (3, 1, 2012),
        (2, 1, 1992),
        (2, 0, 2011),
    ];
    let expected = edges
        .iter()
        .flat_map(|&(_, b, s1)| edges.iter().filter(move |&&(b2, _, s2)| b2 == b && s2 > s1))
        .count() as u64;
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .node("c", "PERSON")
        .edge("e1", "FOLLOWS", "a", "b")
        .edge("e2", "FOLLOWS", "b", "c")
        .filter(gt(col("e2", "since"), col("e1", "since")))
        .returns_count()
        .build();
    for cfg in all_configs() {
        assert_eq!(
            engine_with(&raw, cfg).execute(&q).unwrap(),
            QueryOutput::Count(expected),
            "{cfg:?}"
        );
    }
}

#[test]
fn backward_plan_gives_same_answer() {
    let raw = RawGraph::example();
    let base = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .node("c", "PERSON")
        .edge("e1", "FOLLOWS", "a", "b")
        .edge("e2", "FOLLOWS", "b", "c")
        .filter(gt(col("e2", "since"), col("e1", "since")))
        .returns_count();
    let fwd = base.build();
    let mut bwd = fwd.clone();
    bwd.hints.start = Some("c".into());
    bwd.hints.edge_order = Some(vec![1, 0]);
    let e = engine(&raw);
    assert_eq!(e.execute(&fwd).unwrap(), e.execute(&bwd).unwrap());
}

#[test]
fn single_cardinality_column_extend() {
    // Path ending in an n-1 edge: (a)-[:FOLLOWS]->(b)-[:STUDYAT]->(o).
    let raw = RawGraph::example();
    // STUDYAT: peter(2)->UW, jenny(3)->UofT. FOLLOWS into 2: {1->2}; into 3:
    // {0->3, 1->3, 2->3}. So pairs: (1,2,UW), (0,3,UofT), (1,3,UofT), (2,3,UofT).
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .node("o", "ORG")
        .edge("e1", "FOLLOWS", "a", "b")
        .edge("e2", "STUDYAT", "b", "o")
        .returns(&[("b", "name"), ("o", "name")])
        .build();
    for cfg in all_configs() {
        let out = engine_with(&raw, cfg).execute(&q).unwrap();
        let QueryOutput::Rows { rows, .. } = out else { panic!() };
        let mut pairs: Vec<String> = rows.iter().map(|r| format!("{}-{}", r[0], r[1])).collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![r#""jenny"-"UofT""#, r#""jenny"-"UofT""#, r#""jenny"-"UofT""#, r#""peter"-"UW""#],
            "{cfg:?}"
        );
    }
}

#[test]
fn single_card_edge_property_read_both_directions() {
    // Read doj through the forward (vertex-column) side...
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("o", "ORG")
        .edge("w", "WORKAT", "a", "o")
        .filter(gt(col("w", "doj"), lit(1990)))
        .returns(&[("a", "name")])
        .build();
    let out = engine(&raw).execute(&q).unwrap();
    let QueryOutput::Rows { rows, .. } = out else { panic!() };
    assert_eq!(rows.len(), 1); // only alice (2006); bob joined 1980
    assert_eq!(rows[0][0].to_string(), r#""alice""#);

    // ... and through the backward (CSR) side.
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("o", "ORG")
        .edge("w", "WORKAT", "a", "o")
        .filter(gt(col("w", "doj"), lit(1990)))
        .returns(&[("a", "name")])
        .start_at("o")
        .build();
    let out = engine(&raw).execute(&q).unwrap();
    let QueryOutput::Rows { rows, .. } = out else { panic!() };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0].to_string(), r#""alice""#);
}

#[test]
fn string_predicates_run_on_dictionary_codes() {
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .filter(contains("a", "name", "e")) // alice, peter (not bob, jenny... jenny has 'e'!)
        .returns_count()
        .build();
    // Names with 'e': alice, peter, jenny. Their out-degrees: 0->2, 2->3, 3->1.
    assert_eq!(engine(&raw).execute(&q).unwrap(), QueryOutput::Count(6));
}

#[test]
fn count_star_equals_materialized_rows_on_generated_graph() {
    // Invariant 7: the factorized COUNT(*) equals the enumerated row count.
    let raw = gfcl_datagen::generate_social(SocialParams::scale(60));
    let e = engine(&raw);
    let count_q = PatternQuery::builder()
        .node("a", "Person")
        .node("b", "Person")
        .node("c", "Person")
        .edge("k1", "knows", "a", "b")
        .edge("k2", "knows", "b", "c")
        .filter(ge(col("k2", "date"), col("k1", "date")))
        .returns_count()
        .build();
    let mut rows_q = count_q.clone();
    rows_q.ret = gfcl_core::ReturnSpec::Props(vec![
        gfcl_core::query::PropRef { var: "a".into(), prop: "id".into() },
        gfcl_core::query::PropRef { var: "c".into(), prop: "id".into() },
    ]);
    let n = e.execute(&count_q).unwrap().as_count().unwrap();
    let rows = e.execute(&rows_q).unwrap().cardinality();
    assert_eq!(n, rows);
    assert!(n > 0, "workload should be non-trivial");
}

#[test]
fn pk_seek_starts_path_queries() {
    let raw = gfcl_datagen::generate_social(SocialParams::scale(50));
    let e = engine(&raw);
    let q = PatternQuery::builder()
        .node("p", "Person")
        .node("f", "Person")
        .edge("k", "knows", "p", "f")
        .filter(gfcl_core::query::eq(col("p", "id"), lit(25)))
        .returns(&[("f", "id")])
        .build();
    let out = e.execute(&q).unwrap();
    // Must equal the unindexed variant.
    let q2 = PatternQuery::builder()
        .node("p", "Person")
        .node("f", "Person")
        .edge("k", "knows", "p", "f")
        .filter(gfcl_core::query::ge(col("p", "id"), lit(25)))
        .filter(gfcl_core::query::le(col("p", "id"), lit(25)))
        .returns(&[("f", "id")])
        .build();
    let out2 = e.execute(&q2).unwrap();
    assert_eq!(out.canonical(), out2.canonical());
}

#[test]
fn aggregates_sum_min_max() {
    let raw = RawGraph::example();
    let e = engine(&raw);
    // SUM of `since` over all FOLLOWS edges.
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .returns_sum("e", "since")
        .build();
    let expected: i64 = [2003, 2009, 1999, 2006, 2015, 2012, 1992, 2011].iter().sum();
    match e.execute(&q).unwrap() {
        QueryOutput::Agg { value, .. } => assert_eq!(value.as_i64(), Some(expected)),
        o => panic!("unexpected {o:?}"),
    }
    // MIN/MAX of age.
    let q = PatternQuery::builder().node("a", "PERSON").returns_min("a", "age").build();
    match e.execute(&q).unwrap() {
        QueryOutput::Agg { value, .. } => assert_eq!(value.as_i64(), Some(17)),
        o => panic!("unexpected {o:?}"),
    }
    let q = PatternQuery::builder().node("a", "PERSON").returns_max("a", "age").build();
    match e.execute(&q).unwrap() {
        QueryOutput::Agg { value, .. } => assert_eq!(value.as_i64(), Some(54)),
        o => panic!("unexpected {o:?}"),
    }
}

#[test]
fn sum_respects_factorized_multiplicity() {
    // SUM(a.age) over (a)-[:FOLLOWS]->(b): each a counted deg(a) times.
    let raw = RawGraph::example();
    let ages = [45i64, 54, 17, 23];
    let degs = [2i64, 2, 3, 1];
    let expected: i64 = ages.iter().zip(&degs).map(|(a, d)| a * d).sum();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .returns_sum("a", "age")
        .build();
    match engine(&raw).execute(&q).unwrap() {
        QueryOutput::Agg { value, .. } => assert_eq!(value.as_i64(), Some(expected)),
        o => panic!("unexpected {o:?}"),
    }
}

#[test]
fn star_pattern_stays_factorized() {
    // Star from b: two FOLLOWS branches; count = sum over b of
    // indeg(b) * outdeg(b).
    let raw = RawGraph::example();
    let edges = [(0u64, 1u64), (1, 2), (0, 3), (1, 3), (2, 3), (3, 1), (2, 1), (2, 0)];
    let expected: u64 = (0..4u64)
        .map(|b| {
            let indeg = edges.iter().filter(|&&(_, d)| d == b).count() as u64;
            let outdeg = edges.iter().filter(|&&(s, _)| s == b).count() as u64;
            indeg * outdeg
        })
        .sum();
    let q = PatternQuery::builder()
        .node("b", "PERSON")
        .node("x", "PERSON")
        .node("y", "PERSON")
        .edge("e1", "FOLLOWS", "x", "b")
        .edge("e2", "FOLLOWS", "b", "y")
        .start_at("b")
        .returns_count()
        .build();
    assert_eq!(engine(&raw).execute(&q).unwrap(), QueryOutput::Count(expected));
}

#[test]
fn empty_results() {
    let raw = RawGraph::example();
    let e = engine(&raw);
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "ORG")
        .edge("w", "WORKAT", "a", "b")
        .filter(gt(col("a", "age"), lit(1000)))
        .returns_count()
        .build();
    assert_eq!(e.execute(&q).unwrap(), QueryOutput::Count(0));
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "ORG")
        .edge("w", "WORKAT", "a", "b")
        .filter(gt(col("a", "age"), lit(1000)))
        .returns(&[("a", "name")])
        .build();
    assert_eq!(e.execute(&q).unwrap().cardinality(), 0);
}

#[test]
fn string_slot_both_filtered_and_returned() {
    // Regression (found via LDBC IC06): a string slot used in a predicate
    // AND in the RETURN clause must stay dictionary-encoded for the filter
    // and decode correctly at the sink.
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .filter(gfcl_core::query::ne(col("b", "name"), lit("jenny")))
        .returns(&[("b", "name")])
        .build();
    let out = engine(&raw).execute(&q).unwrap();
    let QueryOutput::Rows { rows, .. } = out else { panic!() };
    // FOLLOWS edges not ending at jenny (offset 3): (0,1),(1,2),(3,1),(2,1),(2,0).
    assert_eq!(rows.len(), 5);
    assert!(rows.iter().all(|r| r[0] != gfcl_common::Value::String("jenny".into())));
    assert!(rows.iter().any(|r| r[0] == gfcl_common::Value::String("bob".into())));
}

#[test]
fn star_with_selective_filter_between_same_label_branches() {
    // The IC06 shape: two ListExtends over the same label from the same
    // group, with a highly selective filter on the first branch.
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .node("x", "PERSON")
        .node("y", "PERSON")
        .edge("e0", "FOLLOWS", "a", "b")
        .edge("e1", "FOLLOWS", "b", "x")
        .edge("e2", "FOLLOWS", "b", "y")
        .filter(gfcl_core::query::eq(col("x", "name"), lit("jenny")))
        .filter(gfcl_core::query::ne(col("y", "name"), lit("jenny")))
        .returns(&[("y", "name")])
        .build();
    // Brute force: in-edges into b times (jenny-follows of b) x (non-jenny
    // follows of b): b=0: 1x(1x1)=1; b=1: 3x(1x1)=3; b=2: 1x(1x2)=2; b=3: 0.
    assert_eq!(engine(&raw).execute(&q).unwrap().cardinality(), 6);
}

#[test]
fn cross_branch_filter_plans_by_the_stored_layout() {
    // MATCH (a:PERSON)-[w:WORKAT]->(o:ORG), (a)-[f:FOLLOWS]->(b:PERSON)
    // WHERE o.estd > b.age RETURN count(*). WORKAT is n-1: a ColumnExtend
    // that keeps `o` in `a`'s list group when the graph stores it in a
    // vertex column, a ListExtend that opens a group of its own when
    // `single_card_in_vcols` is off, and then no order from `a` keeps the
    // filter inside one unflat group.
    let query = |start: Option<&str>| {
        let mut b = PatternQuery::builder()
            .node("a", "PERSON")
            .node("o", "ORG")
            .node("b", "PERSON")
            .edge("w", "WORKAT", "a", "o")
            .edge("f", "FOLLOWS", "a", "b")
            .filter(gt(col("o", "estd"), col("b", "age")));
        if let Some(var) = start {
            b = b.start_at(var);
        }
        b.returns_count().build()
    };
    // Brute force, the tuple-at-a-time answer GF-CV gives (4).
    let age = [45, 54, 17, 23];
    let estd = [1934, 1885];
    let workat = [(0usize, 0usize), (1, 1)];
    let follows = [(0usize, 1usize), (1, 2), (0, 3), (1, 3), (2, 3), (3, 1), (2, 1), (2, 0)];
    let expected = QueryOutput::Count(
        workat
            .iter()
            .flat_map(|&(a, o)| follows.iter().filter(move |&&(f, b)| f == a && estd[o] > age[b]))
            .count() as u64,
    );
    let raw = RawGraph::example();
    for cfg in all_configs() {
        let e = engine_with(&raw, cfg);
        assert_eq!(e.execute(&query(None)).unwrap(), expected, "{cfg:?}");
        // Starting at `a` either plans and answers the same, or fails in
        // the planner, never mid-query.
        match e.plan(&query(Some("a"))) {
            Ok(p) => assert_eq!(e.run_plan(&p).unwrap(), expected, "{cfg:?}"),
            Err(gfcl_common::Error::Plan(msg)) => assert!(msg.contains("unflat"), "{cfg:?}: {msg}"),
            Err(err) => panic!("{cfg:?}: expected a plan or a planner error, got {err:?}"),
        }
    }
    // Starting at `b` reaches `a` first, then extends WORKAT forward: the
    // plan and EXPLAIN name the operator the executor runs.
    let csr = StorageConfig { single_card_in_vcols: false, ..StorageConfig::default() };
    for (cfg, op) in [(StorageConfig::default(), "[ColumnExtend"), (csr, "[ListExtend")] {
        let text = engine_with(&raw, cfg).explain(&query(Some("b"))).unwrap();
        let line = text.lines().find(|l| l.contains(")-[w:WORKAT]->(")).expect("WORKAT forward");
        assert!(line.contains(op), "{cfg:?}: {text}");
    }
}
