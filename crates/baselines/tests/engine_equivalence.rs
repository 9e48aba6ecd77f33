//! Engine equivalence (ARCHITECTURE.md, "Data flow of one query"): all
//! four engines return identical results on the same logical queries —
//! counts, row multisets, and aggregates — over both hand-built and
//! generated graphs, under multiple storage configurations.

use std::sync::Arc;

use gfcl_baselines::{GfCvEngine, GfRvEngine, RelEngine};
use gfcl_core::query::{col, contains, eq, ge, gt, lit, lt, starts_with, PatternQuery};
use gfcl_core::{Config, Engine, GfClEngine};
use gfcl_datagen::{MovieParams, PowerLawParams, SocialParams};
use gfcl_storage::{ColumnarGraph, EdgePropLayout, RawGraph, RowGraph, StorageConfig};

/// All four engines over one raw graph, GF-CL under the process
/// configuration (CI's `parallel` job runs this binary with
/// `GFCL_THREADS=4`).
fn engines(raw: &RawGraph, cfg: StorageConfig) -> Vec<Box<dyn Engine>> {
    let col_graph = Arc::new(ColumnarGraph::build(raw, cfg).unwrap());
    let row_graph = Arc::new(RowGraph::build(raw).unwrap());
    let exec = Config::from_env().expect("GFCL_* configuration").exec;
    vec![
        Box::new(GfClEngine::with_options(col_graph.clone(), exec)),
        Box::new(GfCvEngine::new(col_graph.clone())),
        Box::new(GfRvEngine::new(row_graph)),
        Box::new(RelEngine::new(col_graph)),
    ]
}

fn assert_all_agree(raw: &RawGraph, cfg: StorageConfig, queries: &[(&str, PatternQuery)]) {
    let engines = engines(raw, cfg);
    for (name, q) in queries {
        let mut outputs = Vec::new();
        for e in &engines {
            let out =
                e.execute(q).unwrap_or_else(|err| panic!("{name} failed on {}: {err}", e.name()));
            outputs.push((e.name(), out.canonical()));
        }
        let reference = &outputs[0].1;
        for (ename, o) in &outputs[1..] {
            assert_eq!(o, reference, "query {name}: {ename} disagrees with {}", outputs[0].0);
        }
    }
}

fn example_queries() -> Vec<(&'static str, PatternQuery)> {
    vec![
        (
            "workat-filter",
            PatternQuery::builder()
                .node("a", "PERSON")
                .node("b", "ORG")
                .edge("e", "WORKAT", "a", "b")
                .filter(gt(col("a", "age"), lit(22)))
                .filter(lt(col("b", "estd"), lit(2015)))
                .returns(&[("a", "name"), ("b", "name")])
                .build(),
        ),
        (
            "two-hop-count",
            PatternQuery::builder()
                .node("a", "PERSON")
                .node("b", "PERSON")
                .node("c", "PERSON")
                .edge("e1", "FOLLOWS", "a", "b")
                .edge("e2", "FOLLOWS", "b", "c")
                .filter(gt(col("e2", "since"), col("e1", "since")))
                .returns_count()
                .build(),
        ),
        (
            "path-into-single-card",
            PatternQuery::builder()
                .node("a", "PERSON")
                .node("b", "PERSON")
                .node("o", "ORG")
                .edge("e1", "FOLLOWS", "a", "b")
                .edge("e2", "STUDYAT", "b", "o")
                .filter(gt(col("e2", "doj"), lit(2014)))
                .returns(&[("a", "name"), ("o", "name")])
                .build(),
        ),
        (
            "string-contains",
            PatternQuery::builder()
                .node("a", "PERSON")
                .node("b", "PERSON")
                .edge("e", "FOLLOWS", "a", "b")
                .filter(contains("a", "name", "e"))
                .returns_count()
                .build(),
        ),
        (
            "sum-agg",
            PatternQuery::builder()
                .node("a", "PERSON")
                .node("b", "PERSON")
                .edge("e", "FOLLOWS", "a", "b")
                .returns_sum("a", "age")
                .build(),
        ),
        (
            "min-max",
            PatternQuery::builder()
                .node("a", "PERSON")
                .node("b", "PERSON")
                .edge("e", "FOLLOWS", "a", "b")
                .returns_max("e", "since")
                .build(),
        ),
    ]
}

#[test]
fn example_graph_all_configs() {
    let raw = RawGraph::example();
    let mut configs: Vec<StorageConfig> =
        StorageConfig::ladder().into_iter().map(|(_, c)| c).collect();
    configs.push(StorageConfig {
        edge_prop_layout: EdgePropLayout::EdgeColumns,
        ..StorageConfig::default()
    });
    configs.push(StorageConfig {
        edge_prop_layout: EdgePropLayout::DoubleIndexed,
        ..StorageConfig::default()
    });
    configs.push(StorageConfig { single_card_in_vcols: false, ..StorageConfig::default() });
    for cfg in configs {
        assert_all_agree(&raw, cfg, &example_queries());
    }
}

#[test]
fn social_graph_queries() {
    let raw = gfcl_datagen::generate_social(SocialParams::scale(80));
    let queries = vec![
        (
            "friends-of-friends",
            PatternQuery::builder()
                .node("p", "Person")
                .node("f", "Person")
                .node("ff", "Person")
                .edge("k1", "knows", "p", "f")
                .edge("k2", "knows", "f", "ff")
                .filter(eq(col("p", "id"), lit(7)))
                .returns(&[("ff", "id")])
                .build(),
        ),
        (
            "comment-likes-date-filter",
            PatternQuery::builder()
                .node("p", "Person")
                .node("c", "Comment")
                .edge("l", "likes", "p", "c")
                .filter(lt(col("l", "date"), lit(1_400_000_000)))
                .filter(ge(col("c", "length"), lit(100)))
                .returns_count()
                .build(),
        ),
        (
            "reply-path-backward",
            PatternQuery::builder()
                .node("c", "Comment")
                .node("po", "Post")
                .node("f", "Forum")
                .edge("r", "replyOf", "c", "po")
                .edge("ct", "containerOf", "f", "po")
                .start_at("c")
                .returns_count()
                .build(),
        ),
        (
            "work-study-star",
            PatternQuery::builder()
                .node("p", "Person")
                .node("o1", "Organisation")
                .node("o2", "Organisation")
                .edge("w", "workAt", "p", "o1")
                .edge("s", "studyAt", "p", "o2")
                .filter(lt(col("w", "year"), lit(2016)))
                .returns_count()
                .build(),
        ),
        (
            "located-in-place-name",
            PatternQuery::builder()
                .node("p", "Person")
                .node("pl", "Place")
                .edge("loc", "personIsLocatedIn", "p", "pl")
                .filter(eq(col("pl", "name"), lit("India")))
                .returns_count()
                .build(),
        ),
    ];
    assert_all_agree(&raw, StorageConfig::default(), &queries);
    assert_all_agree(&raw, StorageConfig::cols(), &queries);
}

#[test]
fn movie_graph_star_queries() {
    let raw = gfcl_datagen::generate_movies(MovieParams::scale(150));
    let queries = vec![
        (
            "job-like-2a",
            PatternQuery::builder()
                .node("t", "title")
                .node("cn", "company_name")
                .node("k", "keyword")
                .edge("mc", "movie_companies", "t", "cn")
                .edge("mk", "movie_keyword", "t", "k")
                .filter(eq(col("cn", "country_code"), lit("[de]")))
                .filter(eq(col("k", "keyword"), lit("character-name-in-title")))
                .returns_count()
                .build(),
        ),
        (
            "job-like-note-contains",
            PatternQuery::builder()
                .node("t", "title")
                .node("cn", "company_name")
                .edge("mc", "movie_companies", "t", "cn")
                .filter(eq(col("mc", "company_type"), lit("production company")))
                .filter(contains("mc", "note", "(co-production)"))
                .returns_count()
                .build(),
        ),
        (
            "cast-star-with-satellite",
            PatternQuery::builder()
                .node("t", "title")
                .node("n", "name")
                .node("mi", "movie_info")
                .edge("ci", "cast_info", "t", "n")
                .edge("hmi", "has_movie_info", "t", "mi")
                .filter(eq(col("mi", "info_type"), lit("genres")))
                .filter(eq(col("mi", "info"), lit("Horror")))
                .filter(eq(col("n", "gender"), lit("m")))
                .returns_count()
                .build(),
        ),
        (
            "rating-string-range",
            PatternQuery::builder()
                .node("t", "title")
                .node("mii", "mov_info_2")
                .edge("h2", "has_mov_info_2", "t", "mii")
                .filter(eq(col("mii", "info_type"), lit("rating")))
                .filter(gt(col("mii", "info"), lit("8.0")))
                .filter(gt(col("t", "production_year"), lit(2000)))
                .returns_count()
                .build(),
        ),
        (
            "person-info-starts-with",
            PatternQuery::builder()
                .node("n", "name")
                .node("pi", "person_info")
                .edge("hpi", "has_person_info", "n", "pi")
                .filter(starts_with("n", "name", "Downey"))
                .filter(eq(col("pi", "info_type"), lit("trivia")))
                .returns_count()
                .build(),
        ),
    ];
    assert_all_agree(&raw, StorageConfig::default(), &queries);
}

#[test]
fn powerlaw_khop_counts() {
    let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: 300,
        avg_degree: 6.0,
        exponent: 1.8,
        seed: 42,
    });
    let one_hop = PatternQuery::builder()
        .node("a", "NODE")
        .node("b", "NODE")
        .edge("e", "LINK", "a", "b")
        .filter(gt(col("e", "ts"), lit(1_350_000_000)))
        .returns_count()
        .build();
    let two_hop = PatternQuery::builder()
        .node("a", "NODE")
        .node("b", "NODE")
        .node("c", "NODE")
        .edge("e1", "LINK", "a", "b")
        .edge("e2", "LINK", "b", "c")
        .filter(gt(col("e2", "ts"), col("e1", "ts")))
        .returns_count()
        .build();
    assert_all_agree(
        &raw,
        StorageConfig::default(),
        &[("1-hop", one_hop.clone()), ("2-hop", two_hop.clone())],
    );
    // Edge-column and double-indexed layouts agree too (Section 8.3 setup).
    for layout in [EdgePropLayout::EdgeColumns, EdgePropLayout::DoubleIndexed] {
        assert_all_agree(
            &raw,
            StorageConfig { edge_prop_layout: layout, ..StorageConfig::default() },
            &[("1-hop", one_hop.clone()), ("2-hop", two_hop.clone())],
        );
    }
}

#[test]
fn sum_overflow_saturates_identically_on_every_engine() {
    // Regression: the baselines' whole-result SUM used to truncate the i128
    // accumulator with `as i64`, wrapping where GF-CL saturates.
    use gfcl_common::{DataType, Value};
    use gfcl_storage::{Catalog, PropertyDef};

    let mut cat = Catalog::new();
    let a = cat.add_vertex_label("A", vec![PropertyDef::new("x", DataType::Int64)]).unwrap();
    let mut raw = RawGraph::new(cat);
    raw.vertices[a as usize].count = 2;
    raw.vertices[a as usize].props[0].push_i64(i64::MAX - 1);
    raw.vertices[a as usize].props[0].push_i64(i64::MAX - 1);
    raw.validate().unwrap();

    let q = PatternQuery::builder().node("a", "A").returns_sum("a", "x").build();
    for e in engines(&raw, StorageConfig::default()) {
        match e.execute(&q).unwrap() {
            gfcl_core::QueryOutput::Agg { value, .. } => {
                assert_eq!(value, Value::Int64(i64::MAX), "{} must saturate", e.name());
            }
            other => panic!("{}: expected aggregate, got {other:?}", e.name()),
        }
    }
}

#[test]
fn scalar_aggregates_agree_by_value_on_every_engine() {
    // `canonical()` renders Int64(0) and Float64(0.0) alike, so compare
    // whole outputs: a whole-result SUM over a DOUBLE slot with no
    // non-NULL input used to be Float64(0.0) on GF-CL and Int64(0) on the
    // other three engines.
    use gfcl_common::{DataType, Value};
    use gfcl_storage::{Catalog, PropertyDef};

    let props = [("k", DataType::Int64), ("x", DataType::Int64), ("y", DataType::Float64)];
    let mut props: Vec<PropertyDef> = props.iter().map(|&(n, t)| PropertyDef::new(n, t)).collect();
    props.push(PropertyDef::new("d", DataType::Date));
    let mut cat = Catalog::new();
    let a = cat.add_vertex_label("A", props).unwrap();
    let mut raw = RawGraph::new(cat);
    // k = 0, 1: x, y and d all NULL; k = 2, 3: values.
    let rows = [
        [Value::Int64(0), Value::Null, Value::Null, Value::Null],
        [Value::Int64(1), Value::Null, Value::Null, Value::Null],
        [Value::Int64(2), Value::Int64(-4), Value::Float64(1.5), Value::Date(19_000)],
        [Value::Int64(3), Value::Int64(9), Value::Float64(-0.25), Value::Date(18_000)],
    ];
    let va = &mut raw.vertices[a as usize];
    va.count = rows.len();
    for row in rows {
        for (col, v) in va.props.iter_mut().zip(row) {
            col.push_value(v).unwrap();
        }
    }
    raw.validate().unwrap();

    let inputs = [
        ("empty", Some(gt(col("a", "k"), lit(100)))),
        ("all-NULL", Some(lt(col("a", "k"), lit(2)))),
        ("mixed", None),
    ];
    let engines = engines(&raw, StorageConfig::default());
    for (input, filter) in inputs {
        let base = || {
            let b = PatternQuery::builder().node("a", "A");
            match &filter {
                Some(f) => b.filter(f.clone()),
                None => b,
            }
        };
        let mut queries = vec![base().returns_count().build()];
        for p in ["x", "y", "d"] {
            queries.push(base().returns_sum("a", p).build());
            queries.push(base().returns_min("a", p).build());
            queries.push(base().returns_max("a", p).build());
        }
        for q in &queries {
            let reference = engines[0].execute(q).unwrap();
            for e in &engines[1..] {
                let out = e.execute(q).unwrap();
                assert_eq!(out, reference, "over {input} input: {} disagrees with GF-CL", e.name());
            }
        }
    }
}

#[test]
fn empty_whole_result_aggregate_is_one_row_on_every_engine() {
    // SQL: an aggregate without GROUP BY returns one row over an empty
    // match set; all engines share the seeded keyless group.
    use gfcl_core::query::Agg;
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .filter(gt(col("a", "age"), lit(100)))
        .returns_agg(vec![Agg::count_star(), Agg::sum("a", "age"), Agg::min("a", "age")])
        .build();
    let reference = "rows[count(*),sum(a.age),min(a.age)]:0|NULL|NULL";
    for e in engines(&raw, StorageConfig::default()) {
        assert_eq!(e.execute(&q).unwrap().canonical(), reference, "{}", e.name());
    }
}
