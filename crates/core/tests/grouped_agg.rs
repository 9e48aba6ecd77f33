//! Grouped aggregation, top-k, and DISTINCT through the list-based
//! processor, hand-checked on the paper's Figure-1 example graph — at one
//! worker and at four (the partial-table merge path).

use std::sync::Arc;

use gfcl_common::{Error, Value};
use gfcl_core::query::{col, eq, gt, lit, Agg, PatternQuery, SortDir};
use gfcl_core::{Engine, ExecOptions, GfClEngine, QueryOutput};
use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};

fn engine(threads: usize) -> GfClEngine {
    let g = Arc::new(ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap());
    GfClEngine::with_options(g, ExecOptions::with_threads(threads))
}

fn follows_grouped() -> PatternQuery {
    // MATCH (a:PERSON)-[e:FOLLOWS]->(b:PERSON)
    // RETURN a.gender, COUNT(*), SUM(e.since), MIN(b.age), AVG(b.age),
    //        COUNT(DISTINCT b.gender)
    PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .group_by(&[("a", "gender")])
        .returns_agg(vec![
            Agg::count_star(),
            Agg::sum("e", "since"),
            Agg::min("b", "age"),
            Agg::avg("b", "age"),
            Agg::count_distinct("b", "gender"),
        ])
        .build()
}

#[test]
fn grouped_aggregates_match_hand_computed_values() {
    for threads in [1, 4] {
        let out = engine(threads).execute(&follows_grouped()).unwrap();
        let QueryOutput::Rows { header, rows } = out else { panic!("rows expected") };
        assert_eq!(
            &header[..],
            [
                "a.gender",
                "count(*)",
                "sum(e.since)",
                "min(b.age)",
                "avg(b.age)",
                "count(distinct b.gender)"
            ]
        );
        // Keys sort canonically: "F" < "M".
        assert_eq!(
            rows,
            vec![
                vec![
                    Value::String("F".into()),
                    Value::Int64(3),
                    Value::Int64(6014),
                    Value::Int64(23),
                    Value::Float64((54 + 23 + 54) as f64 / 3.0),
                    // alice/jenny follow bob (M) and jenny (F).
                    Value::Int64(2),
                ],
                vec![
                    Value::String("M".into()),
                    Value::Int64(5),
                    Value::Int64(10033),
                    Value::Int64(17),
                    Value::Float64((17 + 23 + 23 + 54 + 45) as f64 / 5.0),
                    Value::Int64(2),
                ],
            ],
            "threads={threads}"
        );
    }
}

#[test]
fn whole_result_multi_aggregate_has_no_keys() {
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .returns_agg(vec![Agg::count_star(), Agg::max("e", "since"), Agg::avg("a", "age")])
        .build();
    for threads in [1, 4] {
        let out = engine(threads).execute(&q).unwrap();
        let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected") };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int64(8));
        assert_eq!(rows[0][1], Value::Int64(2015));
    }
}

#[test]
fn group_by_without_aggregates_returns_distinct_keys() {
    let q = PatternQuery::builder().node("a", "PERSON").group_by(&[("a", "gender")]).build();
    let out = engine(1).execute(&q).unwrap();
    let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected") };
    assert_eq!(rows, vec![vec![Value::String("F".into())], vec![Value::String("M".into())]]);
}

#[test]
fn top_k_orders_and_limits_deterministically() {
    // Top-2 FOLLOWS edges by `since`, newest first.
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .returns(&[("a", "name"), ("e", "since")])
        .order_by(1, SortDir::Desc)
        .limit(2)
        .build();
    for threads in [1, 4] {
        let out = engine(threads).execute(&q).unwrap();
        let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected") };
        assert_eq!(
            rows,
            vec![
                vec![Value::String("peter".into()), Value::Int64(2015)],
                vec![Value::String("jenny".into()), Value::Int64(2012)],
            ],
            "threads={threads}"
        );
    }
}

#[test]
fn grouped_output_supports_order_by_and_limit() {
    // The busiest follower: GROUP BY a.name ORDER BY count(*) DESC LIMIT 1.
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .group_by(&[("a", "name")])
        .returns_agg(vec![Agg::count_star()])
        .order_by(1, SortDir::Desc)
        .limit(1)
        .build();
    for threads in [1, 4] {
        let out = engine(threads).execute(&q).unwrap();
        let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected") };
        assert_eq!(rows, vec![vec![Value::String("peter".into()), Value::Int64(3)]]);
    }
}

#[test]
fn distinct_deduplicates_and_sorts_canonically() {
    // Followed persons' genders, deduplicated.
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .returns(&[("b", "gender")])
        .distinct()
        .build();
    for threads in [1, 4] {
        let out = engine(threads).execute(&q).unwrap();
        let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected") };
        assert_eq!(
            rows,
            vec![vec![Value::String("F".into())], vec![Value::String("M".into())]],
            "threads={threads}"
        );
    }
}

#[test]
fn whole_result_aggregate_over_empty_match_returns_one_row() {
    // SQL: an aggregate without GROUP BY returns exactly one row even when
    // nothing matches — COUNT(*) = 0, SUM/MIN/AVG = NULL. (Regression: the
    // keyless group used to exist only if a chunk state fed it.)
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .filter(gt(col("a", "age"), lit(100)))
        .returns_agg(vec![
            Agg::count_star(),
            Agg::sum("a", "age"),
            Agg::min("a", "age"),
            Agg::avg("a", "age"),
            Agg::count_distinct("a", "gender"),
        ])
        .build();
    for threads in [1, 4] {
        let out = engine(threads).execute(&q).unwrap();
        let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected") };
        assert_eq!(
            rows,
            vec![vec![Value::Int64(0), Value::Null, Value::Null, Value::Null, Value::Int64(0),]],
            "threads={threads}"
        );
    }
    // A *keyed* grouped aggregate over an empty match still returns no rows.
    let keyed = PatternQuery::builder()
        .node("a", "PERSON")
        .filter(gt(col("a", "age"), lit(100)))
        .group_by(&[("a", "gender")])
        .returns_agg(vec![Agg::count_star()])
        .build();
    let QueryOutput::Rows { rows, .. } = engine(1).execute(&keyed).unwrap() else { panic!() };
    assert!(rows.is_empty());
}

// ---- Satellite regressions -------------------------------------------------

#[test]
fn min_max_over_empty_result_is_null_not_a_sentinel() {
    // No PERSON is older than 100: the match set is empty.
    for threads in [1, 4] {
        let e = engine(threads);
        for (q, name) in [
            (
                PatternQuery::builder()
                    .node("a", "PERSON")
                    .filter(gt(col("a", "age"), lit(100)))
                    .returns_min("a", "age")
                    .build(),
                "min(a.age)",
            ),
            (
                PatternQuery::builder()
                    .node("a", "PERSON")
                    .filter(gt(col("a", "age"), lit(100)))
                    .returns_max("a", "age")
                    .build(),
                "max(a.age)",
            ),
        ] {
            let out = e.execute(&q).unwrap();
            assert_eq!(
                out,
                QueryOutput::Agg { name: name.into(), value: Value::Null },
                "threads={threads}"
            );
        }
    }
}

#[test]
fn aggregate_over_undeclared_property_is_a_plan_error_naming_it() {
    let e = engine(1);
    for q in [
        PatternQuery::builder().node("a", "PERSON").returns_sum("a", "salary").build(),
        PatternQuery::builder().node("a", "PERSON").returns_min("a", "salary").build(),
        PatternQuery::builder().node("a", "PERSON").returns_max("a", "salary").build(),
        PatternQuery::builder()
            .node("a", "PERSON")
            .returns_agg(vec![Agg::sum("a", "salary")])
            .build(),
    ] {
        let err = e.plan(&q).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains("a.salary"), "{err}");
    }
}

#[test]
fn malformed_grouped_clauses_fail_at_build_time() {
    // DISTINCT with aggregates.
    let err = PatternQuery::builder()
        .node("a", "PERSON")
        .group_by(&[("a", "gender")])
        .returns_agg(vec![Agg::count_star()])
        .distinct()
        .try_build()
        .unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "{err:?}");

    // group_by combined with another returns_* clause.
    let err = PatternQuery::builder()
        .node("a", "PERSON")
        .group_by(&[("a", "gender")])
        .returns_count()
        .try_build()
        .unwrap_err();
    assert!(err.to_string().contains("returns_"), "{err}");

    // order_by on a scalar return.
    let err = PatternQuery::builder()
        .node("a", "PERSON")
        .returns_count()
        .order_by(0, SortDir::Asc)
        .try_build()
        .unwrap_err();
    assert!(err.to_string().contains("order_by"), "{err}");
}

#[test]
fn order_by_out_of_range_is_a_plan_error() {
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .returns(&[("a", "name")])
        .order_by(3, SortDir::Asc)
        .build();
    let err = engine(1).plan(&q).unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "{err:?}");
    assert!(err.to_string().contains("column 3"), "{err}");
}

#[test]
fn grouped_key_on_an_unflat_far_end_is_enumerated_not_wrong() {
    // Key on the *extension* side: GROUP BY b.name over FOLLOWS — the key
    // group is the unflat adjacency view, so the sink enumerates it (keys
    // only) and still agrees with the tuple count.
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .group_by(&[("b", "name")])
        .returns_agg(vec![Agg::count_star()])
        .build();
    for threads in [1, 4] {
        let out = engine(threads).execute(&q).unwrap();
        let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected") };
        // In-degrees: alice 1 (p2->p0), bob 3, jenny 3, peter 1.
        assert_eq!(
            rows,
            vec![
                vec![Value::String("alice".into()), Value::Int64(1)],
                vec![Value::String("bob".into()), Value::Int64(3)],
                vec![Value::String("jenny".into()), Value::Int64(3)],
                vec![Value::String("peter".into()), Value::Int64(1)],
            ],
            "threads={threads}"
        );
    }
}

#[test]
fn pk_seek_grouped_query_works() {
    // Seek + group: bob's followees by gender.
    let mut cat_graph = RawGraph::example();
    cat_graph.catalog.set_primary_key(0, "age").unwrap();
    let g = Arc::new(ColumnarGraph::build(&cat_graph, StorageConfig::default()).unwrap());
    let e = GfClEngine::with_options(g, ExecOptions::serial());
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .filter(eq(col("a", "age"), lit(54)))
        .group_by(&[("b", "gender")])
        .returns_agg(vec![Agg::count_star()])
        .build();
    let QueryOutput::Rows { rows, .. } = e.execute(&q).unwrap() else { panic!() };
    // bob follows peter (M) and jenny (F).
    assert_eq!(
        rows,
        vec![
            vec![Value::String("F".into()), Value::Int64(1)],
            vec![Value::String("M".into()), Value::Int64(1)],
        ]
    );
}
