//! Grouped-aggregation correctness nets:
//!
//! 1. every GA workload query agrees **byte-for-byte** (not just
//!    canonically) across GF-CL at 1 and 4 workers, GF-CV, GF-RV, and the
//!    relational baseline — grouped and top-k outputs are canonically
//!    ordered, so exact equality is required;
//! 2. a property test: grouped aggregation over random power-law graphs
//!    equals a naive enumerate-then-fold reference (computed in this file
//!    from plain projection rows, independent of the engine's aggregate
//!    machinery), at `threads = 1` and `threads = 4`;
//! 3. named cases for the sinks that compare and deduplicate raw entries:
//!    a DOUBLE `ORDER BY … LIMIT` over NaN, ±0 and NULL, and `DISTINCT`
//!    over a string slot whose codes reach into a delta string extension.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gfcl_baselines::{GfCvEngine, GfRvEngine, RelEngine};
use gfcl_common::Value;
use gfcl_core::query::{col, gt, lit, Agg, PatternQuery, SortDir};
use gfcl_core::{Engine, ExecOptions, GfClEngine, QueryOutput};
use gfcl_datagen::{PowerLawParams, SocialParams};
use gfcl_storage::{merged_raw, ColumnarGraph, GraphStore, RowGraph, StorageConfig};
use gfcl_workloads::{ga_queries, LdbcParams};
use proptest::prelude::*;

#[test]
fn ga_queries_agree_byte_for_byte_across_engines_and_threads() {
    let persons = 100;
    let raw = gfcl_datagen::generate_social(SocialParams::scale(persons));
    let params = LdbcParams::for_scale(persons);
    let colg = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let rowg = Arc::new(RowGraph::build(&raw).unwrap());

    let engines: Vec<(String, Box<dyn Engine>)> = vec![
        ("GF-CL/1".into(), Box::new(GfClEngine::with_options(colg.clone(), ExecOptions::serial()))),
        (
            "GF-CL/4".into(),
            Box::new(GfClEngine::with_options(colg.clone(), ExecOptions::with_threads(4))),
        ),
        ("GF-CV".into(), Box::new(GfCvEngine::new(colg.clone()))),
        ("GF-RV".into(), Box::new(GfRvEngine::new(rowg))),
        ("REL".into(), Box::new(RelEngine::new(colg))),
    ];

    for (qname, q) in ga_queries(&params) {
        let reference = engines[0]
            .1
            .execute(&q)
            .unwrap_or_else(|e| panic!("{qname} failed on {}: {e}", engines[0].0));
        assert!(reference.cardinality() > 0, "{qname} should not be empty");
        for (ename, engine) in &engines[1..] {
            let out =
                engine.execute(&q).unwrap_or_else(|e| panic!("{qname} failed on {ename}: {e}"));
            assert_eq!(out, reference, "{qname}: {ename} vs {}", engines[0].0);
        }
    }
}

// ---- Property test: factorized grouped aggregation vs naive fold ----------

/// The grouped 2-hop under test: per start vertex, aggregate the far edge's
/// timestamp — the far end stays an unflat adjacency view in the LBP.
fn grouped_two_hop(t: i64) -> PatternQuery {
    PatternQuery::builder()
        .node("v0", "NODE")
        .node("v1", "NODE")
        .node("v2", "NODE")
        .edge("e1", "LINK", "v0", "v1")
        .edge("e2", "LINK", "v1", "v2")
        .filter(gt(col("e1", "ts"), lit(t)))
        .group_by(&[("v0", "id")])
        .returns_agg(vec![
            Agg::count_star(),
            Agg::sum("e2", "ts"),
            Agg::min("e2", "ts"),
            Agg::max("e2", "ts"),
            Agg::avg("e2", "ts"),
            Agg::count_distinct("v2", "id"),
        ])
        .build()
}

/// The same matches as flat rows, for the naive reference fold.
fn enumerated_two_hop(t: i64) -> PatternQuery {
    PatternQuery::builder()
        .node("v0", "NODE")
        .node("v1", "NODE")
        .node("v2", "NODE")
        .edge("e1", "LINK", "v0", "v1")
        .edge("e2", "LINK", "v1", "v2")
        .filter(gt(col("e1", "ts"), lit(t)))
        .returns(&[("v0", "id"), ("e2", "ts"), ("v2", "id")])
        .build()
}

/// Naive enumerate-then-fold reference, written with plain maps and i64
/// arithmetic — deliberately independent of `gfcl_core::agg`.
fn naive_reference(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    struct Acc {
        count: i64,
        sum: i64,
        min: Option<i64>,
        max: Option<i64>,
        distinct: BTreeSet<i64>,
    }
    let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
    for r in rows {
        let key = r[0].as_i64().expect("id is non-null");
        let ts = r[1].as_i64().expect("ts is non-null");
        let far = r[2].as_i64().expect("id is non-null");
        let acc = groups.entry(key).or_insert(Acc {
            count: 0,
            sum: 0,
            min: None,
            max: None,
            distinct: BTreeSet::new(),
        });
        acc.count += 1;
        acc.sum += ts;
        acc.min = Some(acc.min.map_or(ts, |m| m.min(ts)));
        acc.max = Some(acc.max.map_or(ts, |m| m.max(ts)));
        acc.distinct.insert(far);
    }
    groups
        .into_iter()
        .map(|(k, a)| {
            vec![
                Value::Int64(k),
                Value::Int64(a.count),
                Value::Int64(a.sum),
                a.min.map_or(Value::Null, Value::Date),
                a.max.map_or(Value::Null, Value::Date),
                Value::Float64(a.sum as f64 / a.count as f64),
                Value::Int64(a.distinct.len() as i64),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn grouped_aggregation_matches_naive_fold_on_random_powerlaw_graphs(
        nodes in 30usize..150,
        avg_degree in 1.0f64..5.0,
        exponent in 1.4f64..2.4,
        seed in 0u64..1_000,
        t in 1_300_000_000i64..1_500_000_000,
    ) {
        let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
            nodes, avg_degree, exponent, seed,
        });
        let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
        let serial = GfClEngine::with_options(graph.clone(), ExecOptions::serial());

        let flat = serial.execute(&enumerated_two_hop(t)).unwrap();
        let QueryOutput::Rows { rows, .. } = flat else { panic!("rows expected") };
        let expected = naive_reference(&rows);

        for threads in [1usize, 4] {
            let engine =
                GfClEngine::with_options(graph.clone(), ExecOptions::with_threads(threads));
            let out = engine.execute(&grouped_two_hop(t)).unwrap();
            let QueryOutput::Rows { rows: got, .. } = out else { panic!("rows expected") };
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
    }

    /// Top-k over the same random graphs: the engine's ordered/limited
    /// output equals sorting + truncating the enumerated rows.
    #[test]
    fn top_k_matches_naive_sort_on_random_powerlaw_graphs(
        nodes in 30usize..120,
        seed in 0u64..1_000,
        k in 1usize..20,
    ) {
        let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
            nodes, avg_degree: 3.0, exponent: 1.8, seed,
        });
        let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
        let q = PatternQuery::builder()
            .node("v0", "NODE")
            .node("v1", "NODE")
            .edge("e1", "LINK", "v0", "v1")
            .returns(&[("v0", "id"), ("e1", "ts")])
            .order_by(1, SortDir::Desc)
            .limit(k)
            .build();
        let plain = {
            let mut p = q.clone();
            p.order_by.clear();
            p.limit = None;
            p
        };
        let serial = GfClEngine::with_options(graph.clone(), ExecOptions::serial());
        let QueryOutput::Rows { rows: mut all, .. } = serial.execute(&plain).unwrap() else {
            panic!("rows expected")
        };
        // Naive: sort by ts desc, tie-break on the whole row, take k.
        all.sort_by(|a, b| {
            let ta = a[1].as_i64().unwrap();
            let tb = b[1].as_i64().unwrap();
            tb.cmp(&ta).then(a[0].as_i64().unwrap().cmp(&b[0].as_i64().unwrap()))
        });
        all.truncate(k);
        for threads in [1usize, 4] {
            let engine =
                GfClEngine::with_options(graph.clone(), ExecOptions::with_threads(threads));
            let QueryOutput::Rows { rows: got, .. } = engine.execute(&q).unwrap() else {
                panic!("rows expected")
            };
            prop_assert_eq!(&got, &all, "threads={}", threads);
        }
    }
}

/// The top-k orders under test, over the projection of
/// [`top_k_projection`]: a NULL-bearing date, heavily tied strings and
/// integers, several multi-key mixes, and no key at all (`LIMIT` alone
/// keeps the first rows of the canonical order).
const TOP_K_ORDERS: &[&[(usize, SortDir)]] = &[
    &[(0, SortDir::Asc)],
    &[(0, SortDir::Desc)],
    &[(1, SortDir::Desc)],
    &[(2, SortDir::Asc)],
    &[(1, SortDir::Asc), (2, SortDir::Desc)],
    &[(3, SortDir::Desc), (0, SortDir::Asc), (1, SortDir::Asc)],
    &[],
];

/// Comments and their creators: `c.creationDate` (NULL for a fifth of the
/// comments), `a.browserUsed` and `a.gender` (a handful of strings: heavy
/// ties), `c.length` (tied integers) and `c.id` (unique). With `hop`, each
/// row repeats once per friend of the creator, through a list group the
/// projection never reads.
fn top_k_projection(hop: bool, start: &str) -> gfcl_core::query::QueryBuilder {
    let b = PatternQuery::builder().node("c", "Comment").node("a", "Person");
    let b = b.edge("hc", "hasCreator", "c", "a");
    let b = if hop { b.node("f", "Person").edge("k", "knows", "a", "f") } else { b };
    b.returns(&[
        ("c", "creationDate"),
        ("a", "browserUsed"),
        ("c", "length"),
        ("a", "gender"),
        ("c", "id"),
    ])
    .start_at(start)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The bounded top-k sink equals `finalize_rows` over the full
    /// enumeration on results of 10 000+ rows: far past any prune
    /// threshold, over hundreds of chunk states (one per person from
    /// `a`, one per small morsel from `c`), with the threshold sitting in
    /// long runs of tied keys.
    #[test]
    fn top_k_matches_finalize_rows_on_large_tied_results(
        persons in 1_300usize..1_500,
        seed in 0u64..1_000,
        hop in any::<bool>(),
        from_person in any::<bool>(),
        order in 0usize..TOP_K_ORDERS.len(),
        k_pick in 0usize..4,
        k_small in 2usize..64,
    ) {
        let raw = gfcl_datagen::generate_social(SocialParams {
            knows_avg_degree: 2.0,
            likes_per_person: 1.0,
            comment_date_null_fraction: 0.2,
            seed,
            ..SocialParams::scale(persons)
        });
        let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
        let start = if from_person { "a" } else { "c" };
        let plain = top_k_projection(hop, start).build();
        let serial = GfClEngine::with_options(graph.clone(), ExecOptions::serial());
        let QueryOutput::Rows { rows: all, .. } = serial.execute(&plain).unwrap() else {
            panic!("rows expected")
        };
        let n = all.len();
        prop_assert!(n >= 10_000, "{} rows", n);

        let k = [0, 1, k_small, n + 100][k_pick];
        let mut b = top_k_projection(hop, start);
        for &(col, dir) in TOP_K_ORDERS[order] {
            b = b.order_by(col, dir);
        }
        let q = b.limit(k).build();
        let plan = gfcl_core::plan_query(&q, graph.catalog()).unwrap();
        let expected = gfcl_core::agg::finalize_rows(&plan, all);
        prop_assert_eq!(expected.len(), k.min(n));
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads).morsel(64);
            let engine = GfClEngine::with_options(graph.clone(), opts);
            let QueryOutput::Rows { rows: got, .. } = engine.execute(&q).unwrap() else {
                panic!("rows expected")
            };
            prop_assert_eq!(&got, &expected, "threads={} order={} k={}", threads, order, k);
        }
    }
}

// ---- Named cases: sinks over raw entries ------------------------------------

/// Rows with every float as its bits, so NaN payloads and the sign of zero
/// compare exactly (`Value`'s `PartialEq` says `NaN != NaN`, `0.0 == -0.0`).
fn row_bits(out: &QueryOutput) -> Vec<Vec<String>> {
    let QueryOutput::Rows { rows, .. } = out else { panic!("rows expected, got {out:?}") };
    let bits = |v: &Value| match v {
        Value::Float64(f) => format!("f64:{:x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    rows.iter().map(|r| r.iter().map(bits).collect()).collect()
}

/// `ITEM(id, score DOUBLE, tag)`: 1 200 items whose scores cycle through
/// NaN, a negative-payload NaN, ±0, ±infinity, NULL and heavily tied
/// finite values, so the top-k threshold sits in long ties whatever the
/// order. `tag` is a permutation of the ids out of scan order, so the row
/// tie-break disagrees with arrival order.
fn double_items() -> gfcl_storage::RawGraph {
    use gfcl_common::DataType::{Float64, Int64};
    use gfcl_storage::{Catalog, PropertyDef, RawGraph};
    let mut cat = Catalog::new();
    let item = cat
        .add_vertex_label(
            "ITEM",
            vec![
                PropertyDef::new("id", Int64),
                PropertyDef::new("score", Float64),
                PropertyDef::new("tag", Int64),
            ],
        )
        .unwrap();
    cat.set_primary_key(item, "id").unwrap();
    let mut raw = RawGraph::new(cat);
    let t = &mut raw.vertices[item as usize];
    let specials = [
        Some(f64::NAN),
        Some(-f64::NAN),
        Some(0.0),
        Some(-0.0),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        None,
    ];
    t.count = 1_200;
    for i in 0..1_200usize {
        t.props[0].push_i64(i as i64);
        t.props[2].push_i64((i as i64 * 7_919) % 1_201);
        match i % 10 {
            0..=6 => match specials[(i / 10) % specials.len()] {
                Some(x) => t.props[1].push_f64(x),
                None => t.props[1].push_null(),
            },
            k => t.props[1].push_f64((k as f64 - 8.0) * 0.5 + (i % 3) as f64),
        }
    }
    raw
}

#[test]
fn double_order_by_limit_orders_nan_and_signed_zeros_like_the_full_sort() {
    let raw = double_items();
    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let cv = GfCvEngine::new(Arc::clone(&graph));
    let all = GfClEngine::with_options(Arc::clone(&graph), ExecOptions::serial())
        .execute(
            &PatternQuery::builder()
                .node("n", "ITEM")
                .returns(&[("n", "score"), ("n", "tag")])
                .build(),
        )
        .unwrap();
    let QueryOutput::Rows { rows: all, .. } = all else { panic!("rows expected") };
    for dir in [SortDir::Desc, SortDir::Asc] {
        for k in [1usize, 7, 10, 150, 1_199, 5_000] {
            let q = PatternQuery::builder()
                .node("n", "ITEM")
                .returns(&[("n", "score"), ("n", "tag")])
                .order_by(0, dir)
                .limit(k)
                .build();
            let plan = gfcl_core::plan_query(&q, graph.catalog()).unwrap();
            let header = plan.header.clone();
            let want = QueryOutput::Rows {
                header,
                rows: gfcl_core::agg::finalize_rows(&plan, all.clone()),
            };
            assert_eq!(row_bits(&cv.execute(&q).unwrap()), row_bits(&want), "GF-CV {dir:?} {k}");
            for threads in [1usize, 4] {
                let opts = ExecOptions::with_threads(threads).morsel(64);
                let got = GfClEngine::with_options(Arc::clone(&graph), opts).execute(&q).unwrap();
                assert_eq!(row_bits(&got), row_bits(&want), "threads={threads} {dir:?} {k}");
            }
        }
    }
}

#[test]
fn distinct_strings_on_a_mutated_snapshot_decode_extension_codes() {
    let raw = gfcl_datagen::generate_social(SocialParams::scale(300));
    let store = GraphStore::in_memory(&raw, StorageConfig::default()).unwrap();
    let mut txn = store.begin_write();
    // Browsers the baseline dictionary lacks land in the delta's string
    // extension, one of them on a baseline person; an old one recurs.
    for (i, browser) in ["Lynx", "Arc", "Lynx", "Chrome", "Brave"].into_iter().enumerate() {
        let props = [
            ("id", Value::Int64(9_000 + i as i64)),
            ("browserUsed", Value::String(browser.into())),
            ("creationDate", Value::Date(1_400_000_000)),
        ];
        txn.insert_vertex("Person", &props).unwrap();
    }
    let p0 = txn.lookup_pk("Person", 0).unwrap().unwrap();
    txn.update_vertex("Person", p0, &[("browserUsed", Value::String("Netscape".into()))]).unwrap();
    txn.commit().unwrap();
    let snap = store.snapshot();

    let q = PatternQuery::builder()
        .node("p", "Person")
        .returns(&[("p", "browserUsed"), ("p", "gender")])
        .distinct()
        .build();
    let rebuilt = Arc::new(
        ColumnarGraph::build(
            &merged_raw(snap.base(), snap.delta()).unwrap(),
            StorageConfig::default(),
        )
        .unwrap(),
    );
    let want = GfClEngine::with_options(rebuilt, ExecOptions::serial()).execute(&q).unwrap();
    let QueryOutput::Rows { rows, .. } = &want else { panic!("rows expected") };
    for browser in ["Lynx", "Arc", "Brave", "Netscape"] {
        assert!(rows.iter().any(|r| r[0] == Value::String(browser.into())), "{browser}");
    }
    assert_eq!(GfCvEngine::with_snapshot(&snap).execute(&q).unwrap(), want, "GF-CV+delta");
    for threads in [1usize, 4] {
        let opts = ExecOptions::with_threads(threads).morsel(64);
        let got = GfClEngine::with_snapshot_options(&snap, opts).execute(&q).unwrap();
        assert_eq!(got, want, "threads={threads}");
    }
}
