//! Pushdown-vs-no-pushdown equivalence: for every query with scan-node
//! predicates, executing the *pushed* plan must be indistinguishable from
//! executing the classic read-then-filter plan — across all four engines,
//! at 1 and 4 workers, and at non-default morsel sizes (which change how
//! scan morsels align with zone-map blocks).
//!
//! This is the safety net for the whole pushdown path: a zone map whose
//! min/max is off by one, a block verdict that miscounts NULLs, or a
//! selection-aware fill that skips a live position all show up here as an
//! output mismatch against the `PlanOptions::no_pushdown()` plan.

use std::sync::Arc;

use gfcl_baselines::{GfCvEngine, GfRvEngine, RelEngine};
use gfcl_common::Value;
use gfcl_core::plan::{plan_with, PlanOptions, PlanStep};
use gfcl_core::query::{
    col, eq, ge, gt, in_set, le, lit, lt, not, or, starts_with, Agg, PatternQuery, QueryBuilder,
};
use gfcl_core::{Engine, ExecOptions, GfClEngine, QueryOutput};
use gfcl_datagen::{PowerLawParams, SocialParams};
use gfcl_storage::{ColumnarGraph, GraphStore, RawGraph, RowGraph, StorageConfig, WriteTxn};
use proptest::prelude::*;

/// Worker counts under test.
const THREADS: [usize; 2] = [1, 4];

fn engines(
    col_graph: &Arc<ColumnarGraph>,
    row_graph: &Arc<RowGraph>,
    opts: ExecOptions,
) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(GfClEngine::with_options(col_graph.clone(), opts)),
        Box::new(GfCvEngine::new(col_graph.clone())),
        Box::new(GfRvEngine::new(row_graph.clone())),
        Box::new(RelEngine::new(col_graph.clone())),
    ]
}

/// Execute `q` with and without pushdown on every engine at every worker
/// count and assert identical canonical output; for the serial LBP the
/// outputs must be *exactly* equal (same row order), and non-default
/// morsel sizes must change nothing either.
fn assert_pushdown_equivalent(raw: &RawGraph, queries: &[(String, PatternQuery)]) {
    let col_graph = Arc::new(ColumnarGraph::build(raw, StorageConfig::default()).unwrap());
    let row_graph = Arc::new(RowGraph::build(raw).unwrap());
    let per_threads =
        THREADS.map(|threads| engines(&col_graph, &row_graph, ExecOptions::with_threads(threads)));
    let lbp = |opts| GfClEngine::with_options(col_graph.clone(), opts);
    let catalog = col_graph.catalog().clone();
    for (name, q) in queries {
        let pushed = plan_with(q, &catalog, &PlanOptions::default())
            .unwrap_or_else(|e| panic!("{name} failed to plan with pushdown: {e}"));
        let plain = plan_with(q, &catalog, &PlanOptions::no_pushdown())
            .unwrap_or_else(|e| panic!("{name} failed to plan without pushdown: {e}"));
        for (threads, engines) in THREADS.into_iter().zip(&per_threads) {
            for e in engines {
                let a = e
                    .run_plan(&pushed)
                    .unwrap_or_else(|err| panic!("{name} pushed failed on {}: {err}", e.name()));
                let b = e.run_plan(&plain).unwrap_or_else(|err| {
                    panic!("{name} no-pushdown failed on {}: {err}", e.name())
                });
                assert_eq!(
                    a.canonical(),
                    b.canonical(),
                    "{name}: pushdown changed {} output at {threads} worker(s)",
                    e.name()
                );
            }
        }
        // Serial LBP: byte-identical, not just canonically equal — and
        // stable under morsel sizes that split or straddle zone blocks.
        let serial = lbp(ExecOptions::serial());
        let reference = serial.run_plan(&plain).unwrap();
        assert_eq!(serial.run_plan(&pushed).unwrap(), reference, "{name}");
        for morsel in [7usize, 512, 1500] {
            let opts = ExecOptions::serial().morsel(morsel);
            assert_eq!(
                lbp(opts).run_plan(&pushed).unwrap(),
                reference,
                "{name}: morsel {morsel} changed the serial output"
            );
        }
    }
}

/// The pushdown-relevant query shapes over a power-law graph (NODE.id is a
/// dense sequential key — the zone-map sweet spot).
fn powerlaw_queries(n: usize) -> Vec<(String, PatternQuery)> {
    let n = n as i64;
    let khop = |hops: usize| {
        let mut b = PatternQuery::builder();
        for i in 0..=hops {
            b = b.node(&format!("v{i}"), "NODE");
        }
        for i in 0..hops {
            b = b.edge(&format!("e{}", i + 1), "LINK", &format!("v{i}"), &format!("v{}", i + 1));
        }
        b
    };
    vec![
        (
            "scan-range-count".into(),
            khop(0).filter(ge(col("v0", "id"), lit(n - n / 64 - 1))).returns_count().build(),
        ),
        (
            "scan-range-rows".into(),
            khop(0).filter(lt(col("v0", "id"), lit(n / 7))).returns(&[("v0", "id")]).build(),
        ),
        (
            "scan-in-set".into(),
            khop(0)
                .filter(gfcl_core::query::Expr::InSet {
                    prop: gfcl_core::query::PropRef { var: "v0".into(), prop: "id".into() },
                    values: vec![0i64.into(), (n / 2).into(), (n - 1).into(), (n + 5).into()],
                })
                .returns(&[("v0", "id")])
                .build(),
        ),
        (
            "scan-or-not".into(),
            khop(0)
                .filter(or(vec![lt(col("v0", "id"), lit(3)), not(le(col("v0", "id"), lit(n - 3)))]))
                .returns(&[("v0", "id")])
                .build(),
        ),
        (
            "one-hop-pushed-start".into(),
            khop(1)
                .filter(ge(col("v0", "id"), lit(n - n / 8)))
                .filter(gt(col("e1", "ts"), lit(1_350_000_000)))
                .returns_count()
                .build(),
        ),
        (
            "two-hop-far-end-filter".into(),
            // The optimizer may start from either end; whichever it scans,
            // the id predicate on that end is pushable.
            khop(2).filter(eq(col("v2", "id"), lit(n / 3))).returns_count().build(),
        ),
        (
            "grouped-with-pushed-filter".into(),
            khop(1)
                .filter(lt(col("v0", "id"), lit(n / 4)))
                .group_by(&[("v0", "id")])
                .returns_agg(vec![Agg::count_star()])
                .build(),
        ),
    ]
}

/// String/date predicates over the social schema (dictionary bitmaps +
/// code-presence zone pruning).
fn social_queries() -> Vec<(String, PatternQuery)> {
    let knows1 = || {
        PatternQuery::builder().node("p", "Person").node("q", "Person").edge("k", "knows", "p", "q")
    };
    vec![
        (
            "string-starts-with".into(),
            knows1().filter(starts_with("p", "fName", "A")).returns_count().build(),
        ),
        (
            "string-in-set".into(),
            knows1()
                .filter(in_set("p", "browserUsed", &["Chrome", "Firefox"]))
                .returns(&[("p", "id"), ("q", "id")])
                .build(),
        ),
        (
            "date-range-and-gender".into(),
            knows1()
                .filter(ge(col("p", "birthday"), lit(300_000_000)))
                .filter(eq(col("p", "gender"), lit("female")))
                .returns_count()
                .build(),
        ),
    ]
}

#[test]
fn powerlaw_pushdown_agrees() {
    let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: 3000,
        avg_degree: 5.0,
        exponent: 1.8,
        seed: 23,
    });
    assert_pushdown_equivalent(&raw, &powerlaw_queries(3000));
}

#[test]
fn social_pushdown_agrees() {
    let raw = gfcl_datagen::generate_social(SocialParams::scale(120));
    assert_pushdown_equivalent(&raw, &social_queries());
}

#[test]
fn pushed_plans_actually_push() {
    // Guard against the suite silently testing nothing: the headline
    // queries must produce plans with pushed predicates on the scan.
    let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: 500,
        avg_degree: 3.0,
        exponent: 1.8,
        seed: 5,
    });
    let graph = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
    for (name, q) in powerlaw_queries(500) {
        if name == "two-hop-far-end-filter" {
            continue; // start choice is the optimizer's
        }
        let p = plan_with(&q, graph.catalog(), &PlanOptions::default()).unwrap();
        match &p.steps[0] {
            PlanStep::ScanAll { pushed, .. } => {
                assert!(!pushed.is_empty(), "{name}: nothing was pushed")
            }
            s => panic!("{name}: expected a scan, got {s:?}"),
        }
    }
}

// ---- Randomized graphs and predicates --------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_powerlaw_pushdown_agrees(
        nodes in 40usize..220,
        avg_degree in 1.0f64..5.0,
        seed in 0u64..1000,
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
            nodes,
            avg_degree,
            exponent: 1.8,
            seed,
        });
        let n = nodes as i64;
        let lo = (n as f64 * lo_frac) as i64;
        let hi = (n as f64 * hi_frac) as i64;
        let khop = |hops: usize| {
            let mut b = PatternQuery::builder();
            for i in 0..=hops {
                b = b.node(&format!("v{i}"), "NODE");
            }
            for i in 0..hops {
                b = b.edge(
                    &format!("e{}", i + 1),
                    "LINK",
                    &format!("v{i}"),
                    &format!("v{}", i + 1),
                );
            }
            b
        };
        let queries = vec![
            (
                format!("rand-scan[{lo},{hi}]"),
                khop(0)
                    .filter(ge(col("v0", "id"), lit(lo.min(hi))))
                    .filter(le(col("v0", "id"), lit(lo.max(hi))))
                    .returns(&[("v0", "id")])
                    .build(),
            ),
            (
                format!("rand-one-hop[{lo}]"),
                khop(1).filter(lt(col("v0", "id"), lit(lo))).returns_count().build(),
            ),
        ];
        assert_pushdown_equivalent(&raw, &queries);
    }
}

// ---- A mutated snapshot -----------------------------------------------------

/// Persons in the mutated-snapshot arm: three zone blocks, the last one
/// partial, so touched and pristine blocks meet in one scan.
const SNAPSHOT_PERSONS: usize = 2_200;

/// A birthday past every generated one (the generator's dates end before
/// 1.6e9): only rows the delta wrote can match `birthday > FAR`.
const FAR: i64 = 3_000_000_000;

/// A first name no generated person has: the delta's string extension
/// holds it, the baseline dictionary does not.
const NEW_NAME: &str = "Zzyzx";

/// Commit to `Person`, the label every query below scans: an update that
/// moves a birthday in zone block 0 past the block's max, a first name only
/// the delta's string extension holds (block 1), a vertex delete (block 2)
/// and two inserts past the baseline's rows.
fn mutate_persons(store: &GraphStore) {
    let mut txn = store.begin_write();
    let off = |txn: &WriteTxn<'_>, id: i64| txn.lookup_pk("Person", id).unwrap().unwrap();
    let p5 = off(&txn, 5);
    txn.update_vertex("Person", p5, &[("birthday", Value::Date(FAR + 1))]).unwrap();
    let p1500 = off(&txn, 1_500);
    txn.update_vertex("Person", p1500, &[("fName", Value::String(NEW_NAME.into()))]).unwrap();
    let p2100 = off(&txn, 2_100);
    txn.delete_vertex("Person", p2100).unwrap();
    for (id, name, birthday) in [(10_001, NEW_NAME, FAR + 2), (10_002, "Zzyzxnew", 600_000_000)] {
        txn.insert_vertex(
            "Person",
            &[
                ("id", Value::Int64(id)),
                ("fName", Value::String(name.into())),
                ("gender", Value::String("female".into())),
                ("birthday", Value::Date(birthday)),
            ],
        )
        .unwrap();
    }
    txn.commit().unwrap();
}

/// Pushdown-relevant queries over the scanned `Person`, each with the ids
/// it must return when that is known, so the arm cannot pass vacuously.
fn snapshot_queries() -> Vec<(&'static str, PatternQuery, Option<Vec<i64>>)> {
    let person = || PatternQuery::builder().node("p", "Person");
    let ids = |q: QueryBuilder| q.returns(&[("p", "id")]).build();
    vec![
        (
            "birthday-past-every-zone-max",
            ids(person().filter(gt(col("p", "birthday"), lit(FAR)))),
            Some(vec![5, 10_001]),
        ),
        (
            "birthday-mid-range",
            ids(person()
                .filter(ge(col("p", "birthday"), lit(400_000_000)))
                .filter(lt(col("p", "birthday"), lit(700_000_000)))),
            None,
        ),
        (
            "fname-eq-extension",
            ids(person().filter(eq(col("p", "fName"), lit(NEW_NAME)))),
            Some(vec![1_500, 10_001]),
        ),
        (
            "fname-in-extension",
            ids(person().filter(in_set("p", "fName", &[NEW_NAME, "Zzyzxnew"]))),
            Some(vec![1_500, 10_001, 10_002]),
        ),
        (
            "fname-starts-with",
            ids(person().filter(starts_with("p", "fName", "Zzy"))),
            Some(vec![1_500, 10_001, 10_002]),
        ),
        ("id-tail-block-and-inserts", ids(person().filter(ge(col("p", "id"), lit(2_090)))), None),
        (
            "or-not-over-the-delete",
            ids(person().filter(or(vec![
                not(le(col("p", "birthday"), lit(FAR))),
                eq(col("p", "id"), lit(2_100)),
            ]))),
            Some(vec![5, 10_001]),
        ),
        (
            "one-hop-from-pushed-scan",
            person()
                .node("q", "Person")
                .edge("k", "knows", "p", "q")
                .filter(ge(col("p", "birthday"), lit(500_000_000)))
                .returns_count()
                .build(),
            None,
        ),
    ]
}

/// Over a snapshot whose delta touches the scanned label, the pushed plan
/// answers as the `PlanOptions::no_pushdown()` plan on GF-CL — at 1 and 4
/// workers, at morsels that align with zone blocks and that straddle them
/// — and both answer as GF-CV over the same snapshot.
#[test]
fn mutated_snapshot_pushdown_agrees() {
    let raw = gfcl_datagen::generate_social(SocialParams {
        knows_avg_degree: 4.0,
        comments_per_person: 1,
        posts_per_person: 1,
        likes_per_person: 1.0,
        ..SocialParams::scale(SNAPSHOT_PERSONS)
    });
    let store = GraphStore::in_memory(&raw, StorageConfig::default()).unwrap();
    mutate_persons(&store);
    let snapshot = store.snapshot();
    let catalog = snapshot.catalog().clone();
    let cv = GfCvEngine::with_snapshot(&snapshot);
    for (name, q, want) in snapshot_queries() {
        let pushed = plan_with(&q, &catalog, &PlanOptions::default()).unwrap();
        let plain = plan_with(&q, &catalog, &PlanOptions::no_pushdown()).unwrap();
        assert!(
            matches!(&pushed.steps[0], PlanStep::ScanAll { pushed, .. } if !pushed.is_empty()),
            "{name}: nothing was pushed"
        );
        let truth = cv.run_plan(&plain).unwrap();
        assert_eq!(cv.run_plan(&pushed).unwrap().canonical(), truth.canonical(), "{name}: GF-CV");
        if let (Some(ids), QueryOutput::Rows { rows, .. }) = (want, &truth) {
            let mut got: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, ids, "{name}: GF-CV's answer");
        }
        for threads in THREADS {
            for morsel in [1024usize, 700] {
                let opts = ExecOptions::with_threads(threads).morsel(morsel);
                let lbp = GfClEngine::with_snapshot_options(&snapshot, opts);
                let a = lbp.run_plan(&pushed).unwrap();
                let b = lbp.run_plan(&plain).unwrap();
                let at = format!("{name} at {threads} worker(s), morsel {morsel}");
                assert_eq!(a.canonical(), truth.canonical(), "{at}: pushed plan against GF-CV");
                assert_eq!(b.canonical(), truth.canonical(), "{at}: plain plan against GF-CV");
                if threads == 1 {
                    assert_eq!(a, b, "{at}: pushed and plain serial outputs differ");
                }
            }
        }
    }
}
