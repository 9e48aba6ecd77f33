//! Cooperative cancellation and budget enforcement: a query inside a
//! fault domain either completes with the full, correct result or fails
//! with a clean structured [`Error::Canceled`] — never partial output,
//! never a panic — and a trip never disturbs pinned snapshots or other
//! queries.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gfcl_common::{CancelReason, Error, Value};
use gfcl_core::query::{col, lit, lt, PatternQuery, SortDir};
use gfcl_core::{Engine, ExecOptions, GfClEngine};
use gfcl_datagen::PowerLawParams;
use gfcl_storage::{ColumnarGraph, GraphStore, RawGraph, StorageConfig};
use proptest::prelude::*;

/// Worker counts under test.
const THREADS: [usize; 2] = [1, 4];

fn khop(hops: usize) -> gfcl_core::query::QueryBuilder {
    let mut b = PatternQuery::builder();
    for i in 0..=hops {
        b = b.node(&format!("v{i}"), "NODE");
    }
    for i in 0..hops {
        b = b.edge(&format!("e{}", i + 1), "LINK", &format!("v{i}"), &format!("v{}", i + 1));
    }
    b
}

/// A graph big enough that the long query below runs for milliseconds —
/// room for a mid-flight cancel — shared across tests and proptest cases.
fn big_graph() -> Arc<ColumnarGraph> {
    static GRAPH: OnceLock<Arc<ColumnarGraph>> = OnceLock::new();
    Arc::clone(GRAPH.get_or_init(|| {
        let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
            nodes: 20_000,
            avg_degree: 6.0,
            exponent: 1.8,
            seed: 29,
        });
        Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap())
    }))
}

/// The long-running query: a two-hop count whose intermediate list is far
/// larger than the vertex set.
fn long_query() -> PatternQuery {
    khop(2).returns_count().build()
}

fn reference_count() -> u64 {
    static REF: OnceLock<u64> = OnceLock::new();
    *REF.get_or_init(|| {
        let engine = GfClEngine::with_options(big_graph(), ExecOptions::serial());
        engine.execute(&long_query()).unwrap().as_count().unwrap()
    })
}

#[test]
fn pre_canceled_handle_rejects_until_reset() {
    let engine = GfClEngine::with_options(big_graph(), ExecOptions::serial());
    let q = khop(0).returns_count().build();
    let handle = engine.cancel_handle().expect("GF-CL supports cancellation");

    handle.cancel(CancelReason::User);
    match engine.execute(&q) {
        Err(Error::Canceled { reason: CancelReason::User, .. }) => {}
        other => panic!("expected a user-canceled query, got {other:?}"),
    }
    // The trip sticks across queries until explicitly re-armed.
    assert!(engine.execute(&q).is_err());
    handle.reset();
    assert_eq!(engine.execute(&q).unwrap().as_count(), Some(20_000));
}

#[test]
fn time_limit_trips_with_timeout_reason() {
    for threads in THREADS {
        let opts = ExecOptions::with_threads(threads).time_limit_ms(1);
        let engine = GfClEngine::with_options(big_graph(), opts);
        match engine.execute(&long_query()) {
            Err(Error::Canceled { reason: CancelReason::Timeout, elapsed_ms, .. }) => {
                assert!(elapsed_ms >= 1, "elapsed {elapsed_ms}ms below the 1ms limit");
            }
            other => panic!("threads={threads}: expected a timeout, got {other:?}"),
        }
    }
}

#[test]
fn memory_limit_trips_with_memory_reason() {
    // Materializing 20k id rows costs far more than 4 KiB, so the row
    // sink's accounting must trip the token long before completion.
    let q = khop(0).returns(&[("v0", "id")]).build();
    for threads in THREADS {
        let opts = ExecOptions::with_threads(threads).mem_limit_bytes(4096);
        let engine = GfClEngine::with_options(big_graph(), opts);
        match engine.execute(&q) {
            Err(Error::Canceled { reason: CancelReason::Memory, peak_bytes, .. }) => {
                assert!(peak_bytes >= 4096, "peak {peak_bytes} below the tripped limit");
            }
            other => panic!("threads={threads}: expected a memory trip, got {other:?}"),
        }
    }
    // The same query inside a generous budget completes.
    let opts = ExecOptions::serial().mem_limit_bytes(64 * 1024 * 1024);
    let engine = GfClEngine::with_options(big_graph(), opts);
    assert_eq!(engine.execute(&q).unwrap().cardinality(), 20_000);
}

#[test]
fn grouped_and_topk_sinks_are_accounted() {
    // Budget enforcement must also see GroupTable / top-k / distinct
    // growth, not just plain row sinks.
    let grouped = khop(1)
        .group_by(&[("v0", "id")])
        .returns_agg(vec![gfcl_core::query::Agg::count_star()])
        .build();
    let engine = GfClEngine::with_options(big_graph(), ExecOptions::serial().mem_limit_bytes(4096));
    match engine.execute(&grouped) {
        Err(Error::Canceled { reason: CancelReason::Memory, .. }) => {}
        other => panic!("expected the group table to trip the budget, got {other:?}"),
    }

    // The top-k half: `ORDER BY ... LIMIT 10` holds ten rows per worker,
    // so it completes under a budget that the same ordering without the
    // LIMIT, which must keep every row, trips.
    let ordered = |limit: Option<usize>| {
        let b = khop(1).returns(&[("v0", "id"), ("v1", "id")]).order_by(1, SortDir::Desc);
        match limit {
            Some(k) => b.limit(k).build(),
            None => b.build(),
        }
    };
    let budget = 64 * 1024;
    let expected = GfClEngine::with_options(big_graph(), ExecOptions::serial())
        .execute(&ordered(Some(10)))
        .unwrap();
    assert_eq!(expected.cardinality(), 10);
    for threads in THREADS {
        let opts = ExecOptions::with_threads(threads).mem_limit_bytes(budget);
        match GfClEngine::with_options(big_graph(), opts).execute(&ordered(None)) {
            Err(Error::Canceled { reason: CancelReason::Memory, .. }) => {}
            other => panic!("threads={threads}: expected the full ordering to trip, got {other:?}"),
        }
        let top = GfClEngine::with_options(big_graph(), opts).execute(&ordered(Some(10)));
        assert_eq!(top.unwrap(), expected, "threads={threads}");
    }
}

#[test]
fn distinct_sets_are_charged_once() {
    // Comments' browsers per author gender: a handful of groups holding a
    // handful of short strings between them. The grouped sink folds one key
    // run per author, and every run re-finds the same browsers; the budget
    // must see what the table holds, not one charge per run.
    let raw = gfcl_datagen::generate_social(gfcl_datagen::SocialParams::scale(2_000));
    let g = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let q = PatternQuery::builder()
        .node("c", "Comment")
        .node("a", "Person")
        .edge("hc", "hasCreator", "c", "a")
        .group_by(&[("a", "gender")])
        .returns_agg(vec![gfcl_core::query::Agg::count_distinct("c", "browserUsed")])
        .build();
    let expected =
        GfClEngine::with_options(Arc::clone(&g), ExecOptions::serial()).execute(&q).unwrap();
    assert!(expected.cardinality() >= 2, "{expected:?}");
    for threads in THREADS {
        let opts = ExecOptions::with_threads(threads).mem_limit_bytes(16 * 1024);
        let got = GfClEngine::with_options(Arc::clone(&g), opts).execute(&q);
        assert_eq!(got.unwrap(), expected, "threads={threads}");
    }
}

#[test]
fn canceling_one_engine_does_not_disturb_another() {
    let victim = GfClEngine::with_options(big_graph(), ExecOptions::serial());
    let bystander = GfClEngine::with_options(big_graph(), ExecOptions::serial());
    victim.cancel_handle().unwrap().cancel(CancelReason::User);
    assert!(victim.execute(&long_query()).is_err());
    assert_eq!(bystander.execute(&long_query()).unwrap().as_count(), Some(reference_count()));
}

#[test]
fn cancellation_leaves_pinned_snapshots_intact() {
    // A mutable store with a pinned snapshot: cancel a query mid-design
    // on that snapshot, then verify the snapshot itself and the store's
    // write path are untouched.
    let raw = RawGraph::example();
    let store = GraphStore::in_memory(&raw, StorageConfig::default()).unwrap();
    let mut txn = store.begin_write();
    txn.insert_vertex(
        "PERSON",
        &[
            ("name", Value::String("zoe".into())),
            ("age", Value::Int64(30)),
            ("gender", Value::String("F".into())),
        ],
    )
    .unwrap();
    txn.commit().unwrap();

    let snapshot = store.snapshot();
    let epoch = snapshot.epoch();
    let engine = GfClEngine::with_snapshot_options(&snapshot, ExecOptions::serial());
    let q = PatternQuery::builder().node("a", "PERSON").returns_count().build();
    assert_eq!(engine.execute(&q).unwrap().as_count(), Some(5));

    let handle = engine.cancel_handle().unwrap();
    handle.cancel(CancelReason::User);
    assert!(matches!(engine.execute(&q), Err(Error::Canceled { .. })));

    // The pinned snapshot is unchanged and immediately usable again.
    assert_eq!(snapshot.epoch(), epoch);
    handle.reset();
    assert_eq!(engine.execute(&q).unwrap().as_count(), Some(5));
    // And the store still accepts writes afterwards.
    let mut txn = store.begin_write();
    txn.insert_vertex(
        "PERSON",
        &[
            ("name", Value::String("yan".into())),
            ("age", Value::Int64(41)),
            ("gender", Value::String("M".into())),
        ],
    )
    .unwrap();
    txn.commit().unwrap();
    assert_eq!(store.snapshot().epoch(), epoch + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Cancel at a random point during execution, at 1 and 4 workers: the
    /// outcome is either the complete correct count or a clean
    /// `Error::Canceled` — never a partial count, never a panic.
    #[test]
    fn random_point_cancellation_is_all_or_nothing(
        delay_us in 0u64..4_000,
        thread_pick in 0usize..THREADS.len(),
    ) {
        let threads = THREADS[thread_pick];
        let engine =
            GfClEngine::with_options(big_graph(), ExecOptions::with_threads(threads));
        let handle = engine.cancel_handle().unwrap();
        let canceler = {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                handle.cancel(CancelReason::User);
            })
        };
        let outcome = engine.execute(&long_query());
        canceler.join().unwrap();
        match outcome {
            Ok(out) => prop_assert_eq!(
                out.as_count(),
                Some(reference_count()),
                "a query that outran the cancel must still be complete and correct"
            ),
            Err(Error::Canceled { reason: CancelReason::User, .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error under cancellation: {e:?}"),
        }
    }
}

#[test]
fn filtered_long_query_is_cancelable_too() {
    // A pushed-filter scan exercises the pruned-morsel checkpoint path.
    let q = khop(2).filter(lt(col("v0", "id"), lit(10_000))).returns_count().build();
    let engine = GfClEngine::with_options(big_graph(), ExecOptions::with_threads(4));
    let handle = engine.cancel_handle().unwrap();
    let reference = engine.execute(&q).unwrap();
    handle.cancel(CancelReason::User);
    assert!(matches!(engine.execute(&q), Err(Error::Canceled { .. })));
    handle.reset();
    assert_eq!(engine.execute(&q).unwrap(), reference);
}
