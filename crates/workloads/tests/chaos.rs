//! The fault-injection chaos tier: every injected storage fault must
//! yield either a *correct* (retried) result or a *clean per-query error*
//! — never a panic, never a wrong answer.
//!
//! A deterministic graph is saved and reopened through a tiny buffer pool
//! wrapped in [`FailingStore`], so every query faults pages constantly
//! and every fault flavor (transient read errors, permanent read errors,
//! one-shot checksum bit-flips, sticky bit-flips) hits the pool's
//! retry-then-propagate path. The seed comes from `GFCL_FAULT_SEED`
//! (through `Config::from_env`) when the CI chaos job sets it and is
//! printed in every assertion, so a failing run reproduces with
//! `GFCL_FAULT_SEED=<seed> cargo test --test chaos`.
//!
//! WAL append (fsync-path) failures are injected separately through
//! [`GraphStore::inject_wal_append_failure`] against the crashkit
//! fixture: a failed commit must surface as a clean error, leave the
//! published snapshot untouched, and not poison later commits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use gfcl_baselines::{GfCvEngine, GfRvEngine, RelEngine};
use gfcl_common::Error;
use gfcl_core::query::{col, ge, lit, lt, Agg, PatternQuery};
use gfcl_core::{Config, Engine, ExecOptions, GfClEngine};
use gfcl_datagen::PowerLawParams;
use gfcl_storage::{ColumnarGraph, FaultConfig, GraphStore, RawGraph, RowGraph, StorageConfig};
use gfcl_workloads::crashkit;

/// Worker counts under test (the chaos CI job also re-runs the whole
/// binary with `GFCL_THREADS=4`, which the engines built from [`env`]
/// pick up on top of this explicit matrix).
const THREADS: [usize; 2] = [1, 4];

/// A pool this small evicts constantly, so faults fire on re-reads too.
const TINY_POOL_PAGES: usize = 2;

/// Vertices of the chaos graph. Every engine reads through page cursors
/// that keep the pages they walk pinned, so a query faults a page about
/// once per cursor pass, not once per value: the graph is large enough
/// (each column spans several 64 KiB pages) that each fault matrix still
/// reads about a hundred pages from the faulty file, enough for each
/// configured fault rate to fire.
const NODES: usize = 50_000;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gfcl_chaos_{}_{name}.gfcl", std::process::id()))
}

/// The process configuration: `GFCL_FAULT_SEED` and `GFCL_THREADS`.
fn env() -> Config {
    Config::from_env().unwrap_or_else(|e| panic!("GFCL_* configuration: {e}"))
}

/// The run's base seed: `GFCL_FAULT_SEED` when the chaos job sets it,
/// a fixed default otherwise. Printed in every failure message.
fn base_seed() -> u64 {
    env().faults.map_or(0xC0FFEE, |f| f.seed)
}

/// GF-CL at the process configuration's worker count.
fn gfcl(graph: Arc<ColumnarGraph>) -> GfClEngine {
    GfClEngine::with_options(graph, env().exec)
}

fn queries(n: i64) -> Vec<(String, PatternQuery)> {
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
            "scan".into(),
            khop(0).filter(ge(col("v0", "id"), lit(n / 2))).returns(&[("v0", "id")]).build(),
        ),
        (
            "one-hop-props".into(),
            khop(1)
                .filter(lt(col("v0", "id"), lit(n / 6)))
                .returns(&[("v0", "id"), ("e1", "ts")])
                .build(),
        ),
        ("two-hop-count".into(), khop(2).returns_count().build()),
        (
            "grouped".into(),
            khop(1)
                .filter(lt(col("v0", "id"), lit(n / 5)))
                .group_by(&[("v0", "id")])
                .returns_agg(vec![Agg::count_star()])
                .build(),
        ),
    ]
}

fn build_raw() -> RawGraph {
    gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: NODES,
        avg_degree: 3.0,
        exponent: 1.8,
        seed: 17,
    })
}

/// Engines over a (possibly fault-injected) columnar graph. GF-RV is
/// fully resident so it cannot observe page faults; it rides along so the
/// contract is checked uniformly across all four engines.
fn engines(
    g: &Arc<ColumnarGraph>,
    rows: &Arc<RowGraph>,
    opts: ExecOptions,
) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(GfClEngine::with_options(Arc::clone(g), opts)),
        Box::new(GfCvEngine::new(Arc::clone(g))),
        Box::new(RelEngine::new(Arc::clone(g))),
        Box::new(GfRvEngine::new(Arc::clone(rows))),
    ]
}

/// One query execution under chaos (`engine` was built for `threads`
/// workers). Returns `Ok(canonical)` or the clean error; a panic or a
/// wrong answer fails the test with the seed.
fn run_checked(
    engine: &dyn Engine,
    qname: &str,
    q: &PatternQuery,
    threads: usize,
    reference: &str,
    cfg: &FaultConfig,
) -> std::result::Result<(), Error> {
    let outcome = catch_unwind(AssertUnwindSafe(|| engine.execute(q)));
    let ctx = format!(
        "seed={} cfg={cfg:?} query={qname} engine={} threads={threads}",
        cfg.seed,
        engine.name()
    );
    match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!("{ctx}: PANICKED under fault injection: {msg}");
        }
        Ok(Ok(out)) => {
            assert_eq!(
                out.canonical(),
                reference,
                "{ctx}: WRONG ANSWER under fault injection (an injected fault must \
                 surface as an error, never as silently different output)"
            );
            Ok(())
        }
        Ok(Err(e)) => {
            assert!(
                matches!(e, Error::Storage(_) | Error::Canceled { .. }),
                "{ctx}: fault surfaced as an unexpected error kind: {e:?}"
            );
            Err(e)
        }
    }
}

/// Run the full engine × thread × query matrix against a graph reopened
/// with `cfg`. Returns `(ok_runs, err_runs)`.
fn chaos_matrix(cfg: FaultConfig) -> (usize, usize) {
    let raw = build_raw();
    let built = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let rows = Arc::new(RowGraph::build(&raw).unwrap());
    let path = tmp(&format!("matrix_{}_{}", cfg.seed, cfg.transient_ppm));
    built.save(&path).unwrap();
    let config = StorageConfig { buffer_pool_pages: TINY_POOL_PAGES, ..StorageConfig::default() };
    let faulty = Arc::new(ColumnarGraph::open_with_faults(&path, config, Some(cfg)).unwrap());
    std::fs::remove_file(&path).ok();

    // Reference answers from the clean in-memory build.
    let qs = queries(NODES as i64);
    let clean = engines(&built, &rows, ExecOptions::serial());
    let refs: Vec<String> =
        qs.iter().map(|(_, q)| clean[0].execute(q).unwrap().canonical()).collect();

    let under_test =
        THREADS.map(|threads| engines(&faulty, &rows, ExecOptions::with_threads(threads)));
    let (mut ok, mut err) = (0, 0);
    for (qi, (qname, q)) in qs.iter().enumerate() {
        for e in 0..under_test[0].len() {
            for (threads, engines) in THREADS.into_iter().zip(&under_test) {
                match run_checked(engines[e].as_ref(), qname, q, threads, &refs[qi], &cfg) {
                    Ok(()) => ok += 1,
                    Err(_) => err += 1,
                }
            }
        }
    }
    // GF-RV never touches the pool, so its runs must all have succeeded;
    // implied by run_checked (resident execution can't see a fault), but
    // the matrix as a whole must therefore always contain successes.
    assert!(ok > 0, "seed={}: even the resident engine produced no result", cfg.seed);
    (ok, err)
}

#[test]
fn transient_faults_always_heal_within_the_retry_budget() {
    // Transient errors force at most 2 consecutive failures and the pool
    // retries 3 times, so even an extreme rate must never surface: every
    // query completes with the correct answer.
    let cfg = FaultConfig { seed: base_seed(), transient_ppm: 200_000, ..FaultConfig::disabled() };
    let (ok, err) = chaos_matrix(cfg);
    assert_eq!(err, 0, "seed={}: a transient-only fault stream surfaced an error", cfg.seed);
    assert!(ok > 0);
}

#[test]
fn permanent_faults_fail_queries_cleanly() {
    // 12% of page reads poison the page forever: with a 2-page pool over
    // the chaos graph, paged queries trip. The contract (checked per
    // run): correct result or clean Error::Storage.
    let cfg =
        FaultConfig { seed: base_seed() ^ 1, permanent_ppm: 120_000, ..FaultConfig::disabled() };
    let (_ok, err) = chaos_matrix(cfg);
    assert!(err > 0, "seed={}: permanent faults at 12% never surfaced — injector dead?", cfg.seed);
}

#[test]
fn an_unreadable_file_is_a_clean_storage_error() {
    // Every page read fails, forever: no query over the paged graph can
    // succeed, and each must end in a clean `Error::Storage` carrying the
    // I/O fault — not a panic, not a generic cancellation, not a result
    // computed from placeholder bytes. Every failed pin is served the one
    // process-wide zero page (`gfcl_columnar` counts the hand-outs in its
    // test store and checks they share an allocation), and a cursor that
    // took the placeholder keeps it until its morsel ends, so a dead page
    // costs neither memory nor a retry per value.
    let cfg =
        FaultConfig { seed: base_seed() ^ 6, permanent_ppm: 1_000_000, ..FaultConfig::disabled() };
    let built = Arc::new(ColumnarGraph::build(&build_raw(), StorageConfig::default()).unwrap());
    let path = tmp("dead");
    built.save(&path).unwrap();
    let config = StorageConfig { buffer_pool_pages: TINY_POOL_PAGES, ..StorageConfig::default() };
    let dead = Arc::new(ColumnarGraph::open_with_faults(&path, config, Some(cfg)).unwrap());
    std::fs::remove_file(&path).ok();

    for threads in THREADS {
        let engine =
            GfClEngine::with_options(Arc::clone(&dead), ExecOptions::with_threads(threads));
        for (qname, q) in &queries(NODES as i64) {
            let err = run_checked(&engine, qname, q, threads, "<no query can succeed>", &cfg)
                .expect_err("every page is unreadable");
            assert!(matches!(err, Error::Storage(_)), "seed={}: {qname}: {err:?}", cfg.seed);
        }
    }
    let pool = dead.buffer_pool().unwrap();
    assert_eq!(pool.occupancy(), 0, "a failed page is never cached");
    assert_eq!(pool.stats().hits, 0, "nor served");
}

#[test]
fn one_shot_bit_flips_are_detected_or_healed() {
    // A flipped bit below the checksum is always *detected*; the retry
    // serves clean bytes. Two independent flip rolls within one page's
    // retry window can still exhaust the budget, which must then surface
    // as a clean storage error, so both outcomes are legal here.
    let cfg = FaultConfig { seed: base_seed() ^ 2, flip_ppm: 150_000, ..FaultConfig::disabled() };
    let (ok, _err) = chaos_matrix(cfg);
    assert!(ok > 0, "seed={}: no query survived one-shot flips", cfg.seed);
}

#[test]
fn sticky_bit_flips_surface_as_storage_errors() {
    // A sticky flip re-corrupts the same bit on every read — retries
    // cannot heal it, so queries touching the page must error cleanly.
    let cfg =
        FaultConfig { seed: base_seed() ^ 3, sticky_flip_ppm: 60_000, ..FaultConfig::disabled() };
    let (_ok, err) = chaos_matrix(cfg);
    assert!(err > 0, "seed={}: sticky corruption at 6% never surfaced", cfg.seed);
}

#[test]
fn mixed_fault_storm_never_panics_or_lies() {
    let cfg = FaultConfig {
        seed: base_seed() ^ 4,
        transient_ppm: 100_000,
        permanent_ppm: 20_000,
        flip_ppm: 50_000,
        sticky_flip_ppm: 20_000,
    };
    let (ok, err) = chaos_matrix(cfg);
    // The storm is heavy enough that both outcomes appear.
    assert!(ok > 0, "seed={}: nothing survived the mixed storm", cfg.seed);
    assert!(err > 0, "seed={}: the mixed storm injected nothing", cfg.seed);
}

#[test]
fn faulty_graph_coexists_with_healthy_graph_in_one_process() {
    // Fault containment across queries: a query that dies on a poisoned
    // page must not take down queries on a healthy pool in the same
    // process — the exact property the ROADMAP's query service needs.
    let raw = build_raw();
    let built = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let path = tmp("coexist");
    built.save(&path).unwrap();
    let config = StorageConfig { buffer_pool_pages: TINY_POOL_PAGES, ..StorageConfig::default() };
    let cfg =
        FaultConfig { seed: base_seed() ^ 5, permanent_ppm: 500_000, ..FaultConfig::disabled() };
    let faulty = Arc::new(ColumnarGraph::open_with_faults(&path, config, Some(cfg)).unwrap());
    let healthy = Arc::new(ColumnarGraph::open(&path, config).unwrap());
    std::fs::remove_file(&path).ok();

    let (qname, q) = &queries(NODES as i64)[1];
    let reference = gfcl(Arc::clone(&built)).execute(q).unwrap().canonical();

    // Half of all reads fail permanently: this query errors quickly.
    let sick = gfcl(faulty);
    let seen_err = (0..4).any(|_| sick.execute(q).is_err());
    assert!(seen_err, "seed={}: 50% permanent faults never tripped {qname}", cfg.seed);

    // The healthy pool in the same process is completely unaffected.
    let well = gfcl(healthy);
    for _ in 0..2 {
        assert_eq!(well.execute(q).unwrap().canonical(), reference);
    }
}

#[test]
fn wal_append_failure_is_a_clean_error_and_does_not_poison_the_store() {
    let dir = std::env::temp_dir().join(format!("gfcl_chaos_wal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = GraphStore::create(&dir, &crashkit::base_raw(), StorageConfig::default()).unwrap();

    // A durable commit establishes the baseline epoch.
    crashkit::apply_commit(&store, 0).unwrap();
    let epoch_before = store.snapshot().epoch();
    let ops_before = store.pending_mutations();

    // The next WAL append fails mid-record (the fsync path's torn-write
    // shape): the commit must error cleanly and install nothing.
    store.inject_wal_append_failure(10);
    let err = crashkit::apply_commit(&store, 1)
        .expect_err("a commit whose WAL append fails must not report success");
    assert!(matches!(err, Error::Storage(_)), "unexpected error kind: {err:?}");
    let snap = store.snapshot();
    assert_eq!(snap.epoch(), epoch_before, "failed commit published a new epoch");
    assert_eq!(store.pending_mutations(), ops_before, "failed commit installed its delta");
    assert!(
        snap.view().lookup_pk(0, crashkit::pk_of(1)).is_none(),
        "failed commit's vertex is visible"
    );

    // The failed record was rolled back off the log, so the store is not
    // poisoned: the same batch commits durably on retry.
    crashkit::apply_commit(&store, 1).expect("retry after a rolled-back WAL failure");
    assert!(store.snapshot().view().lookup_pk(0, crashkit::pk_of(1)).is_some());
    drop(store);

    // And recovery replays exactly the durable commits.
    let reopened = GraphStore::open(&dir, StorageConfig::default()).unwrap();
    let view = reopened.snapshot();
    let view = view.view();
    assert!(view.lookup_pk(0, crashkit::pk_of(0)).is_some());
    assert!(view.lookup_pk(0, crashkit::pk_of(1)).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_config_round_trips_through_open() {
    // A disabled injector through the explicit-config seam this suite
    // uses behaves exactly like no injector: no faults, identical answers.
    let raw = RawGraph::example();
    let built = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let path = tmp("roundtrip");
    built.save(&path).unwrap();
    let reopened = Arc::new(
        ColumnarGraph::open_with_faults(
            &path,
            StorageConfig::default(),
            Some(FaultConfig::disabled()),
        )
        .unwrap(),
    );
    std::fs::remove_file(&path).ok();
    let q = PatternQuery::builder().node("a", "PERSON").returns_count().build();
    let a = gfcl(built).execute(&q).unwrap();
    let b = gfcl(reopened).execute(&q).unwrap();
    assert_eq!(a, b);
}
