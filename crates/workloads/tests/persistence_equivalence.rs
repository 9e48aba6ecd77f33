//! Save/reopen equivalence: a graph persisted with [`ColumnarGraph::save`]
//! and reopened cold through a buffer pool *smaller than the graph* must
//! answer every query byte-identically to the in-memory graph it was saved
//! from — across all engines that read columnar storage, at 1 and 4
//! workers, with every read faulting pages on demand.
//!
//! Also the crash-safety contract: malformed files (bad magic, truncated,
//! corrupted metadata) fail `open` with a clean [`gfcl_common::Error`], never
//! a panic.

use std::path::PathBuf;
use std::sync::Arc;

use gfcl_baselines::{GfCvEngine, RelEngine};
use gfcl_core::query::{col, eq, ge, lit, lt, starts_with, Agg, PatternQuery};
use gfcl_core::{Config, Engine, ExecOptions, GfClEngine};
use gfcl_datagen::{PowerLawParams, SocialParams};
use gfcl_storage::{BufferPool, ColumnarGraph, PoolStats, RawGraph, StorageConfig};
use gfcl_workloads::{ga_queries, khop, ldbc, KhopMode, LdbcParams};
use proptest::prelude::*;

/// Worker counts under test.
const THREADS: [usize; 2] = [1, 4];

/// A pool this small forces eviction on any graph beyond a few pages.
const TINY_POOL_PAGES: usize = 2;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gfcl_persist_{}_{name}.gfcl", std::process::id()))
}

/// Engines over one columnar graph (the row engine has no on-disk format,
/// so persistence equivalence is a columnar-engines property).
fn engines(g: &Arc<ColumnarGraph>, opts: ExecOptions) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(GfClEngine::with_options(Arc::clone(g), opts)),
        Box::new(GfCvEngine::new(Arc::clone(g))),
        Box::new(RelEngine::new(Arc::clone(g))),
    ]
}

/// Build from `raw`, save, reopen with a cold 2-page pool, and assert every
/// query produces byte-identical output on the reopened graph, on every
/// engine, at every worker count.
fn assert_persistence_equivalent(raw: &RawGraph, name: &str, queries: &[(String, PatternQuery)]) {
    let built = Arc::new(ColumnarGraph::build(raw, StorageConfig::default()).unwrap());
    let path = tmp(name);
    built.save(&path).unwrap();
    // CI's persistence job sets GFCL_BUFFER_MB to run this at a larger
    // (still starved) pool.
    let env = Config::from_env().expect("GFCL_* configuration");
    let pool_pages = env.buffer_pool_pages.unwrap_or(TINY_POOL_PAGES);
    let config = StorageConfig { buffer_pool_pages: pool_pages, ..StorageConfig::default() };
    let reopened = Arc::new(ColumnarGraph::open(&path, config).unwrap());
    std::fs::remove_file(&path).unwrap();

    let pool = reopened.buffer_pool().expect("reopened graph has a pool");
    assert_eq!(pool.capacity(), pool_pages);
    assert!(
        reopened.memory_breakdown().pageable > 0,
        "{name}: reopened graph should serve value arrays from disk"
    );

    for threads in THREADS {
        let opts = ExecOptions::with_threads(threads);
        let mem_engines = engines(&built, opts);
        let disk_engines = engines(&reopened, opts);
        for (qname, q) in queries {
            for (m, d) in mem_engines.iter().zip(&disk_engines) {
                let a = m
                    .execute(q)
                    .unwrap_or_else(|e| panic!("{qname} failed in-memory on {}: {e}", m.name()));
                let b = d
                    .execute(q)
                    .unwrap_or_else(|e| panic!("{qname} failed reopened on {}: {e}", d.name()));
                assert_eq!(
                    a.canonical(),
                    b.canonical(),
                    "{qname}: reopening changed {} output at {threads} worker(s)",
                    m.name()
                );
            }
        }
    }
    // Serial LBP: exactly equal, not just canonically.
    let mem_serial = GfClEngine::with_options(Arc::clone(&built), ExecOptions::serial());
    let disk_serial = GfClEngine::with_options(Arc::clone(&reopened), ExecOptions::serial());
    for (qname, q) in queries {
        let a = mem_serial.execute(q).unwrap();
        let b = disk_serial.execute(q).unwrap();
        assert_eq!(a, b, "{qname}: serial outputs diverge after reopen");
    }
    // The equivalence must have exercised the faulting path, with eviction
    // keeping memory bounded. Pinned pages can push the pool past its
    // nominal capacity transiently (it over-allocates rather than
    // deadlocks), so the bound allows slack for concurrently pinned pages.
    let stats = pool.stats();
    assert!(stats.faults > 0, "{name}: no page was ever faulted");
    assert!(
        pool.occupancy() <= pool.capacity() + 64,
        "{name}: pool occupancy {} far exceeds capacity {}",
        pool.occupancy(),
        pool.capacity()
    );
    // More faults than the pool can hold many times over implies re-faults,
    // which imply evictions (capacity-relative so a GFCL_BUFFER_MB override
    // with a pool big enough to hold the whole graph doesn't trip it).
    if stats.faults > 16 * pool.capacity() as u64 {
        assert!(stats.evictions > 0, "{name}: pool never evicted under pressure");
    }
}

fn powerlaw_queries(n: i64) -> Vec<(String, PatternQuery)> {
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
        ("scan-all-rows".into(), khop(0).returns(&[("v0", "id")]).build()),
        (
            "scan-pushed-range".into(),
            khop(0).filter(lt(col("v0", "id"), lit(n / 7))).returns(&[("v0", "id")]).build(),
        ),
        (
            "one-hop-edge-prop".into(),
            khop(1)
                .filter(ge(col("v0", "id"), lit(n - n / 8)))
                .returns(&[("v0", "id"), ("e1", "ts")])
                .build(),
        ),
        ("two-hop-count".into(), khop(2).returns_count().build()),
        (
            "grouped".into(),
            khop(1)
                .filter(lt(col("v0", "id"), lit(n / 4)))
                .group_by(&[("v0", "id")])
                .returns_agg(vec![Agg::count_star()])
                .build(),
        ),
    ]
}

fn social_queries() -> Vec<(String, PatternQuery)> {
    let knows1 = || {
        PatternQuery::builder().node("p", "Person").node("q", "Person").edge("k", "knows", "p", "q")
    };
    vec![
        (
            "string-dictionary".into(),
            knows1().filter(starts_with("p", "fName", "A")).returns_count().build(),
        ),
        (
            "date-and-gender".into(),
            knows1()
                .filter(ge(col("p", "birthday"), lit(300_000_000)))
                .filter(eq(col("p", "gender"), lit("female")))
                .returns(&[("p", "id"), ("q", "id")])
                .build(),
        ),
    ]
}

#[test]
fn powerlaw_survives_reopen_cold() {
    let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: 3000,
        avg_degree: 5.0,
        exponent: 1.8,
        seed: 23,
    });
    assert_persistence_equivalent(&raw, "powerlaw", &powerlaw_queries(3000));
}

#[test]
fn social_survives_reopen_cold() {
    let raw = gfcl_datagen::generate_social(SocialParams::scale(120));
    assert_persistence_equivalent(&raw, "social", &social_queries());
}

#[test]
fn figure1_example_survives_reopen() {
    // Small enough that everything fits in the pool — the warm path.
    let raw = RawGraph::example();
    let q = PatternQuery::builder()
        .node("p", "PERSON")
        .node("o", "ORG")
        .edge("w", "WORKAT", "p", "o")
        .returns(&[("p", "name"), ("o", "name"), ("w", "doj")])
        .build();
    assert_persistence_equivalent(&raw, "example", &[("workat".into(), q)]);
}

/// The pin budgets' corpus: the LDBC + GA + k-hop queries (38) over the
/// scale-50 social graph.
fn pin_corpus() -> (RawGraph, Vec<(String, PatternQuery)>) {
    let persons = 50;
    let raw = gfcl_datagen::generate_social(SocialParams::scale(persons));
    let p = LdbcParams::for_scale(persons);
    let mut queries = ldbc::all_queries(&p);
    queries.extend(ga_queries(&p));
    for hops in 1..=2 {
        for (name, mode) in [
            ("count", KhopMode::CountStar),
            ("filter", KhopMode::LastEdgeGt(1_400_000_000)),
            ("chain", KhopMode::Chain(1_350_000_000)),
        ] {
            for bwd in [false, true] {
                let q = khop("Person", "knows", "date", hops, mode, bwd);
                queries.push((format!("khop-{hops}-{name}-bwd={bwd}"), q));
            }
        }
    }
    (raw, queries)
}

/// `raw` built in memory, and the same graph saved and reopened under a
/// pool larger than its file, so nothing is ever evicted and a pin count
/// depends on the reads alone.
fn built_and_reopened(raw: &RawGraph, name: &str) -> (Arc<ColumnarGraph>, Arc<ColumnarGraph>) {
    let built = Arc::new(ColumnarGraph::build(raw, StorageConfig::default()).unwrap());
    let path = tmp(name);
    built.save(&path).unwrap();
    let file_pages = std::fs::metadata(&path).unwrap().len() / gfcl_columnar::PAGE_SIZE as u64;
    let config =
        StorageConfig { buffer_pool_pages: 2 * file_pages as usize, ..StorageConfig::default() };
    let reopened = Arc::new(ColumnarGraph::open(&path, config).unwrap());
    std::fs::remove_file(&path).unwrap();
    (built, reopened)
}

/// Pool pins (`hits + faults`) since `before`.
fn pins_since(pool: &BufferPool, before: PoolStats) -> u64 {
    let after = pool.stats();
    (after.hits + after.faults) - (before.hits + before.faults)
}

/// Ceiling on buffer-pool pins (`hits + faults`) for one pass of the
/// [`pin_corpus`] through GF-CL.
///
/// A pin is a page cursor missing its slot, so the count is a function of
/// the graph and the plans alone — not of the pool size, the machine or
/// the clock — and repeats exactly. Every label of this graph fits one
/// scan morsel and every value array one or two pages, so a query pins a
/// page at most once per cursor that walks it: the corpus measures 208
/// pins at 1 and at 4 workers, five or six per query. Reading through the
/// pool per *value*, as the executor did before block reads, costs
/// 779 755 pins on the same corpus. The ceiling is the measured 208 plus
/// 10 %: room for a small plan change, none for a per-value read.
const CORPUS_PIN_CEILING: u64 = 229;

/// The pin budget: results over the reopened graph are identical to the
/// resident build's, and the pool is off the per-value path.
#[test]
fn corpus_stays_within_its_pin_budget() {
    let (raw, queries) = pin_corpus();
    let (built, reopened) = built_and_reopened(&raw, "pin_budget");
    let pool = reopened.buffer_pool().expect("reopened graph has a pool");

    for threads in THREADS {
        let opts = ExecOptions::with_threads(threads);
        let mem = GfClEngine::with_options(Arc::clone(&built), opts);
        let disk = GfClEngine::with_options(Arc::clone(&reopened), opts);
        let before = pool.stats();
        for (qname, q) in &queries {
            let a = mem.execute(q).unwrap_or_else(|e| panic!("{qname} failed in-memory: {e}"));
            let b = disk.execute(q).unwrap_or_else(|e| panic!("{qname} failed reopened: {e}"));
            assert_eq!(a.canonical(), b.canonical(), "{qname}: reopening changed the output");
        }
        let pins = pins_since(pool, before);
        println!("{} queries: {pins} pool pins at {threads} worker(s)", queries.len());
        assert!(pins > 0, "the corpus never read through the pool");
        assert!(
            pins <= CORPUS_PIN_CEILING,
            "{} queries made {pins} pool pins at {threads} worker(s); the budget is \
             {CORPUS_PIN_CEILING} — is something reading through the pool per value again?",
            queries.len()
        );
    }
}

/// Ceilings on the pins one pass of the [`pin_corpus`] makes through each
/// reference engine: GF-CV (Volcano over columnar storage) and REL (hash
/// joins over it). Each Volcano operator and each REL step reads through
/// its own page cursors, so the counts are, like GF-CL's, a function of
/// the graph and the plans alone: GF-CV measures 191 pins and REL 218.
/// Reading a value at a time through the pool, as both did before they
/// owned cursors, the same corpus cost 763 817 and 392 656 pins. Each
/// ceiling is the measured count plus 10 %.
const BASELINE_PIN_CEILINGS: [(&str, u64); 2] = [("GF-CV", 210), ("REL", 240)];

/// The reference engines' pin budget: over the reopened graph GF-CV and REL
/// answer the corpus exactly as GF-CL answers it over the resident build,
/// and neither reads through the pool per value.
#[test]
fn baselines_stay_within_their_pin_budget() {
    let (raw, queries) = pin_corpus();
    let (built, reopened) = built_and_reopened(&raw, "baseline_pin_budget");
    let pool = reopened.buffer_pool().expect("reopened graph has a pool");
    let reference = GfClEngine::with_options(built, ExecOptions::serial());
    let want: Vec<String> = queries
        .iter()
        .map(|(qname, q)| {
            let out = reference.execute(q).unwrap_or_else(|e| panic!("{qname} failed: {e}"));
            out.canonical()
        })
        .collect();

    let engines: [Box<dyn Engine>; 2] = [
        Box::new(GfCvEngine::new(Arc::clone(&reopened))),
        Box::new(RelEngine::new(Arc::clone(&reopened))),
    ];
    for (engine, (name, ceiling)) in engines.iter().zip(BASELINE_PIN_CEILINGS) {
        assert_eq!(engine.name(), name);
        let before = pool.stats();
        for ((qname, q), want) in queries.iter().zip(&want) {
            let got = engine.execute(q).unwrap_or_else(|e| panic!("{qname} failed on {name}: {e}"));
            assert_eq!(&got.canonical(), want, "{qname}: {name} disagrees with GF-CL");
        }
        let pins = pins_since(pool, before);
        eprintln!("{name}: {} queries, {pins} pool pins (ceiling {ceiling})", queries.len());
        assert!(pins > 0, "{name} never read through the pool");
        assert!(
            pins <= ceiling,
            "{name} made {pins} pool pins over {} queries; the budget is {ceiling} — is it \
             reading through the pool per value again?",
            queries.len()
        );
    }
}

#[test]
fn open_errors_are_clean_not_panics() {
    let raw = RawGraph::example();
    let g = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
    let path = tmp("corrupt");
    g.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Bad magic.
    let mut bad = bytes.clone();
    bad[..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &bad).unwrap();
    assert!(ColumnarGraph::open(&path, StorageConfig::default()).is_err());

    // Truncations at several depths (header, mid-pages, tail).
    for keep in [0usize, 40, 70_000, bytes.len().saturating_sub(3)] {
        std::fs::write(&path, &bytes[..keep.min(bytes.len())]).unwrap();
        assert!(
            ColumnarGraph::open(&path, StorageConfig::default()).is_err(),
            "truncation to {keep} bytes must fail cleanly"
        );
    }

    // Corrupted metadata tail.
    let mut bad = bytes.clone();
    let n = bad.len();
    bad[n - 1] ^= 0x55;
    std::fs::write(&path, &bad).unwrap();
    assert!(ColumnarGraph::open(&path, StorageConfig::default()).is_err());

    // Nonexistent path.
    std::fs::remove_file(&path).unwrap();
    assert!(ColumnarGraph::open(&path, StorageConfig::default()).is_err());
}

// ---- Randomized graphs ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_powerlaw_survives_reopen(
        nodes in 40usize..220,
        avg_degree in 1.0f64..5.0,
        seed in 0u64..1000,
        cut in 0.0f64..1.0,
    ) {
        let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
            nodes,
            avg_degree,
            exponent: 1.8,
            seed,
        });
        let n = nodes as i64;
        let k = (n as f64 * cut) as i64;
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
                format!("rand-scan[{k}]"),
                khop(0).filter(ge(col("v0", "id"), lit(k))).returns(&[("v0", "id")]).build(),
            ),
            (
                format!("rand-one-hop[{k}]"),
                khop(1).filter(lt(col("v0", "id"), lit(k))).returns_count().build(),
            ),
        ];
        assert_persistence_equivalent(&raw, &format!("rand_{nodes}_{seed}"), &queries);
    }
}
