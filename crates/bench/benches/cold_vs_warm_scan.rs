//! Cold vs warm buffer pool vs all-resident on a selective pushed scan.
//!
//! Not an experiment from the paper — it measures the on-disk format and
//! buffer pool: the same zone-map-pruned selective scan runs (a) on the
//! all-resident built graph, (b) on a freshly reopened graph with an empty
//! pool (every surviving page faults from disk), and (c) on the reopened
//! graph once the pool is warm (every pin is a hit). The gap between (a)
//! and (c) is the pin overhead of the paged arm; the gap between (c) and
//! (b) is the fault cost zone-map pruning saves on pages that are never
//! read.
//!
//! Asserted invariant (all modes, including quick): the measured zone-map
//! page-skip rate — pages pruned without faulting over pages touched at
//! all — is at least the CPU-side block-skip rate the clustered layout
//! implies, i.e. pruning skips I/O at least as aggressively as it skips
//! block evaluations.

use std::sync::Arc;
use std::time::Instant;

use gfcl_bench::{banner, expect_count, fmt_factor, fmt_ms, gfcl, record, time_query, TextTable};
use gfcl_core::query::{col, ge, lit, PatternQuery};
use gfcl_core::Engine;
use gfcl_datagen::PowerLawParams;
use gfcl_storage::{ColumnarGraph, StorageConfig};

/// `MATCH (v:NODE) WHERE v.id >= lo RETURN COUNT(*)` — on the clustered
/// id column, zone maps prune every block wholly below `lo`, and a COUNT
/// over the pushed scan never reads a property value, so `AllTrue` blocks
/// cost no I/O either: only the boundary blocks fault.
fn scan_ge(lo: i64) -> PatternQuery {
    PatternQuery::builder()
        .node("v", "NODE")
        .filter(ge(col("v", "id"), lit(lo)))
        .returns_count()
        .build()
}

fn main() {
    banner(
        "Cold vs warm buffer pool on a selective pushed scan",
        "on-disk paged format: zone-map pruning as I/O skipping",
    );

    let n = ((400_000f64 * gfcl_bench::scale()) as usize).max(4096);
    let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: n,
        avg_degree: 2.0,
        exponent: 1.8,
        seed: 0x0D15C,
    });
    let built = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let path = std::env::temp_dir().join(format!("gfcl_cold_warm_{}.gfcl", std::process::id()));
    built.save(&path).unwrap();

    let n_i = n as i64;
    let lo = n_i - n_i / 128; // ~0.78% selectivity, 99%+ of blocks prunable
    let q = scan_ge(lo);

    // (a) All-resident baseline.
    let resident_engine = gfcl(Arc::clone(&built));
    let (t_resident, card) = time_query(&resident_engine, &q);
    record("cold_vs_warm_scan/selective/resident", t_resident);

    // (b) Cold: a fresh open per run — the pool starts empty and every
    // page the scan cannot prune faults from disk. Median of 5 runs.
    let mut storage = StorageConfig::default();
    if let Some(pages) = gfcl_bench::config().buffer_pool_pages {
        storage.buffer_pool_pages = pages;
    }
    let reopen = || Arc::new(ColumnarGraph::open(&path, storage).unwrap());
    let mut cold_times: Vec<f64> = (0..5)
        .map(|_| {
            let g = reopen();
            let engine = gfcl(Arc::clone(&g));
            let t0 = Instant::now();
            let out = engine.execute(&q).expect("cold scan must run");
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(expect_count(&out), card, "reopen changed the count");
            dt
        })
        .collect();
    cold_times.sort_by(f64::total_cmp);
    let t_cold = cold_times[cold_times.len() / 2];
    record("cold_vs_warm_scan/selective/cold", t_cold);

    // The skip-rate invariant, measured on one dedicated cold run so the
    // counters cover exactly one execution.
    let g = reopen();
    let engine = gfcl(Arc::clone(&g));
    engine.execute(&q).unwrap();
    let stats = g.buffer_pool().unwrap().stats();
    let page_skip_rate =
        stats.pages_skipped as f64 / (stats.pages_skipped + stats.faults).max(1) as f64;
    // CPU-side block-skip rate of this query on the clustered id column:
    // a 1024-value block is AllFalse iff it lies wholly below `lo`.
    let total_blocks = n.div_ceil(1024);
    let skipped_blocks = lo as usize / 1024;
    let block_skip_rate = skipped_blocks as f64 / total_blocks as f64;

    // (c) Warm: same reopened graph, pool already holds every surviving
    // page — pins are hits, no I/O.
    let warm_engine = gfcl(Arc::clone(&g));
    let (t_warm, card_warm) = time_query(&warm_engine, &q);
    assert_eq!(card_warm, card, "warm run changed the count");
    record("cold_vs_warm_scan/selective/warm", t_warm);
    std::fs::remove_file(&path).unwrap();

    let mut table = TextTable::new(vec!["tier", "time (ms)", "vs resident"]);
    table.row(vec!["all-resident".to_owned(), fmt_ms(t_resident), "1.00x".to_owned()]);
    table.row(vec![
        "reopened, cold pool".to_owned(),
        fmt_ms(t_cold),
        fmt_factor(t_cold, t_resident),
    ]);
    table.row(vec![
        "reopened, warm pool".to_owned(),
        fmt_ms(t_warm),
        fmt_factor(t_warm, t_resident),
    ]);
    table.print();
    println!();
    println!(
        "page-skip rate {:.1}% (skipped {} / faulted {}), CPU block-skip rate {:.1}%",
        page_skip_rate * 100.0,
        stats.pages_skipped,
        stats.faults,
        block_skip_rate * 100.0,
    );
    assert!(
        page_skip_rate >= block_skip_rate,
        "zone-map page skipping ({page_skip_rate:.3}) fell below the CPU-side \
         block-skip rate ({block_skip_rate:.3}): pruning is evaluating blocks \
         it no longer saves I/O on"
    );
}
