//! Filter pushdown to storage: zone-map-pruned scans vs read-then-filter.
//!
//! Not an experiment from the paper — it measures the PR-5 pushdown path:
//! a scan with a pushed-down predicate consults per-block zone maps
//! (min/max synopses over the vertex-property columns), skips whole
//! morsels no row of which can match, and seeds the selection mask before
//! any property read materializes a value. The baseline is the same query
//! planned with `PlanOptions::no_pushdown()`: read the property into a
//! vector, then filter.
//!
//! Asserted floors (outside quick mode):
//! * ≥ 5x on a selective (≤ 1% selectivity) range filter over a
//!   value-clustered key — the zone-map sweet spot;
//! * ≥ 1x (no regression) on a non-selective filter that every row passes;
//! * zone-map construction adds < 5% to `ColumnarGraph::build`.

use std::sync::Arc;
use std::time::Instant;

use gfcl_bench::{banner, fmt_factor, fmt_ms, gfcl, quick, record, time_plan, TextTable};
use gfcl_core::plan::{plan_with, PlanOptions};
use gfcl_core::query::{col, ge, gt, lit, PatternQuery};
use gfcl_datagen::PowerLawParams;
use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};

/// Scan-only query: `MATCH (v:NODE) WHERE v.id >= lo RETURN COUNT(*)`.
fn scan_ge(lo: i64) -> PatternQuery {
    PatternQuery::builder()
        .node("v", "NODE")
        .filter(ge(col("v", "id"), lit(lo)))
        .returns_count()
        .build()
}

/// 1-hop count with a pushed start filter (pruning compounds with the
/// extend: skipped vertices never reach the adjacency index).
fn one_hop_ge(lo: i64) -> PatternQuery {
    PatternQuery::builder()
        .node("v0", "NODE")
        .node("v1", "NODE")
        .edge("e1", "LINK", "v0", "v1")
        .filter(ge(col("v0", "id"), lit(lo)))
        .filter(gt(col("e1", "ts"), lit(1_350_000_000)))
        .returns_count()
        .start_at("v0")
        .build()
}

/// Median build time of `raw` under `cfg` over `runs` builds.
fn build_secs(raw: &RawGraph, cfg: StorageConfig, runs: usize) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let g = ColumnarGraph::build(raw, cfg).unwrap();
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(&g);
            dt
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

fn main() {
    banner(
        "Scan pushdown: zone-map-pruned scans vs read-then-filter",
        "PR-5 filter pushdown (Vertica/GRAPHITE-style block skipping)",
    );

    let n = ((400_000f64 * gfcl_bench::scale()) as usize).max(4096);
    let raw = gfcl_datagen::generate_powerlaw(PowerLawParams {
        nodes: n,
        avg_degree: 2.0,
        exponent: 1.8,
        seed: 0x5CA9,
    });

    // Zone-map build overhead: the same graph with and without maps.
    let without = build_secs(&raw, StorageConfig { zone_maps: false, ..Default::default() }, 5);
    let with = build_secs(&raw, StorageConfig::default(), 5);
    let overhead = (with - without) / without;
    println!(
        "ColumnarGraph::build: {} ms without zone maps, {} ms with ({:+.1}% overhead)\n",
        fmt_ms(without),
        fmt_ms(with),
        overhead * 100.0
    );

    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let engine = gfcl(graph.clone());
    let catalog = graph.catalog().clone();

    let n_i = n as i64;
    let cases: Vec<(&str, PatternQuery)> = vec![
        // ~0.78% of the key domain: ≤ 1% selectivity, 99%+ of blocks prunable.
        ("scan 0.8%-selective", scan_ge(n_i - n_i / 128)),
        ("scan non-selective", scan_ge(0)),
        ("1-hop 3%-selective start", one_hop_ge(n_i - n_i / 32)),
    ];

    let mut table =
        TextTable::new(vec!["query", "no pushdown (ms)", "pushdown (ms)", "speedup", "rows"]);
    let mut speedups = Vec::new();
    for (name, q) in &cases {
        let pushed = plan_with(q, &catalog, &PlanOptions::default()).unwrap();
        let plain = plan_with(q, &catalog, &PlanOptions::no_pushdown()).unwrap();
        let (t_plain, card_plain) = time_plan(&engine, &plain);
        let (t_push, card_push) = time_plan(&engine, &pushed);
        assert_eq!(card_plain, card_push, "{name}: pushdown changed the result");
        record(&format!("scan_pushdown/{name}/no-pushdown"), t_plain);
        record(&format!("scan_pushdown/{name}/pushdown"), t_push);
        speedups.push(t_plain / t_push);
        table.row(vec![
            (*name).to_owned(),
            fmt_ms(t_plain),
            fmt_ms(t_push),
            fmt_factor(t_plain, t_push),
            format!("{card_push}"),
        ]);
    }
    table.print();
    println!();

    gfcl_bench::assert_speedup(
        speedups[0],
        5.0,
        "zone-map-pruned scan vs read-then-filter on a <=1%-selective predicate",
    );
    gfcl_bench::assert_speedup(
        speedups[1],
        1.0,
        "pushdown on a non-selective predicate (no-regression floor)",
    );
    println!(
        "zone-map build overhead: {:+.1}% (floor <5%{})",
        overhead * 100.0,
        if quick() { ", quick mode" } else { "" }
    );
    assert!(
        quick() || overhead < 0.05,
        "zone-map construction must stay below 5% of build time, measured {:.1}%",
        overhead * 100.0
    );
}
