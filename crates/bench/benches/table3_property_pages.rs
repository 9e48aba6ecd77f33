//! Table 3: single-directional property pages (PAGE_P) vs plain edge
//! columns (COL_E) on 1-hop and 2-hop queries with edge-property
//! predicates, under forward (P_F) and backward (P_B) plans.
//!
//! Paper: forward plans under property pages are 1.9x–4.7x faster than
//! under edge columns (sequential vs random property reads), while
//! backward plans are comparable (~0.9x–1.1x) since neither layout gives
//! backward locality.

use std::sync::Arc;

use gfcl_bench::{assert_same_count, banner, fmt_factor, fmt_ms, gfcl, time_query, TextTable};
use gfcl_core::GfClEngine;
use gfcl_storage::{ColumnarGraph, EdgePropLayout, RawGraph, StorageConfig};
use gfcl_workloads::khop::{khop, KhopMode};

struct Dataset {
    name: &'static str,
    raw: RawGraph,
    node_label: &'static str,
    edge_label: &'static str,
    prop: &'static str,
    /// Constant for the 1-hop predicate (roughly median of the values).
    threshold: i64,
    /// Selective (≈95th percentile) constant for the 2-hop chain — bounds
    /// the path count at cache-busting scale while every e1 property is
    /// still read (the paper bounds WIKI 2-hop with extra predicates too).
    threshold_2h: i64,
}

fn engines(raw: &RawGraph) -> (GfClEngine, GfClEngine) {
    let pages = StorageConfig::default();
    let cols =
        StorageConfig { edge_prop_layout: EdgePropLayout::EdgeColumns, ..StorageConfig::default() };
    (
        gfcl(Arc::new(ColumnarGraph::build(raw, pages).unwrap())),
        gfcl(Arc::new(ColumnarGraph::build(raw, cols).unwrap())),
    )
}

fn main() {
    banner(
        "Table 3: property pages (PAGE_P) vs edge columns (COL_E), k-hop runtimes",
        "Table 3, Section 8.3 (paper: fwd 1.9x-4.7x faster with pages; bwd ~1x)",
    );

    // Sizes are chosen so the edge-property column exceeds the LLC —
    // the locality contrast Table 3 measures needs out-of-cache columns.
    let datasets = vec![
        Dataset {
            name: "LDBC-like (knows)",
            raw: gfcl_bench::social_knows_heavy(250_000),
            node_label: "Person",
            edge_label: "knows",
            prop: "date",
            threshold: 1_375_000_000,
            threshold_2h: 1_532_000_000,
        },
        Dataset {
            name: "WIKI-like",
            raw: gfcl_bench::wiki(300_000),
            node_label: "NODE",
            edge_label: "LINK",
            prop: "ts",
            threshold: 1_400_000_000,
            threshold_2h: 1_490_000_000,
        },
        Dataset {
            name: "FLICKR-like",
            raw: gfcl_bench::flickr(900_000),
            node_label: "NODE",
            edge_label: "LINK",
            prop: "ts",
            threshold: 1_400_000_000,
            threshold_2h: 1_490_000_000,
        },
    ];

    let mut table = TextTable::new(vec![
        "plan",
        "layout",
        "dataset",
        "1H (ms)",
        "2H (ms)",
        "1H factor",
        "2H factor",
    ]);

    for d in &datasets {
        println!("{}: {} vertices, {} edges", d.name, d.raw.total_vertices(), d.raw.total_edges());
        let (pages, cols) = engines(&d.raw);
        for backward in [false, true] {
            let plan_name = if backward { "P_B" } else { "P_F" };
            let mut ms = [[0f64; 2]; 2]; // [layout][hops-1]
            for (hops_idx, hops) in [1usize, 2].iter().enumerate() {
                let threshold = if *hops == 1 { d.threshold } else { d.threshold_2h };
                let q = khop(
                    d.node_label,
                    d.edge_label,
                    d.prop,
                    *hops,
                    KhopMode::Chain(threshold),
                    backward,
                );
                let (t_pages, c1) = time_query(&pages, &q);
                let (t_cols, c2) = time_query(&cols, &q);
                assert_same_count(&format!("{} {}H", d.name, hops), &[c1, c2]);
                ms[0][hops_idx] = t_pages;
                ms[1][hops_idx] = t_cols;
            }
            for (layout_idx, layout) in ["PAGE_P", "COL_E"].iter().enumerate() {
                table.row(vec![
                    plan_name.to_owned(),
                    (*layout).to_owned(),
                    d.name.to_owned(),
                    fmt_ms(ms[layout_idx][0]),
                    fmt_ms(ms[layout_idx][1]),
                    if layout_idx == 1 { fmt_factor(ms[1][0], ms[0][0]) } else { "-".into() },
                    if layout_idx == 1 { fmt_factor(ms[1][1], ms[0][1]) } else { "-".into() },
                ]);
            }
        }
    }
    table.print();
    println!("\nfactor = COL_E time / PAGE_P time (higher = pages win, as in the paper's");
    println!("forward plans; backward plans should hover around 1.0x).");
}
