//! Table 5: the list-based processor (GF-CL) vs the Volcano-style
//! tuple-at-a-time processor over the *same columnar storage* (GF-CV), on
//! 1/2/3-hop queries — FILTER rows (predicate on the last edge) and
//! COUNT(*) rows (factorized aggregation).
//!
//! Paper: FILTER speedups 2.7x–15.2x; COUNT(*) speedups grow with path
//! length up to 905x (WIKI 3-hop), because the factorized count never
//! enumerates tuples.

use std::sync::Arc;

use gfcl_baselines::GfCvEngine;
use gfcl_bench::{assert_same_count, banner, fmt_factor, fmt_ms, gfcl, time_query, TextTable};
use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};
use gfcl_workloads::{khop, KhopMode};

struct Dataset {
    name: &'static str,
    raw: RawGraph,
    node: &'static str,
    edge: &'static str,
    prop: &'static str,
    threshold: i64,
    max_hops: usize,
}

fn main() {
    banner(
        "Table 5: list-based processor (GF-CL) vs columnar Volcano (GF-CV)",
        "Table 5, Section 8.6 (paper: FILTER 2.7x-15.2x, COUNT(*) up to 905x)",
    );

    let datasets = vec![
        Dataset {
            name: "LDBC-like",
            raw: gfcl_bench::social(1_500),
            node: "Person",
            edge: "knows",
            prop: "date",
            threshold: 1_440_000_000,
            max_hops: 3,
        },
        Dataset {
            name: "FLICKR-like",
            raw: gfcl_bench::flickr(12_000),
            node: "NODE",
            edge: "LINK",
            prop: "ts",
            threshold: 1_440_000_000,
            max_hops: 3,
        },
        Dataset {
            name: "WIKI-like",
            raw: gfcl_bench::wiki(2_500),
            node: "NODE",
            edge: "LINK",
            prop: "ts",
            threshold: 1_440_000_000,
            max_hops: 3,
        },
    ];

    let mut table = TextTable::new(vec![
        "dataset", "mode", "engine", "1-hop", "2-hop", "3-hop", "1H x", "2H x", "3H x",
    ]);

    for d in &datasets {
        let graph = Arc::new(ColumnarGraph::build(&d.raw, StorageConfig::default()).unwrap());
        let cl = gfcl(graph.clone());
        let cv = GfCvEngine::new(graph);
        for (mode_name, mode) in
            [("FILTER", KhopMode::LastEdgeGt(d.threshold)), ("COUNT(*)", KhopMode::CountStar)]
        {
            let mut cl_ms = [f64::NAN; 3];
            let mut cv_ms = [f64::NAN; 3];
            for hops in 1..=d.max_hops {
                let q = khop(d.node, d.edge, d.prop, hops, mode, false);
                let (t_cl, c1) = time_query(&cl, &q);
                let (t_cv, c2) = time_query(&cv, &q);
                assert_same_count(&format!("{} {mode_name} {hops}H", d.name), &[c1, c2]);
                cl_ms[hops - 1] = t_cl;
                cv_ms[hops - 1] = t_cv;
            }
            let fmt_or = |v: f64| if v.is_nan() { "-".to_owned() } else { fmt_ms(v) };
            table.row(vec![
                d.name.to_owned(),
                mode_name.to_owned(),
                "GF-CV".to_owned(),
                fmt_or(cv_ms[0]),
                fmt_or(cv_ms[1]),
                fmt_or(cv_ms[2]),
                String::new(),
                String::new(),
                String::new(),
            ]);
            table.row(vec![
                d.name.to_owned(),
                mode_name.to_owned(),
                "GF-CL".to_owned(),
                fmt_or(cl_ms[0]),
                fmt_or(cl_ms[1]),
                fmt_or(cl_ms[2]),
                fmt_factor(cv_ms[0], cl_ms[0]),
                fmt_factor(cv_ms[1], cl_ms[1]),
                fmt_factor(cv_ms[2], cl_ms[2]),
            ]);
        }
    }
    table.print();
    println!("\nfactor = GF-CV time / GF-CL time. Expect FILTER factors to grow with");
    println!("path length and COUNT(*) factors to explode (factorized counting).");
}
