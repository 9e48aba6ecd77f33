//! Figure 12 (Appendix A.1): sensitivity of the property-page size `k`.
//!
//! Repeats the Table 3 forward-plan experiment with k = 2^1 .. 2^17 and
//! with pure edge columns ("*", equivalent to k = ∞). Paper: performance is
//! stable up to roughly k = 2^9 (2^11 on the lower-degree FLICKR), then
//! degrades toward the edge-column numbers as pages outgrow the cache; the
//! default k = 128 = 2^7 sits safely inside the flat region.

use std::sync::Arc;

use gfcl_bench::{banner, fmt_ms, gfcl, time_query, TextTable};
use gfcl_storage::{ColumnarGraph, EdgePropLayout, RawGraph, StorageConfig};
use gfcl_workloads::{khop, KhopMode};

struct Dataset {
    name: &'static str,
    raw: RawGraph,
    node: &'static str,
    edge: &'static str,
    prop: &'static str,
    threshold: i64,
}

fn main() {
    banner(
        "Figure 12: sensitivity of property-page size k (1H and 2H forward plans)",
        "Appendix A.1 (paper: flat up to ~2^9, k=128 in the safe region)",
    );

    let datasets = vec![
        Dataset {
            name: "LDBC-like",
            raw: gfcl_bench::social(2_000),
            node: "Person",
            edge: "knows",
            prop: "date",
            threshold: 1_375_000_000,
        },
        Dataset {
            name: "WIKI-like",
            raw: gfcl_bench::wiki(6_000),
            node: "NODE",
            edge: "LINK",
            prop: "ts",
            threshold: 1_400_000_000,
        },
        Dataset {
            name: "FLICKR-like",
            raw: gfcl_bench::flickr(15_000),
            node: "NODE",
            edge: "LINK",
            prop: "ts",
            threshold: 1_400_000_000,
        },
    ];

    let exponents: Vec<u32> = vec![1, 3, 5, 7, 9, 11, 13, 15, 17];

    for d in &datasets {
        println!("--- {} ---", d.name);
        let mut table = TextTable::new(vec!["k", "1H (ms)", "2H (ms)"]);
        for &e in &exponents {
            let k = 1usize << e;
            let cfg = StorageConfig {
                edge_prop_layout: EdgePropLayout::Pages { k },
                ..StorageConfig::default()
            };
            let engine = gfcl(Arc::new(ColumnarGraph::build(&d.raw, cfg).unwrap()));
            let t1 = time_query(
                &engine,
                &khop(d.node, d.edge, d.prop, 1, KhopMode::Chain(d.threshold), false),
            )
            .0;
            let t2 = time_query(
                &engine,
                &khop(d.node, d.edge, d.prop, 2, KhopMode::Chain(d.threshold), false),
            )
            .0;
            table.row(vec![format!("2^{e}"), fmt_ms(t1), fmt_ms(t2)]);
        }
        // "*" = pure edge columns (k = ∞).
        let cfg = StorageConfig {
            edge_prop_layout: EdgePropLayout::EdgeColumns,
            ..StorageConfig::default()
        };
        let engine = gfcl(Arc::new(ColumnarGraph::build(&d.raw, cfg).unwrap()));
        let t1 = time_query(
            &engine,
            &khop(d.node, d.edge, d.prop, 1, KhopMode::Chain(d.threshold), false),
        )
        .0;
        let t2 = time_query(
            &engine,
            &khop(d.node, d.edge, d.prop, 2, KhopMode::Chain(d.threshold), false),
        )
        .0;
        table.row(vec!["*".to_owned(), fmt_ms(t1), fmt_ms(t2)]);
        table.print();
        println!();
    }
}
