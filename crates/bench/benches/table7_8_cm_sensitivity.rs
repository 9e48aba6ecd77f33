//! Tables 7 and 8 (Appendix A.2): sensitivity of the Jacobson NULL
//! compression parameters `(c, m)` — runtime of the Figure 10 query across
//! NULL densities (Table 7) and the index overhead in bytes (Table 8).
//!
//! Paper: runtime is insensitive to both parameters; overhead is exactly
//! `m/c` bits per element (plus the bit string), so (8,8), (16,16) and
//! (16,8) are the reasonable choices. `c = 24` would need a 1.6 GB map and
//! is rejected outright.

use std::sync::Arc;

use gfcl_bench::{banner, fmt_ms, gfcl, time_query, TextTable};
use gfcl_columnar::{NullKind, RankParams};
use gfcl_common::human_bytes;
use gfcl_core::query::PatternQuery;
use gfcl_storage::{ColumnarGraph, StorageConfig};

fn creation_date_query() -> PatternQuery {
    PatternQuery::builder()
        .node("a", "Person")
        .node("b", "Comment")
        .edge("e", "likes", "a", "b")
        .returns_sum("b", "creationDate")
        .build()
}

fn combos() -> Vec<RankParams> {
    let mut v = Vec::new();
    for c in [8u32, 16] {
        for m in [8u32, 16, 24, 32] {
            v.push(RankParams::new(c, m).unwrap());
        }
    }
    v
}

fn main() {
    banner(
        "Tables 7/8: (c, m) sensitivity of the Jacobson NULL index",
        "Appendix A.2 (paper: runtime flat across (c,m); overhead = m/c bits/elem)",
    );

    // Table 7: runtime at each density for each (c, m).
    let mut headers = vec!["rho".to_owned()];
    headers.extend(combos().iter().map(|p| format!("{},{}", p.c, p.m)));
    let mut t7 = TextTable::new(headers);
    for non_null_pct in [100, 90, 80, 70, 60, 50, 40, 30, 20, 10] {
        let raw = gfcl_bench::social_with_nulls(4_000, 1.0 - non_null_pct as f64 / 100.0);
        let mut row = vec![format!("{non_null_pct}")];
        for params in combos() {
            let cfg =
                StorageConfig { nulls: NullKind::Jacobson(params), ..StorageConfig::default() };
            let engine = gfcl(Arc::new(ColumnarGraph::build(&raw, cfg).unwrap()));
            let (secs, _) = time_query(&engine, &creation_date_query());
            row.push(fmt_ms(secs));
        }
        t7.row(row);
    }
    println!("Table 7 analog: runtime (ms) of the likes->creationDate scan");
    t7.print();

    // Table 8: overhead of bit strings + prefix sums at rho = 50%.
    let raw = gfcl_bench::social_with_nulls(4_000, 0.5);
    let comment = raw.catalog.vertex_label_id("Comment").unwrap();
    let date_prop = raw.catalog.vertex_prop_idx(comment, "creationDate").unwrap();
    let mut headers = vec!["".to_owned()];
    headers.extend(combos().iter().map(|p| format!("{},{}", p.c, p.m)));
    let mut t8 = TextTable::new(headers);
    let mut row = vec!["overhead".to_owned()];
    let mut elems = 0usize;
    for params in combos() {
        let cfg = StorageConfig { nulls: NullKind::Jacobson(params), ..StorageConfig::default() };
        let g = ColumnarGraph::build(&raw, cfg).unwrap();
        let col = g.vertex_prop(comment, date_prop);
        elems = col.len();
        row.push(human_bytes(col.null_overhead_bytes()));
    }
    t8.row(row);
    println!("\nTable 8 analog: NULL-structure overhead (bit string + prefix sums)");
    println!("for the {elems}-element creationDate column at rho = 50%");
    t8.print();
    println!(
        "\nexpected bits/element: 1 + m/c (e.g. 1.5 at (16,8), 2 at (8,8)/(16,16), 5 at (8,32))"
    );
}
