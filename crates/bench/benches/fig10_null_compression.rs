//! Figure 10: query performance and memory when a sparse vertex property
//! column is stored Uncompressed, with the paper's Jacobson-indexed NULL
//! compression (J-NULL), or with Abadi's vanilla bit-string scheme
//! (Vanilla-NULL), across NULL densities.
//!
//! Workload (Section 8.5): `MATCH (a:Person)-[e:likes]->(b:Comment)
//! RETURN <aggregate of b.creationDate>` — scan persons, extend over
//! `likes`, read the (sparse) creationDate column of each reached comment.
//!
//! Paper: J-NULL is 1.19x–1.51x slower than Uncompressed (and *faster*
//! below ~30% density), while Vanilla-NULL is >20x slower than J-NULL and
//! was omitted from the plot. Memory: 2 bits/element overhead for J-NULL
//! vs 1 for Vanilla, both far below the uncompressed column at low
//! density.

use std::sync::Arc;

use gfcl_bench::{banner, fmt_ms, gfcl, time_query, TextTable};
use gfcl_columnar::NullKind;
use gfcl_common::{human_bytes, MemoryUsage};
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

fn main() {
    banner(
        "Figure 10: NULL-compression performance/memory vs density",
        "Figure 10, Section 8.5 (paper: J-NULL within 1.2-1.5x of uncompressed, \
         >20x faster than Vanilla; crossover below ~30% non-NULL)",
    );

    let layouts: Vec<(&str, NullKind)> = vec![
        ("Uncompressed", NullKind::Uncompressed),
        ("J-NULL", NullKind::jacobson_default()),
        ("Vanilla-NULL", NullKind::Vanilla),
    ];

    let mut table = TextTable::new(vec![
        "non-NULL %",
        "Uncompressed ms",
        "J-NULL ms",
        "Vanilla ms",
        "Unc col",
        "J-NULL col",
        "Vanilla col",
        "vanilla/jnull",
    ]);

    for non_null_pct in [100, 90, 80, 70, 60, 50, 40, 30, 20, 10] {
        let raw = gfcl_bench::social_with_nulls(6_000, 1.0 - non_null_pct as f64 / 100.0);
        let comment = raw.catalog.vertex_label_id("Comment").unwrap();
        let date_prop = raw.catalog.vertex_prop_idx(comment, "creationDate").unwrap();

        let mut ms = Vec::new();
        let mut col_bytes = Vec::new();
        for (_, kind) in &layouts {
            let cfg = StorageConfig { nulls: *kind, ..StorageConfig::default() };
            let g = ColumnarGraph::build(&raw, cfg).unwrap();
            col_bytes.push(g.vertex_prop(comment, date_prop).memory_bytes());
            let engine = gfcl(Arc::new(g));
            let (secs, _) = time_query(&engine, &creation_date_query());
            ms.push(secs);
        }
        table.row(vec![
            format!("{non_null_pct}%"),
            fmt_ms(ms[0]),
            fmt_ms(ms[1]),
            fmt_ms(ms[2]),
            human_bytes(col_bytes[0]),
            human_bytes(col_bytes[1]),
            human_bytes(col_bytes[2]),
            format!("{:.1}x", ms[2] / ms[1]),
        ]);
    }
    table.print();
    println!("\nExpected shape: J-NULL tracks Uncompressed closely (and can win at low");
    println!("density); Vanilla-NULL degrades with column length due to O(n) rank scans.");
}
