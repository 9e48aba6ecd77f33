//! Table 4: vertex columns vs 2-level CSR for storing single-cardinality
//! edges — runtime of 1/2/3-hop `replyOf`-style chains plus the memory of
//! that label's storage, with and without NULL compression.
//!
//! Paper: vertex columns beat CSR by 1.26x–1.64x at equal compression, and
//! NULL-compressing the ~50%-empty lists shrinks vertex columns by 1.75x
//! (839.93 MB -> 478.86 MB) vs only 1.4x for CSR (offsets cannot be
//! compressed without losing constant-time access).
//!
//! Under the CSR configuration the planner plans each single-cardinality
//! extend as the `ListExtend` the executor runs (`Catalog::column_extend`),
//! so both columns time the same plan shape the storage dictates.

use std::sync::Arc;

use gfcl_bench::{assert_same_count, banner, fmt_ms, gfcl, time_query, TextTable};
use gfcl_columnar::NullKind;
use gfcl_common::human_bytes;
use gfcl_core::{Engine, GfClEngine};
use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};
use gfcl_workloads::khop_propless;

fn build(raw: &RawGraph, vcols: bool, compress: bool) -> (GfClEngine, usize) {
    let nulls = if compress { NullKind::jacobson_default() } else { NullKind::Uncompressed };
    let cfg = StorageConfig { single_card_in_vcols: vcols, nulls, ..StorageConfig::default() };
    let g = ColumnarGraph::build(raw, cfg).unwrap();
    let label = g.catalog().edge_label_id("replyOfComment").unwrap();
    let (fwd, bwd, props) = g.edge_label_memory(label);
    (gfcl(Arc::new(g)), fwd + bwd + props)
}

fn main() {
    banner(
        "Table 4: vertex columns vs CSR for single-cardinality edges",
        "Table 4, Section 8.4 (paper: V-COL 1.26x-1.64x faster, 1.51x-1.89x smaller)",
    );
    // The workload: 1/2/3-hop chains over the half-empty replyOfComment
    // n-1 label, count(*), forward plans (as in the paper).
    let raw = gfcl_bench::social(12_000);
    let comment_count = raw.vertex_count(raw.catalog.vertex_label_id("Comment").unwrap());
    let reply_edges = raw.edge_count(raw.catalog.edge_label_id("replyOfComment").unwrap());
    println!(
        "{comment_count} comments, {reply_edges} replyOfComment edges ({:.1}% of forward lists empty)\n",
        100.0 * (1.0 - reply_edges as f64 / comment_count as f64)
    );

    let configs: Vec<(&str, bool, bool)> = vec![
        ("CSR-UNC", false, false),
        ("V-COL-UNC", true, false),
        ("CSR-C", false, true),
        ("V-COL-C", true, true),
    ];

    let mut table =
        TextTable::new(vec!["config", "1-hop (ms)", "2-hop (ms)", "3-hop (ms)", "mem (label)"]);
    let mut results: Vec<(String, [f64; 3], usize)> = Vec::new();
    for (name, vcols, nullc) in configs {
        let (engine, mem) = build(&raw, vcols, nullc);
        let mut times = [0f64; 3];
        let mut counts = Vec::new();
        for hops in 1..=3usize {
            let q = khop_propless("Comment", "replyOfComment", hops);
            let (secs, count) = time_query(&engine, &q);
            times[hops - 1] = secs;
            counts.push(count);
        }
        table.row(vec![
            name.to_owned(),
            fmt_ms(times[0]),
            fmt_ms(times[1]),
            fmt_ms(times[2]),
            human_bytes(mem),
        ]);
        results.push((name.to_owned(), times, mem));
    }
    table.print();

    // Pairwise factors as in the paper's prose.
    let by_name = |n: &str| results.iter().find(|(name, _, _)| name == n).unwrap();
    let (_, csr_unc, m_csr_unc) = by_name("CSR-UNC");
    let (_, vcol_unc, m_vcol_unc) = by_name("V-COL-UNC");
    let (_, csr_c, m_csr_c) = by_name("CSR-C");
    let (_, vcol_c, m_vcol_c) = by_name("V-COL-C");
    println!("\nuncompressed: V-COL vs CSR runtime factors: {:.2}x / {:.2}x / {:.2}x (paper: 1.62x/1.57x/1.64x)",
        csr_unc[0] / vcol_unc[0], csr_unc[1] / vcol_unc[1], csr_unc[2] / vcol_unc[2]);
    println!("compressed:   V-COL vs CSR runtime factors: {:.2}x / {:.2}x / {:.2}x (paper: 1.49x/1.26x/1.34x)",
        csr_c[0] / vcol_c[0], csr_c[1] / vcol_c[1], csr_c[2] / vcol_c[2]);
    println!(
        "memory: V-COL {:.2}x smaller than CSR uncompressed (paper 1.51x); NULL compression shrinks V-COL {:.2}x (paper 1.75x), CSR {:.2}x (paper 1.4x)",
        *m_csr_unc as f64 / *m_vcol_unc as f64,
        *m_vcol_unc as f64 / *m_vcol_c as f64,
        *m_csr_unc as f64 / *m_csr_c as f64,
    );

    // Consistency across configs.
    let q = khop_propless("Comment", "replyOfComment", 2);
    let counts: Vec<u64> = results
        .iter()
        .map(|(name, _, _)| {
            let vcols = name.starts_with("V-COL");
            let nullc = name.ends_with("-C");
            let (engine, _) = build(&raw, vcols, nullc);
            engine.execute(&q).unwrap().cardinality()
        })
        .collect();
    assert_same_count("2-hop across configs", &counts);
}
