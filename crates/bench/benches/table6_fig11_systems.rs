//! Tables 6a/6b/6c and Figure 11: end-to-end system comparison on the
//! LDBC-like IS/IC suites and the 33 JOB-like queries, across all four
//! engines, reported as runtimes and as relative factors vs GF-RV with the
//! Figure 11 percentile summary.
//!
//! Substitutions: GF-RV stands in for the row/Volcano GDBMS
//! design point (Neo4j's architecture); REL — block hash joins over edge
//! tables without adjacency indexes — stands in for MonetDB/Vertica.
//!
//! Paper headlines: GF-CL improves over GF-RV by a median 2.6x on LDBC and
//! 3.1x on JOB; the relational engines lose big on selective path queries
//! (no pk seek, full edge-table scans) and are competitive on unselective
//! star joins.

use std::sync::Arc;

use gfcl_baselines::{GfCvEngine, GfRvEngine, RelEngine};
use gfcl_bench::{banner, fmt_ms, gfcl, time_query, TextTable};
use gfcl_core::{Engine, PatternQuery};
use gfcl_storage::{ColumnarGraph, RawGraph, RowGraph, StorageConfig};
use gfcl_workloads::job;
use gfcl_workloads::ldbc::{self, LdbcParams};

fn engines(raw: &RawGraph) -> Vec<Box<dyn Engine>> {
    let col = Arc::new(ColumnarGraph::build(raw, StorageConfig::default()).unwrap());
    let row = Arc::new(RowGraph::build(raw).unwrap());
    vec![
        Box::new(GfClEngine(col.clone())),
        Box::new(GfCvEngine::new(col.clone())),
        Box::new(GfRvEngine::new(row)),
        Box::new(RelEngine::new(col)),
    ]
}

// Thin wrapper so the GF-CL constructor reads uniformly above.
#[allow(non_snake_case)]
fn GfClEngine(g: Arc<ColumnarGraph>) -> gfcl_core::GfClEngine {
    gfcl(g)
}

/// Run one suite; returns per-query relative slowdowns vs GF-RV keyed by
/// engine name.
fn run_suite(
    title: &str,
    raw: &RawGraph,
    queries: &[(String, PatternQuery)],
) -> Vec<(String, Vec<f64>)> {
    println!("--- {title} ---");
    let engines = engines(raw);
    let mut table =
        TextTable::new(vec!["query", "GF-CL", "GF-CV", "GF-RV", "REL", "count", "GF-CL vs RV"]);
    let mut rel_slowdowns: Vec<(String, Vec<f64>)> =
        engines.iter().map(|e| (e.name().to_owned(), Vec::new())).collect();

    for (name, q) in queries {
        let mut times = Vec::new();
        let mut counts = Vec::new();
        for e in &engines {
            let (secs, card) = time_query(e.as_ref(), q);
            times.push(secs);
            counts.push(card);
        }
        gfcl_bench::assert_same_count(name, &counts);
        let rv = times[2];
        for (i, t) in times.iter().enumerate() {
            rel_slowdowns[i].1.push(t / rv);
        }
        table.row(vec![
            name.clone(),
            fmt_ms(times[0]),
            fmt_ms(times[1]),
            fmt_ms(times[2]),
            fmt_ms(times[3]),
            counts[0].to_string(),
            format!("{:.1}x", rv / times[0]),
        ]);
    }
    table.print();
    println!();
    rel_slowdowns
}

/// Figure 11-style percentile summary of relative slowdowns vs GF-RV.
fn percentile_summary(title: &str, slowdowns: &[(String, Vec<f64>)]) {
    println!("--- {title}: relative slowdown vs GF-RV (Figure 11 percentiles) ---");
    let mut table = TextTable::new(vec!["engine", "p5", "p25", "median", "p75", "p95"]);
    for (name, values) in slowdowns {
        let mut v = values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| -> f64 {
            let idx = ((v.len() - 1) as f64 * p).round() as usize;
            v[idx]
        };
        table.row(vec![
            name.clone(),
            format!("{:.2}", pct(0.05)),
            format!("{:.2}", pct(0.25)),
            format!("{:.2}", pct(0.50)),
            format!("{:.2}", pct(0.75)),
            format!("{:.2}", pct(0.95)),
        ]);
    }
    table.print();
    println!("(values < 1 = faster than GF-RV; paper medians: GF-CL 0.38 on LDBC,");
    println!(" 0.32 on JOB; VERTICA/MONET/NEO4J 13x-46x slower on LDBC)\n");
}

fn main() {
    banner(
        "Tables 6a/6b/6c + Figure 11: LDBC and JOB across four engines",
        "Section 8.7 (GF-CL median speedup 2.6x LDBC / 3.1x JOB over GF-RV)",
    );

    // LDBC-like: IS + IC suites.
    let persons = 4_000;
    let social = gfcl_bench::social(persons);
    let params = LdbcParams::for_scale(
        social.vertex_count(social.catalog.vertex_label_id("Person").unwrap()),
    );
    let is_queries = ldbc::is_queries(&params);
    let ic_queries = ldbc::ic_queries(&params);
    let mut ldbc_slow = run_suite("LDBC IS (Table 6a analog)", &social, &is_queries);
    let ic_slow = run_suite("LDBC IC (Table 6b analog)", &social, &ic_queries);
    for (a, b) in ldbc_slow.iter_mut().zip(ic_slow) {
        a.1.extend(b.1);
    }
    percentile_summary("LDBC (IS+IC)", &ldbc_slow);

    // JOB-like: all 33 queries.
    let movies = gfcl_bench::movies(6_000);
    let job_queries = job::all_queries();
    let job_slow = run_suite("JOB (Table 6c analog)", &movies, &job_queries);
    percentile_summary("JOB", &job_slow);
}
