//! Statistics-driven join ordering vs the worst declaration order.
//!
//! Not an experiment from the paper: the paper hand-picks its left-deep
//! plans (Section 8.7), so plan quality never appears in its tables. This
//! bench measures what that hand-picking is worth — and that the new
//! cost-based orderer (`gfcl_core::optimize`) recovers it automatically —
//! by running multi-hop queries on a power-law graph two ways:
//!
//! * **worst**: the declaration order forced verbatim through
//!   `start_at`/`edge_order` hints — scan every vertex, extend k hops, and
//!   only then apply the selective predicate sitting on the far endpoint;
//! * **optimized**: the same query with no hints; the orderer starts from
//!   the selective end (a pk seek or a filtered scan) and extends backward.
//!
//! On a power-law graph the worst order touches `n · d^k` intermediate
//! tuples, the optimized one a small fraction; the speedup grows with both
//! the hop count and the graph. The final column shows the orderer's own
//! cost estimates (from EXPLAIN) for the two plans.

use std::sync::Arc;

use gfcl_bench::{banner, fmt_factor, fmt_ms, gfcl, time_plan, TextTable};
use gfcl_core::query::{col, eq, lit, lt, PatternQuery, QueryBuilder};
use gfcl_core::Engine;
use gfcl_storage::{ColumnarGraph, StorageConfig};

/// k-hop LINK chain with a predicate on the far endpoint's `id`.
fn far_end_query(hops: usize, pred: FarPred) -> PatternQuery {
    let mut b = QueryBuilder::default();
    for i in 0..=hops {
        b = b.node(&format!("v{i}"), "NODE");
    }
    for i in 0..hops {
        b = b.edge(&format!("e{}", i + 1), "LINK", &format!("v{i}"), &format!("v{}", i + 1));
    }
    let far = format!("v{hops}");
    b = match pred {
        FarPred::IdBelow(limit) => b.filter(lt(col(&far, "id"), lit(limit))),
        FarPred::IdEq(id) => b.filter(eq(col(&far, "id"), lit(id))),
    };
    b.returns_count().build()
}

#[derive(Clone, Copy)]
enum FarPred {
    /// Range predicate: selective scan at the far end.
    IdBelow(i64),
    /// Equality on the primary key: a constant-time seek at the far end.
    IdEq(i64),
}

/// The same query with the declaration order forced verbatim.
fn worst_declaration(q: &PatternQuery) -> PatternQuery {
    let mut w = q.clone();
    w.hints.start = Some("v0".into());
    w.hints.edge_order = Some((0..q.edges.len()).collect());
    w
}

fn main() {
    banner(
        "Optimizer orders: worst declaration order vs statistics-driven order",
        "not in the paper — measures what Section 8.7's hand-picked plans are worth",
    );

    let raw = gfcl_bench::flickr(8_000);
    let n = raw.vertex_count(0) as i64;
    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let engine = gfcl(graph);

    let queries: Vec<(String, PatternQuery)> = vec![
        (format!("2-hop, far id < {}", n / 50), far_end_query(2, FarPred::IdBelow(n / 50))),
        (format!("3-hop, far id < {}", n / 50), far_end_query(3, FarPred::IdBelow(n / 50))),
        (format!("2-hop, far id = {}", n / 2), far_end_query(2, FarPred::IdEq(n / 2))),
        (format!("3-hop, far id = {}", n / 2), far_end_query(3, FarPred::IdEq(n / 2))),
    ];

    let mut table =
        TextTable::new(vec!["query", "worst (ms)", "optimized (ms)", "speedup", "est worst/opt"]);
    let mut best_speedup = 0.0f64;
    for (name, q) in &queries {
        let worst_plan = engine.plan(&worst_declaration(q)).unwrap();
        let opt_plan = engine.plan(q).unwrap();
        let est = |p: &gfcl_core::LogicalPlan| {
            p.step_cards.iter().flatten().copied().fold(0.0f64, f64::max)
        };
        let (t_worst, c_worst) = time_plan(&engine, &worst_plan);
        let (t_opt, c_opt) = time_plan(&engine, &opt_plan);
        assert_eq!(c_worst, c_opt, "{name}: both orders must return the same count");
        best_speedup = best_speedup.max(t_worst / t_opt);
        table.row(vec![
            name.clone(),
            fmt_ms(t_worst),
            fmt_ms(t_opt),
            fmt_factor(t_worst, t_opt),
            format!("{:.0}/{:.0}", est(&worst_plan), est(&opt_plan)),
        ]);
    }
    table.print();
    println!();
    gfcl_bench::assert_speedup(
        best_speedup,
        2.0,
        "statistics-driven order vs worst declaration order",
    );
}
