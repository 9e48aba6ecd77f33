//! Plan-verifier overhead: `verify_plan` timed on each finished plan
//! beside the `plan_with` call that built it (and, like every planning
//! call, verified it once already).
//!
//! Not an experiment from the paper — it prices the PR-7 plan verifier.
//! Verification is a pure pass over the finished `LogicalPlan` (no graph
//! data touched), so its cost is a slice of planning time, which is itself
//! microseconds against millisecond-scale execution. The asserted budget
//! (outside quick mode):
//! * total verifier time across the suite < 1% of total end-to-end
//!   (plan + execute) time — i.e. verification is free at query scale.
//!
//! The recorded rows (`verify_overhead/...`) are absolute times, so the
//! perf-trajectory gate (`bench_compare`) additionally pins planning and
//! verification time against future regressions.

use std::sync::Arc;
use std::time::Instant;

use gfcl_bench::{banner, fmt_ms, gfcl, quick, record, time_plan, TextTable};
use gfcl_core::plan::{plan_with, LogicalPlan, PlanOptions};
use gfcl_core::query::PatternQuery;
use gfcl_core::verify::verify_plan;
use gfcl_datagen::SocialParams;
use gfcl_storage::{Catalog, ColumnarGraph, StorageConfig};
use gfcl_workloads::grouped;
use gfcl_workloads::ldbc::{self, LdbcParams};

/// Median seconds per single call of `f`: `reps` repetitions of a
/// `k`-call loop (planning and verifying are microseconds, so single calls
/// are below timer resolution).
fn median_secs<T>(mut f: impl FnMut() -> T, k: usize, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..k {
                std::hint::black_box(f());
            }
            t0.elapsed().as_secs_f64() / k as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Median seconds per `plan_with` call of `q`.
fn plan_secs(q: &PatternQuery, cat: &Catalog, k: usize, reps: usize) -> f64 {
    median_secs(|| plan_with(q, cat, &PlanOptions::default()).unwrap(), k, reps)
}

/// Median seconds per `verify_plan` call on the finished `plan`.
fn verify_secs(plan: &LogicalPlan, cat: &Catalog, k: usize, reps: usize) -> f64 {
    median_secs(|| verify_plan(plan, cat).unwrap(), k, reps)
}

fn fmt_us(secs: f64) -> String {
    format!("{:.1}", secs * 1e6)
}

fn main() {
    banner(
        "Plan-verifier overhead: planning and end-to-end cost of verification",
        "PR-7 structural plan verifier (EXPLAIN `verified: N invariants`)",
    );

    let persons = ((8_000f64 * gfcl_bench::scale()) as usize).max(400);
    let raw = gfcl_datagen::generate_social(SocialParams::scale(persons));
    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let engine = gfcl(graph.clone());
    let catalog = graph.catalog().clone();

    let params = LdbcParams::for_scale(persons);
    let mut queries = ldbc::all_queries(&params);
    queries.extend(grouped::ga_queries(&params));

    let (k, reps) = if quick() { (16, 3) } else { (64, 5) };

    let mut table =
        TextTable::new(vec!["query", "plan (us)", "verify (us)", "e2e (ms)", "verify/e2e"]);
    let mut total_verify = 0.0f64;
    let mut total_plan = 0.0f64;
    let mut total_e2e = 0.0f64;
    for (name, q) in &queries {
        let t_plan = plan_secs(q, &catalog, k, reps);
        let plan = plan_with(q, &catalog, &PlanOptions::default()).unwrap();
        let t_verify = verify_secs(&plan, &catalog, k, reps);
        let (t_exec, _card) = time_plan(&engine, &plan);
        let e2e = t_plan + t_exec;

        total_verify += t_verify;
        total_plan += t_plan;
        total_e2e += e2e;
        table.row(vec![
            name.clone(),
            fmt_us(t_plan),
            fmt_us(t_verify),
            fmt_ms(e2e),
            format!("{:.3}%", 100.0 * t_verify / e2e),
        ]);
    }
    table.print();
    println!();

    record("verify_overhead/plan", total_plan);
    record("verify_overhead/verify", total_verify);
    record("verify_overhead/end-to-end", total_e2e);

    let ratio = total_verify / total_e2e;
    println!(
        "suite totals: plan {} ms (verification included), verifier {} ms, end-to-end {} ms",
        fmt_ms(total_plan),
        fmt_ms(total_verify),
        fmt_ms(total_e2e),
    );
    println!(
        "verifier share of end-to-end: {:.3}% (budget <1%{})",
        ratio * 100.0,
        if quick() { ", quick mode" } else { "" }
    );
    assert!(
        quick() || ratio < 0.01,
        "plan verification must stay under 1% of end-to-end time, measured {:.3}%",
        ratio * 100.0
    );
}
