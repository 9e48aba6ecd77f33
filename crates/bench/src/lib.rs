//! Shared infrastructure for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a
//! `harness = false` bench target in `benches/` that regenerates it (see
//! README.md, "Layout of the paper's experiments", for the index). Common
//! pieces live here: the measurement
//! protocol, dataset builders sized for a laptop, and a plain-text table
//! printer that mimics the paper's layout.
//!
//! **Measurement protocol** (Section 8.1): each query runs 5 times
//! consecutively; the reported number is the average of the last 3 runs.
//! Queries whose first run exceeds one second fall back to 2 measured runs
//! to keep the full suite tractable.
//!
//! Set `GFCL_SCALE` (float, default 1.0) to grow or shrink every dataset.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gfcl_core::plan::plan_with;
use gfcl_core::{Config, Engine, GfClEngine, LogicalPlan, QueryOutput};
use gfcl_datagen::{MovieParams, PowerLawParams, SocialParams};
use gfcl_storage::{ColumnarGraph, RawGraph};

/// The engine's `GFCL_*` variables, parsed once per bench binary: [`gfcl`]
/// runs at its `exec`, [`time_query`] plans under its `plan`.
pub fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| Config::from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// GF-CL over `graph` at the configured execution options.
pub fn gfcl(graph: Arc<ColumnarGraph>) -> GfClEngine {
    GfClEngine::with_options(graph, config().exec)
}

/// Global dataset scale multiplier from `GFCL_SCALE`.
pub fn scale() -> f64 {
    std::env::var("GFCL_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Slug of the current bench (set by [`banner`]) + a measurement counter,
/// used to auto-label [`time_plan`] measurements in the perf-trajectory
/// JSON (`GFCL_BENCH_JSON`).
static BENCH_SLUG: Mutex<Option<String>> = Mutex::new(None);
static BENCH_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Append one `{"bench": ..., "ns_per_iter": ...}` JSON line to the file
/// named by `GFCL_BENCH_JSON` (no-op when unset). CI's `bench-smoke` job
/// collects these lines into the `BENCH_PR.json` performance artifact;
/// criterion-harness benches record through the same file via the vendored
/// criterion stub.
pub fn record(name: &str, secs: f64) {
    let Ok(path) = std::env::var("GFCL_BENCH_JSON") else { return };
    let ns = secs * 1e9;
    if path.is_empty() || !ns.is_finite() {
        return;
    }
    use std::io::Write as _;
    let escaped: String =
        name.chars().map(|c| if c == '"' || c == '\\' { '_' } else { c }).collect();
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = writeln!(f, "{{\"bench\": \"{escaped}\", \"ns_per_iter\": {ns:.1}}}");
    }
}

/// True in CI's `bench-smoke` quick mode (`GFCL_BENCH_QUICK=1`): datasets
/// are shrunk via `GFCL_SCALE`, so speedup assertions should be reported
/// rather than enforced (panics still fail the job — that is the smoke).
pub fn quick() -> bool {
    std::env::var("GFCL_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Enforce a speedup floor outside quick mode; always print the outcome.
pub fn assert_speedup(actual: f64, floor: f64, what: &str) {
    println!(
        "{what}: {actual:.1}x (floor {floor:.0}x{})",
        if quick() { ", quick mode" } else { "" }
    );
    assert!(quick() || actual >= floor, "expected {what} to reach {floor:.1}x, got {actual:.2}x");
}

/// Auto-label for unnamed measurements: `<banner slug>#<seq>`.
fn auto_record(secs: f64) {
    let slug = BENCH_SLUG.lock().ok().and_then(|s| s.clone()).unwrap_or_else(|| "bench".to_owned());
    let seq = BENCH_SEQ.fetch_add(1, Ordering::Relaxed);
    record(&format!("{slug}#{seq:03}"), secs);
}

fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(16)
}

/// LDBC-like social network.
pub fn social(persons: usize) -> RawGraph {
    gfcl_datagen::generate_social(SocialParams::scale(scaled(persons)))
}

/// A knows-heavy social network: full-size KNOWS label but slimmed-down
/// satellite labels, for microbenchmarks that only traverse `knows`
/// (Tables 3/5, Figure 12) and need the edge-property column to exceed the
/// last-level cache.
pub fn social_knows_heavy(persons: usize) -> RawGraph {
    let mut p = SocialParams::scale(scaled(persons));
    p.comments_per_person = 1;
    p.posts_per_person = 1;
    p.likes_per_person = 1.0;
    gfcl_datagen::generate_social(p)
}

/// LDBC-like social network with a custom Comment.creationDate NULL
/// fraction (Figure 10 sweeps).
pub fn social_with_nulls(persons: usize, null_fraction: f64) -> RawGraph {
    let mut p = SocialParams::scale(scaled(persons));
    p.comment_date_null_fraction = null_fraction;
    gfcl_datagen::generate_social(p)
}

/// IMDb-like movie database.
pub fn movies(titles: usize) -> RawGraph {
    gfcl_datagen::generate_movies(MovieParams::scale(scaled(titles)))
}

/// FLICKR-like power-law graph (average degree 14).
pub fn flickr(nodes: usize) -> RawGraph {
    gfcl_datagen::generate_powerlaw(PowerLawParams::flickr(scaled(nodes)))
}

/// WIKI-like power-law graph (average degree 41).
pub fn wiki(nodes: usize) -> RawGraph {
    gfcl_datagen::generate_powerlaw(PowerLawParams::wiki(scaled(nodes)))
}

/// One measured query execution: `(average seconds, result cardinality)`.
pub fn time_plan(engine: &dyn Engine, plan: &LogicalPlan) -> (f64, u64) {
    let t0 = Instant::now();
    let out = engine.run_plan(plan).expect("query must run");
    let first = t0.elapsed();
    let card = out.cardinality();

    let measured = if first > Duration::from_secs(1) { 2 } else { 4 };
    let keep_last = if first > Duration::from_secs(1) { 2 } else { 3 };
    let mut times = Vec::with_capacity(measured);
    for _ in 0..measured {
        let t0 = Instant::now();
        let o = engine.run_plan(plan).expect("query must run");
        times.push(t0.elapsed().as_secs_f64());
        assert_eq!(o.cardinality(), card, "non-deterministic result");
    }
    let tail = &times[times.len() - keep_last.min(times.len())..];
    let avg = tail.iter().sum::<f64>() / tail.len() as f64;
    auto_record(avg);
    (avg, card)
}

/// Plan (under the configured [`gfcl_core::PlanOptions`]) + measure.
pub fn time_query(engine: &dyn Engine, q: &gfcl_core::PatternQuery) -> (f64, u64) {
    let plan = plan_with(q, engine.catalog(), &config().plan).expect("query must plan");
    time_plan(engine, &plan)
}

/// Milliseconds with sensible precision.
pub fn fmt_ms(secs: f64) -> String {
    let ms = secs * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// `a / b` formatted as a speedup factor.
pub fn fmt_factor(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".into()
    } else {
        format!("{:.1}x", a / b)
    }
}

/// Quick sanity check that engines agreed on a result.
pub fn assert_same_count(name: &str, counts: &[u64]) {
    if let Some(first) = counts.first() {
        assert!(
            counts.iter().all(|c| c == first),
            "{name}: engines disagree on cardinality: {counts:?}"
        );
    }
}

/// Column-aligned plain-text table, in the spirit of the paper's tables.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>width$}", width = w)).collect();
            println!("| {} |", joined.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Print a bench banner with the paper reference (and name the bench for
/// the perf-trajectory JSON).
pub fn banner(title: &str, paper_ref: &str) {
    let slug: String = title
        .chars()
        .take_while(|&c| c != ':')
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    if let Ok(mut s) = BENCH_SLUG.lock() {
        *s = Some(slug.trim_matches('-').to_owned());
    }
    println!();
    println!("=== {title} ===");
    println!("reproduces: {paper_ref}");
    println!("dataset scale multiplier GFCL_SCALE = {}", scale());
    println!();
}

/// Extract a count (microbench sanity checks).
pub fn expect_count(o: &QueryOutput) -> u64 {
    o.as_count().expect("count output")
}
