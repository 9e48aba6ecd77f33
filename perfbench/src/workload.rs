//! The five workloads: set-up, output verification, the measured closed
//! loop (one client, one op at a time, serial execution), and the traced
//! pass with its storage probes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gfcl::columnar::{PageStore, PAGE_SIZE};
use gfcl::datagen::{generate_social, SocialParams};
use gfcl::storage::PoolStats;
use gfcl::{
    ColumnarGraph, Direction, Engine, ExecOptions, GfClEngine, GfCvEngine, GraphStore, QueryOutput,
    StatementOutput, StorageConfig, Value,
};

use crate::ops::{analytic_round, lookup_round, Curation, Expect, MixedGen, MixedOp, Op, Rng};
use crate::stats::{median, percentile, Digest};
use crate::trace::{self_times, Tracer};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

pub const WORKLOADS: [&str; 5] = [
    "lookup.resident",
    "analytic.resident",
    "analytic.paged_fit",
    "analytic.paged_starved",
    "mixed_rw.store",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Spans written to `trace.json`; every recorded span feeds the metrics.
const TRACE_FILE_SPANS: usize = 50_000;

/// GF-CV enumerates GA05's ~13M 2-paths one tuple at a time (18 s at 8 000
/// persons), so the reference pass leaves it to the paged-vs-resident and
/// repeat checks.
const REFERENCE_TOO_SLOW: [&str; 1] = ["GA05"];

/// Dataset and op-pool sizes. [`Sizes::FULL`] is the benchmark; tests run
/// [`Sizes::TOY`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Persons in the social graph of the four read-only workloads.
    pub persons: usize,
    /// Persons in the `mixed_rw.store` baseline.
    pub store_persons: usize,
    /// Average `knows` out-degree; 40 is the generator's default.
    pub knows_degree: f64,
    /// Distinct rounds the measured loop cycles through.
    pub lookup_rounds: usize,
    pub analytic_rounds: usize,
    /// Rounds (from the front of the pool) checked against the references.
    pub lookup_verify_rounds: usize,
    pub analytic_verify_rounds: usize,
    /// Mixed cycles run during each set-up, and checked after it.
    pub store_warm_cycles: usize,
    pub store_verify_cycles: usize,
    /// `store.merge()` after this many cycles.
    pub merge_every: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        persons: 8_000,
        store_persons: 5_000,
        knows_degree: 40.0,
        lookup_rounds: 2_048,
        analytic_rounds: 128,
        lookup_verify_rounds: 64,
        analytic_verify_rounds: 4,
        store_warm_cycles: 8,
        store_verify_cycles: 8,
        merge_every: 400,
    };
    pub const TOY: Sizes = Sizes {
        persons: 200,
        store_persons: 200,
        knows_degree: 8.0,
        lookup_rounds: 16,
        analytic_rounds: 4,
        lookup_verify_rounds: 2,
        analytic_verify_rounds: 1,
        store_warm_cycles: 2,
        store_verify_cycles: 2,
        merge_every: 25,
    };
}

pub struct RunConfig<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Directory for graph files, the store, `results.json`, `trace.json`.
    pub scratch: &'a Path,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one run measured. `per_layer` is filled by traced runs only.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub result_digest: u64,
    /// Read-latency samples behind the percentiles.
    pub latency_samples: usize,
    /// What makes two results comparable: sizes, pool geometry, host.
    pub stamp: Vec<(&'static str, String)>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Counters shared by every phase that executes ops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// One line per failed check.
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        // The first few say what went wrong; the count says how often.
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// `GfClEngine::new`, `ColumnarGraph::open` and the fault injector read
/// `GFCL_*` variables ambiently; a run that inherits one measures some
/// other configuration under this benchmark's names.
fn env_guard() -> Res<()> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("GFCL_")) {
        Some((name, _)) => Err(format!(
            "refusing to run with {} set: unset every GFCL_* variable",
            name.to_string_lossy()
        )
        .into()),
        None => Ok(()),
    }
}

pub fn run(cfg: &RunConfig) -> Res<Report> {
    env_guard()?;
    std::fs::create_dir_all(cfg.scratch)?;
    match cfg.workload {
        "lookup.resident" => run_reads(cfg, lookup_round, None),
        "analytic.resident" => run_reads(cfg, analytic_round, None),
        "analytic.paged_fit" => run_reads(cfg, analytic_round, Some(Pool::Fit)),
        "analytic.paged_starved" => run_reads(cfg, analytic_round, Some(Pool::Starved)),
        "mixed_rw.store" => run_mixed(cfg),
        other => Err(format!("unknown workload `{other}`; one of {WORKLOADS:?}").into()),
    }
}

/// The dataset is fixed, as a benchmark's scale factor is: `--seed` varies
/// the ops run on it, not the graph, so two seeds differ in what they ask
/// and not in what there is to find.
fn social(sizes: &Sizes, persons: usize) -> gfcl::RawGraph {
    generate_social(SocialParams {
        knows_avg_degree: sizes.knows_degree,
        ..SocialParams::scale(persons)
    })
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

const MIB: f64 = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Read-only workloads
// ---------------------------------------------------------------------------

/// Buffer-pool capacity relative to the saved graph file.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pool {
    /// 1.25 × the file's pages: after pre-warming, every pin is a hit.
    Fit,
    /// A quarter of the file's pages: the analytic working set does not
    /// fit, so the window faults and evicts throughout. (Below a fifth the
    /// whole-graph queries flood the clock and every run is a thrash.)
    Starved,
}

impl Pool {
    fn pages(self, file_pages: u64) -> u64 {
        match self {
            Pool::Fit => file_pages + file_pages / 4,
            Pool::Starved => (file_pages / 4).max(2),
        }
    }
}

/// Seconds spent in each set-up phase.
#[derive(Default, Clone, Copy)]
struct Phases {
    datagen: f64,
    build: f64,
    save: f64,
    open: f64,
    total: f64,
}

fn median_of(all: &[Phases], f: impl Fn(&Phases) -> f64) -> f64 {
    median(&mut all.iter().map(f).collect::<Vec<_>>())
}

struct ReadInstance {
    /// The in-memory build: the graph under test for `*.resident`, the
    /// reference the paged graph must agree with otherwise.
    resident: Arc<ColumnarGraph>,
    /// The graph under test.
    graph: Arc<ColumnarGraph>,
    engine: GfClEngine,
    stored_bytes: u64,
    file_pages: u64,
    pool_pages: u64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_secs_f64();
    out
}

/// Set-up as a user meets it: generate, build, (save, open), and a warm-up
/// round. For [`Pool::Fit`] the warm-up also pins every data page once, so
/// the measured window starts with the whole file resident.
fn setup_reads(
    cfg: &RunConfig,
    paging: Option<Pool>,
    warm: &[Op],
    repeat: usize,
) -> Res<(ReadInstance, Phases)> {
    let mut ph = Phases::default();
    let t0 = Instant::now();
    let raw = timed(&mut ph.datagen, || social(&cfg.sizes, cfg.sizes.persons));
    let resident =
        Arc::new(timed(&mut ph.build, || ColumnarGraph::build(&raw, StorageConfig::default()))?);
    drop(raw);
    // (graph under test, bytes stored, file pages, pool pages)
    let (graph, stored_bytes, file_pages, pool_pages) = match paging {
        None => (Arc::clone(&resident), resident.memory_breakdown().total() as u64, 0, 0),
        Some(pool) => {
            let path = cfg.scratch.join(format!("graph-{repeat}.gfcl"));
            timed(&mut ph.save, || resident.save(&path))?;
            let file_bytes = std::fs::metadata(&path)?.len();
            let file_pages = file_bytes.div_ceil(PAGE_SIZE as u64);
            let pool_pages = pool.pages(file_pages);
            let config = StorageConfig {
                buffer_pool_pages: pool_pages as usize,
                ..StorageConfig::default()
            };
            let graph = timed(&mut ph.open, || ColumnarGraph::open(&path, config))?;
            (Arc::new(graph), file_bytes, file_pages, pool_pages)
        }
    };
    let inst = ReadInstance {
        engine: GfClEngine::with_options(Arc::clone(&graph), ExecOptions::serial()),
        resident,
        graph,
        stored_bytes,
        file_pages,
        pool_pages,
    };
    if paging == Some(Pool::Fit) {
        let pool = inst.graph.buffer_pool().ok_or("reopened graph has no buffer pool")?;
        // Data pages are numbered from 1; the first page past them errs.
        let data_pages = (1..).take_while(|&p| pool.try_pin(p).is_ok()).count() as u64;
        if data_pages == 0 || data_pages >= inst.file_pages {
            return Err(format!("pre-warm pinned {data_pages} of {} pages", inst.file_pages).into());
        }
    }
    for op in warm {
        gfcl::query_on(&inst.engine, &op.text)?;
    }
    ph.total = t0.elapsed().as_secs_f64();
    Ok((inst, ph))
}

/// What the verification pass yields: a fixed op sequence from a fixed
/// pool state, so the digest and the pool counters repeat for a seed.
struct Verified {
    digest: Digest,
    ops: u64,
    pool: PoolStats,
}

/// Run the first `rounds` of the pool outside any timed window: fold every
/// output into the digest, record its cardinality for the window's repeat
/// check, and compare it with the references — GF-CL on the resident build
/// (paged workloads) and GF-CV (first round; one pass of each template).
/// The references read the resident build, so the buffer pool's counters
/// move only for the graph under test.
fn verify_reads(
    inst: &ReadInstance,
    pool: &[Vec<Op>],
    rounds: usize,
    expected: &mut [Option<u64>],
    tally: &mut Tally,
) -> Verified {
    let paged = !Arc::ptr_eq(&inst.graph, &inst.resident);
    let resident = GfClEngine::with_options(Arc::clone(&inst.resident), ExecOptions::serial());
    let volcano = GfCvEngine::new(Arc::clone(&inst.resident));
    let mut digest = Digest::default();
    let before = pool_stats(&inst.graph);
    let verified = pool.iter().take(rounds).flatten().count();
    for (slot, op) in pool.iter().flatten().take(verified).enumerate() {
        tally.attempted += 1;
        let out = match gfcl::query_on(&inst.engine, &op.text) {
            Ok(out) => out,
            Err(e) => {
                tally.fail(format!("{}: {e}", op.name));
                continue;
            }
        };
        let canonical = out.canonical();
        digest.fold(&canonical);
        expected[slot] = Some(out.cardinality());
        let mut references: Vec<(&str, &dyn Engine)> = Vec::new();
        if paged {
            references.push(("resident GF-CL", &resident));
        }
        if slot < pool[0].len() && !REFERENCE_TOO_SLOW.contains(&op.name.as_str()) {
            references.push(("GF-CV", &volcano));
        }
        for (who, engine) in references {
            match gfcl::query_on(engine, &op.text) {
                Ok(reference) if reference.canonical() == canonical => {}
                Ok(_) => tally.fail(format!("{}: output differs from {who}", op.name)),
                Err(e) => tally.fail(format!("{}: {who} failed: {e}", op.name)),
            }
        }
    }
    let now = pool_stats(&inst.graph);
    Verified {
        digest,
        ops: verified as u64,
        pool: PoolStats {
            faults: now.faults - before.faults,
            hits: now.hits - before.hits,
            evictions: now.evictions - before.evictions,
            pages_skipped: now.pages_skipped - before.pages_skipped,
        },
    }
}

/// Read ops per segment: the fewest that leave ten beyond a p95.
const SEGMENT_READS: usize = 200;

/// A run of whole rounds inside a window. The sandbox's other tenants slow
/// a few hundred milliseconds at a time, so every end-to-end timing is the
/// median over segments, which those bursts do not move.
struct Segment {
    ops_per_s: f64,
    p50_ns: u64,
    p95_ns: u64,
}

/// Latencies and counts of one measured window.
#[derive(Default)]
struct Window {
    segments: Vec<Segment>,
    reads: u64,
    commit_ns: Vec<u64>,
    merge_ns: Vec<u64>,
    /// Result rows of the read ops.
    rows: u64,
}

impl Window {
    /// Close a segment of `ops` ops that took `wall_s`; `read_ns` holds its
    /// read latencies and is left empty for the next one.
    fn close_segment(&mut self, read_ns: &mut Vec<u64>, ops: u64, wall_s: f64) -> Res<()> {
        read_ns.sort_unstable();
        let (Some(p50_ns), Some(p95_ns)) = (percentile(read_ns, 0.5), percentile(read_ns, 0.95))
        else {
            return Err(
                format!("a segment of {} reads is too short for a p95", read_ns.len()).into()
            );
        };
        self.segments.push(Segment { ops_per_s: ops as f64 / wall_s, p50_ns, p95_ns });
        self.reads += read_ns.len() as u64;
        read_ns.clear();
        Ok(())
    }

    fn median_of(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        median(&mut self.segments.iter().map(f).collect::<Vec<_>>())
    }

    fn ops_per_s(&self) -> f64 {
        self.median_of(|s| s.ops_per_s)
    }
}

/// `gfcl_frontend::compile` with the error conversion `gfcl::query_on`
/// applies, so the span covers what the facade does.
fn compile(text: &str, catalog: &gfcl::Catalog) -> gfcl::Result<gfcl::PatternQuery> {
    Ok(gfcl::frontend::compile(text, catalog)?)
}

/// One read op through the facade, or — traced — through the same three
/// calls `gfcl::query_on` makes, with a span around each.
fn read_op(
    engine: &GfClEngine,
    text: &str,
    tracer: Option<(&mut Tracer, u64)>,
) -> gfcl::Result<QueryOutput> {
    let Some((tr, op)) = tracer else { return gfcl::query_on(engine, text) };
    let root = tr.open(op, "op", None);
    let out = (|| {
        let q = tr.child(op, "frontend", root, || compile(text, engine.catalog()))?;
        let plan = tr.child(op, "plan", root, || engine.plan(&q))?;
        tr.child(op, "exec", root, || engine.run_plan(&plan))
    })();
    tr.close(root);
    out
}

/// The closed loop of the read-only workloads: whole segments of whole
/// rounds, cycling the pool, until `seconds` have passed. Each op's
/// cardinality must repeat what the verification pass (or the op's first
/// execution) returned.
fn read_window(
    engine: &GfClEngine,
    pool: &[Vec<Op>],
    expected: &mut [Option<u64>],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Res<Window> {
    let mut w = Window::default();
    let per_round = pool[0].len();
    let segment_rounds = SEGMENT_READS.div_ceil(per_round);
    let mut read_ns = Vec::new();
    let mut rounds = (0..pool.len()).cycle();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let segment = Instant::now();
        for r in rounds.by_ref().take(segment_rounds) {
            for (i, op) in pool[r].iter().enumerate() {
                let id = tally.attempted;
                tally.attempted += 1;
                let t = Instant::now();
                let out = read_op(engine, &op.text, tracer.as_deref_mut().map(|tr| (tr, id)));
                read_ns.push(t.elapsed().as_nanos() as u64);
                match out {
                    Ok(out) => {
                        let rows = out.cardinality();
                        w.rows += rows;
                        let want = expected[r * per_round + i].get_or_insert(rows);
                        if *want != rows {
                            tally.fail(format!("{}: {rows} rows, {want} before", op.name));
                        }
                    }
                    Err(e) => tally.fail(format!("{}: {e}", op.name)),
                }
            }
        }
        let ops = read_ns.len() as u64;
        w.close_segment(&mut read_ns, ops, segment.elapsed().as_secs_f64())?;
    }
    Ok(w)
}

fn pool_stats(graph: &ColumnarGraph) -> PoolStats {
    graph.buffer_pool().map(|p| p.stats()).unwrap_or_default()
}

fn run_reads(
    cfg: &RunConfig,
    round: fn(&mut Rng, &Curation) -> Vec<Op>,
    paging: Option<Pool>,
) -> Res<Report> {
    let s = &cfg.sizes;
    let lookup = cfg.workload == "lookup.resident";
    let (rounds, verify_rounds) = if lookup {
        (s.lookup_rounds, s.lookup_verify_rounds)
    } else {
        (s.analytic_rounds, s.analytic_verify_rounds)
    };
    // The op pool is the load generator's, made before any set-up is timed.
    let curation = Curation::of(&social(s, s.persons))?;
    let mut rng = Rng::new(cfg.seed);
    let pool: Vec<Vec<Op>> = (0..rounds).map(|_| round(&mut rng, &curation)).collect();

    let mut phases = Vec::new();
    let mut inst = None;
    for repeat in 0..SETUP_REPEATS {
        drop(inst.take()); // one graph in memory at a time
        let (i, ph) = setup_reads(cfg, paging, &pool[0], repeat)?;
        phases.push(ph);
        inst = Some(i);
    }
    let inst = inst.expect("SETUP_REPEATS > 0");

    let mut tally = Tally::default();
    let mut expected = vec![None; rounds * pool[0].len()];
    let verified = verify_reads(&inst, &pool, verify_rounds, &mut expected, &mut tally);

    // Untraced window: the end-to-end numbers. A traced run halves the
    // time between this and the traced pass.
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let w = read_window(&inst.engine, &pool, &mut expected, seconds, None, &mut tally)?;

    let mut stamp = stamp(cfg, s.persons, &inst.graph);
    stamp.extend([
        ("pool_rounds", rounds.to_string()),
        ("ops_per_round", pool[0].len().to_string()),
        ("file_pages", inst.file_pages.to_string()),
        ("pool_pages", inst.pool_pages.to_string()),
        ("verified_ops", verified.ops.to_string()),
        ("window_segments", w.segments.len().to_string()),
    ]);

    let mut per_layer = Vec::new();
    if cfg.trace {
        let mut tracer = Tracer::default();
        let tw = read_window(
            &inst.engine,
            &pool,
            &mut expected,
            seconds,
            Some(&mut tracer),
            &mut tally,
        )?;
        let mut layers = LayerMetrics::default();
        layers.spans(&tracer, &tw);
        layers.pool(verified.pool, verified.ops);
        layers.probes(&inst.graph)?;
        layers.setup(&phases);
        layers.trace_overhead_pct = (1.0 - tw.ops_per_s() / w.ops_per_s()) * 100.0;
        per_layer = layers.metrics();
        tracer.write(&cfg.scratch.join("trace.json"), TRACE_FILE_SPANS)?;
    }
    for repeat in 0..SETUP_REPEATS {
        let _ = std::fs::remove_file(cfg.scratch.join(format!("graph-{repeat}.gfcl")));
    }
    Ok(Report {
        workload: cfg.workload.to_owned(),
        seed: cfg.seed,
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end: end_to_end(&w, median_of(&phases, |p| p.total), inst.stored_bytes),
        per_layer,
        result_digest: verified.digest.0,
        latency_samples: w.reads as usize,
        stamp,
        failures: tally.failures,
    })
}

fn end_to_end(w: &Window, setup_s: f64, stored_bytes: u64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", setup_s),
        metric("ops_per_s", "op/s", w.ops_per_s()),
        metric("latency_p50_ms", "ms", w.median_of(|s| s.p50_ns as f64) / 1e6),
        metric("latency_p95_ms", "ms", w.median_of(|s| s.p95_ns as f64) / 1e6),
        metric("stored_mb", "MiB", stored_bytes as f64 / MIB),
    ]
}

fn stamp(cfg: &RunConfig, persons: usize, graph: &ColumnarGraph) -> Vec<(&'static str, String)> {
    let cat = graph.catalog();
    let vertices: usize = (0..cat.vertex_label_count()).map(|l| graph.vertex_count(l as _)).sum();
    let edges: usize = (0..cat.edge_label_count()).map(|l| graph.edge_count(l as _)).sum();
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("commit", commit()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", cfg.trace.to_string()),
        ("available_parallelism", parallelism.to_string()),
        ("workers", "1".to_owned()),
        ("env_guard", "passed: no GFCL_* variable set".to_owned()),
        ("setup_repeats", SETUP_REPEATS.to_string()),
        ("persons", persons.to_string()),
        ("vertices", vertices.to_string()),
        ("edges", edges.to_string()),
    ]
}

/// The checked-out commit, read from `.git` without starting a process;
/// `unknown` in an exported tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced runs)
// ---------------------------------------------------------------------------

/// Every per-layer metric of `BENCHMARK.json`. A layer a workload does not
/// exercise stays 0: no pool without paging, no WAL without a store.
#[derive(Default)]
struct LayerMetrics {
    frontend_us_per_op: f64,
    plan_us_per_op: f64,
    exec_us_per_op: f64,
    exec_ns_per_result_row: f64,
    column_read_ns_per_value: f64,
    adj_ns_per_edge: f64,
    edge_prop_ns_per_value: f64,
    pool_pins_per_op: f64,
    pool_hit_ratio: f64,
    pool_faults_per_op: f64,
    pool_evictions_per_op: f64,
    pool_pages_skipped_per_op: f64,
    datagen_s: f64,
    build_s: f64,
    save_s: f64,
    open_s: f64,
    commit_p50_ms: f64,
    commit_p95_ms: f64,
    snapshot_ns: f64,
    merge_ms: f64,
    merges: f64,
    wal_bytes_per_mutation: f64,
    reopen_s: f64,
    trace_overhead_pct: f64,
}

impl LayerMetrics {
    /// Self time of each traced layer, per read op.
    fn spans(&mut self, tracer: &Tracer, w: &Window) {
        let times = self_times(tracer.spans());
        let reads = w.reads as f64;
        let self_us = |name: &str| times.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e3);
        self.frontend_us_per_op = self_us("frontend") / reads;
        self.plan_us_per_op = self_us("plan") / reads;
        self.exec_us_per_op = self_us("exec") / reads;
        self.exec_ns_per_result_row = self_us("exec") * 1e3 / (w.rows.max(1)) as f64;
        if let Some(snap) = times.get("snapshot") {
            self.snapshot_ns = snap.self_ns as f64 / snap.spans as f64;
        }
    }

    fn pool(&mut self, s: PoolStats, ops: u64) {
        let pins = s.hits + s.faults;
        let ops = ops as f64;
        self.pool_pins_per_op = pins as f64 / ops;
        self.pool_hit_ratio = if pins == 0 { 0.0 } else { s.hits as f64 / pins as f64 };
        self.pool_faults_per_op = s.faults as f64 / ops;
        self.pool_evictions_per_op = s.evictions as f64 / ops;
        self.pool_pages_skipped_per_op = s.pages_skipped as f64 / ops;
    }

    fn setup(&mut self, phases: &[Phases]) {
        self.datagen_s = median_of(phases, |p| p.datagen);
        self.build_s = median_of(phases, |p| p.build);
        self.save_s = median_of(phases, |p| p.save);
        self.open_s = median_of(phases, |p| p.open);
    }

    fn store(&mut self, w: &Window) {
        let mut commits = w.commit_ns.clone();
        commits.sort_unstable();
        self.commit_p50_ms = percentile(&commits, 0.5).map_or(0.0, |v| v as f64 / 1e6);
        self.commit_p95_ms = percentile(&commits, 0.95).map_or(0.0, |v| v as f64 / 1e6);
        self.merges = w.merge_ns.len() as f64;
        if !w.merge_ns.is_empty() {
            self.merge_ms =
                median(&mut w.merge_ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>());
        }
    }

    /// Storage probes: sequential reads through the public accessors, the
    /// median of three passes each, outside every end-to-end window.
    fn probes(&mut self, g: &ColumnarGraph) -> Res<()> {
        let cat = g.catalog();
        let person = cat.vertex_label_id("Person")?;
        let comment = cat.vertex_label_id("Comment")?;
        let knows = cat.edge_label_id("knows")?;
        let date = cat.edge_prop_idx(knows, "date")?;
        let columns = [
            g.vertex_prop(person, cat.vertex_prop_idx(person, "id")?),
            g.vertex_prop(comment, cat.vertex_prop_idx(comment, "creationDate")?),
        ];
        let per_item = |f: &dyn Fn() -> Res<u64>| -> Res<f64> {
            let mut passes = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                let items = f()?;
                passes.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
            }
            Ok(median(&mut passes))
        };
        self.column_read_ns_per_value = per_item(&|| {
            let mut sum = 0i64;
            for col in columns {
                for i in 0..col.len() {
                    sum = sum.wrapping_add(col.get_i64(i).unwrap_or(0));
                }
            }
            std::hint::black_box(sum);
            Ok(columns.iter().map(|c| c.len() as u64).sum())
        })?;
        let persons = g.vertex_count(person) as u64;
        let lists = |dir| g.adj(knows, dir).as_csr().ok_or("knows is stored as a CSR");
        self.adj_ns_per_edge = per_item(&|| {
            let (mut sum, mut edges) = (0u64, 0u64);
            for dir in [Direction::Fwd, Direction::Bwd] {
                let csr = lists(dir)?;
                for v in 0..persons {
                    for (_, nbr) in csr.iter_list(v) {
                        sum = sum.wrapping_add(nbr);
                        edges += 1;
                    }
                }
            }
            std::hint::black_box(sum);
            Ok(edges)
        })?;
        self.edge_prop_ns_per_value = per_item(&|| {
            let mut values = 0u64;
            for dir in [Direction::Fwd, Direction::Bwd] {
                let csr = lists(dir)?;
                for v in 0..persons {
                    let (start, len) = csr.list(v);
                    for pos in start..start + len as u64 {
                        std::hint::black_box(g.read_edge_prop(knows, dir, v, Some(pos), date)?);
                        values += 1;
                    }
                }
            }
            Ok(values)
        })?;
        Ok(())
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("frontend_us_per_op", "us", self.frontend_us_per_op),
            metric("plan_us_per_op", "us", self.plan_us_per_op),
            metric("exec_us_per_op", "us", self.exec_us_per_op),
            metric("exec_ns_per_result_row", "ns", self.exec_ns_per_result_row),
            metric("column_read_ns_per_value", "ns", self.column_read_ns_per_value),
            metric("adj_ns_per_edge", "ns", self.adj_ns_per_edge),
            metric("edge_prop_ns_per_value", "ns", self.edge_prop_ns_per_value),
            metric("pool_pins_per_op", "count", self.pool_pins_per_op),
            metric("pool_hit_ratio", "ratio", self.pool_hit_ratio),
            metric("pool_faults_per_op", "count", self.pool_faults_per_op),
            metric("pool_evictions_per_op", "count", self.pool_evictions_per_op),
            metric("pool_pages_skipped_per_op", "count", self.pool_pages_skipped_per_op),
            metric("datagen_s", "s", self.datagen_s),
            metric("build_s", "s", self.build_s),
            metric("save_s", "s", self.save_s),
            metric("open_s", "s", self.open_s),
            metric("commit_p50_ms", "ms", self.commit_p50_ms),
            metric("commit_p95_ms", "ms", self.commit_p95_ms),
            metric("snapshot_ns", "ns", self.snapshot_ns),
            metric("merge_ms", "ms", self.merge_ms),
            metric("merges", "count", self.merges),
            metric("wal_bytes_per_mutation", "B", self.wal_bytes_per_mutation),
            metric("reopen_s", "s", self.reopen_s),
            metric("trace_overhead_pct", "%", self.trace_overhead_pct),
        ]
    }
}

// ---------------------------------------------------------------------------
// mixed_rw.store
// ---------------------------------------------------------------------------

/// The store's WAL (`ARCHITECTURE.md`, "Mutations, WAL & snapshots").
const WAL_FILE: &str = "graph.wal";

struct StoreInstance {
    store: GraphStore,
    gen: MixedGen,
    dir: PathBuf,
}

/// `GraphStore::create` on disk plus warm-up cycles. The store fsyncs
/// every commit and every merge step; that policy is the store's own.
fn setup_store(
    cfg: &RunConfig,
    curation: &Curation,
    repeat: usize,
) -> Res<(StoreInstance, Phases)> {
    let mut ph = Phases::default();
    let dir = cfg.scratch.join(format!("store-{repeat}"));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let raw = timed(&mut ph.datagen, || social(&cfg.sizes, cfg.sizes.store_persons));
    // `create` builds, saves and starts the WAL in one call.
    let store = timed(&mut ph.build, || GraphStore::create(&dir, &raw, StorageConfig::default()))?;
    drop(raw);
    let mut gen = MixedGen::new(cfg.seed, curation.clone());
    for _ in 0..cfg.sizes.store_warm_cycles {
        for op in gen.cycle() {
            gfcl::execute_statement(&store, &op.text)?;
        }
    }
    ph.total = t0.elapsed().as_secs_f64();
    Ok((StoreInstance { store, gen, dir }, ph))
}

/// One op of the mixed loop. Untraced it is one `gfcl::execute_statement`;
/// traced, reads take the same steps one by one under spans and writes get
/// a single `commit` span.
fn mixed_op(
    store: &GraphStore,
    op: &MixedOp,
    tracer: Option<(&mut Tracer, u64)>,
) -> gfcl::Result<StatementOutput> {
    let Some((tr, id)) = tracer else { return gfcl::execute_statement(store, &op.text) };
    if op.expect == Expect::Commit {
        let root = tr.open(id, "commit", None);
        let out = gfcl::execute_statement(store, &op.text);
        tr.close(root);
        return out;
    }
    let root = tr.open(id, "op", None);
    let out = (|| {
        let snapshot = tr.child(id, "snapshot", root, || store.snapshot());
        let q = tr.child(id, "frontend", root, || compile(&op.text, snapshot.catalog()))?;
        let engine = GfClEngine::with_snapshot_options(&snapshot, ExecOptions::serial());
        let plan = tr.child(id, "plan", root, || engine.plan(&q))?;
        tr.child(id, "exec", root, || engine.run_plan(&plan))
    })();
    tr.close(root);
    out.map(StatementOutput::Query)
}

/// Does the statement's result match what the generator knows about it?
fn check_mixed(op: &MixedOp, out: &gfcl::Result<StatementOutput>) -> Result<(), String> {
    match (out, &op.expect) {
        (Err(e), _) => Err(e.to_string()),
        (Ok(StatementOutput::Mutation { ops, .. }), Expect::Commit) if *ops >= 1 => Ok(()),
        (Ok(StatementOutput::Query(_)), Expect::Read) => Ok(()),
        (Ok(StatementOutput::Query(q)), Expect::Rows(n)) if q.cardinality() == *n => Ok(()),
        (Ok(StatementOutput::Query(QueryOutput::Rows { rows, .. })), Expect::Cell(want))
            if *rows == [vec![Value::String(want.clone())]] =>
        {
            Ok(())
        }
        (Ok(other), want) => Err(format!("expected {want:?}, got {other:?}")),
    }
}

/// The closed loop of `mixed_rw.store`: whole segments until `seconds`
/// have passed. A segment is `merge_every` cycles and the merge that
/// follows them; the merge stalls the single client, so its time is in the
/// segment's wall clock, but it is not an op.
fn mixed_window(
    inst: &mut StoreInstance,
    seconds: f64,
    merge_every: usize,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Res<Window> {
    let mut w = Window::default();
    let mut read_ns = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let segment = Instant::now();
        let commits = w.commit_ns.len();
        for _ in 0..merge_every {
            for op in inst.gen.cycle() {
                let id = tally.attempted;
                tally.attempted += 1;
                let t = Instant::now();
                let out = mixed_op(&inst.store, &op, tracer.as_deref_mut().map(|tr| (tr, id)));
                let ns = t.elapsed().as_nanos() as u64;
                if op.expect == Expect::Commit {
                    w.commit_ns.push(ns);
                } else {
                    read_ns.push(ns);
                    if let Ok(StatementOutput::Query(q)) = &out {
                        w.rows += q.cardinality();
                    }
                }
                if let Err(e) = check_mixed(&op, &out) {
                    tally.fail(format!("{}: {e}", op.name));
                }
            }
        }
        let span = tracer.as_deref_mut().map(|tr| tr.open(tally.attempted, "merge", None));
        let t = Instant::now();
        inst.store.merge()?;
        w.merge_ns.push(t.elapsed().as_nanos() as u64);
        if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
            tr.close(span);
        }
        let ops = (read_ns.len() + w.commit_ns.len() - commits) as u64;
        w.close_segment(&mut read_ns, ops, segment.elapsed().as_secs_f64())?;
    }
    Ok(w)
}

/// Queries whose answers the live store and its reopened copy must share.
fn store_checks(gen: &MixedGen) -> Vec<String> {
    let newest = gen.newest();
    let mut out = vec![
        "MATCH (p:Person) RETURN count(*)".to_owned(),
        "MATCH (p:Person)-[k:knows]->(f:Person) RETURN count(*)".to_owned(),
        "MATCH (p:Person) RETURN p.browserUsed, count(*), max(p.id)".to_owned(),
        "MATCH (p:Person)-[k:knows]->(f:Person) RETURN f.gender, count(*), max(k.date)".to_owned(),
    ];
    for id in [newest, newest - 1, newest - 2] {
        out.push(format!(
            "MATCH (p:Person)-[k:knows]->(f:Person) WHERE p.id = {id} RETURN p.lName, f.id, k.date"
        ));
    }
    out
}

fn run_mixed(cfg: &RunConfig) -> Res<Report> {
    let s = &cfg.sizes;
    let curation = Curation::of(&social(s, s.store_persons))?;
    let mut phases = Vec::new();
    let mut inst = None;
    for repeat in 0..SETUP_REPEATS {
        drop(inst.take());
        let (i, ph) = setup_store(cfg, &curation, repeat)?;
        phases.push(ph);
        inst = Some(i);
    }
    let mut inst = inst.expect("SETUP_REPEATS > 0");
    let mut tally = Tally::default();

    // Verification cycles, untimed: every read also runs on GF-CV over the
    // same snapshot, and folds into the digest. A fixed number of commits,
    // so the bytes they append to the WAL repeat for a seed.
    let mut digest = Digest::default();
    let wal = inst.dir.join(WAL_FILE);
    let wal_before = std::fs::metadata(&wal)?.len();
    let mut verified_commits = 0;
    for _ in 0..s.store_verify_cycles {
        for op in inst.gen.cycle() {
            tally.attempted += 1;
            let snapshot = inst.store.snapshot();
            let out = gfcl::execute_statement(&inst.store, &op.text);
            if let Err(e) = check_mixed(&op, &out) {
                tally.fail(format!("{}: {e}", op.name));
            }
            verified_commits += u64::from(op.expect == Expect::Commit);
            if let Ok(StatementOutput::Query(q)) = out {
                let canonical = q.canonical();
                digest.fold(&canonical);
                match gfcl::query_on(&GfCvEngine::with_snapshot(&snapshot), &op.text) {
                    Ok(reference) if reference.canonical() == canonical => {}
                    Ok(_) => tally.fail(format!("{}: output differs from GF-CV", op.name)),
                    Err(e) => tally.fail(format!("{}: GF-CV failed: {e}", op.name)),
                }
            }
        }
    }
    let wal_bytes = std::fs::metadata(&wal)?.len() - wal_before;
    // Graph file plus the WAL of the warm-up and verification cycles.
    let stored_bytes = dir_bytes(&inst.dir)?;

    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let w = mixed_window(&mut inst, seconds, s.merge_every, None, &mut tally)?;
    let mut stamp = stamp(cfg, s.store_persons, inst.store.snapshot().base());
    stamp.extend([
        ("merge_every_cycles", s.merge_every.to_string()),
        ("window_segments", w.segments.len().to_string()),
        ("window_commits", w.commit_ns.len().to_string()),
        ("flush_policy", "fsync per commit and per merge step (the store's own)".to_owned()),
    ]);

    let mut layers = LayerMetrics {
        wal_bytes_per_mutation: wal_bytes as f64 / verified_commits.max(1) as f64,
        ..LayerMetrics::default()
    };
    if cfg.trace {
        let mut tracer = Tracer::default();
        let tw = mixed_window(&mut inst, seconds, s.merge_every, Some(&mut tracer), &mut tally)?;
        layers.spans(&tracer, &tw);
        layers.store(&tw);
        layers.probes(inst.store.snapshot().base())?;
        layers.setup(&phases);
        layers.trace_overhead_pct = (1.0 - tw.ops_per_s() / w.ops_per_s()) * 100.0;
        tracer.write(&cfg.scratch.join("trace.json"), TRACE_FILE_SPANS)?;
    }

    // A few more commits, so the log the reopen replays is not the empty
    // one the window's last merge left. Then reopen from the directory
    // alone and require the same answers.
    for _ in 0..s.store_verify_cycles {
        for op in inst.gen.cycle() {
            tally.attempted += 1;
            if let Err(e) = check_mixed(&op, &gfcl::execute_statement(&inst.store, &op.text)) {
                tally.fail(format!("{}: {e}", op.name));
            }
        }
    }
    let checks = store_checks(&inst.gen);
    let answers = |store: &GraphStore| -> Vec<gfcl::Result<StatementOutput>> {
        checks.iter().map(|q| gfcl::execute_statement(store, q)).collect()
    };
    let live = answers(&inst.store);
    let StoreInstance { store, dir, .. } = inst;
    drop(store);
    let t = Instant::now();
    let reopened = GraphStore::open(&dir, StorageConfig::default())?;
    layers.reopen_s = t.elapsed().as_secs_f64();
    tally.attempted += checks.len() as u64;
    for ((q, live), reopened) in checks.iter().zip(live).zip(answers(&reopened)) {
        match (live, reopened) {
            (Ok(StatementOutput::Query(a)), Ok(StatementOutput::Query(b)))
                if a.canonical() == b.canonical() => {}
            (a, b) => tally.fail(format!("reopened store disagrees on `{q}`: {a:?} vs {b:?}")),
        }
    }
    drop(reopened);
    for repeat in 0..SETUP_REPEATS {
        let _ = std::fs::remove_dir_all(cfg.scratch.join(format!("store-{repeat}")));
    }
    Ok(Report {
        workload: cfg.workload.to_owned(),
        seed: cfg.seed,
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end: end_to_end(&w, median_of(&phases, |p| p.total), stored_bytes),
        per_layer: if cfg.trace { layers.metrics() } else { Vec::new() },
        result_digest: digest.0,
        latency_samples: w.reads as usize,
        stamp,
        failures: tally.failures,
    })
}
