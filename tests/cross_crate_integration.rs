//! Workspace-level integration tests: the full stack (datagen -> storage ->
//! planner -> all four engines) on the benchmark workloads, plus randomized
//! cross-engine equivalence at scale (ARCHITECTURE.md, "Data flow of one
//! query").

use std::sync::Arc;

use gfcl::datagen::{generate_movies, generate_social, MovieParams, SocialParams};
use gfcl::query::{col, eq, gt, lit, PatternQuery};
use gfcl::workloads::ldbc::{self, LdbcParams};
use gfcl::workloads::{job, khop, khop_propless, KhopMode};
use gfcl::{
    ColumnarGraph, Config, Engine, GfClEngine, GfCvEngine, GfRvEngine, RawGraph, RelEngine,
    RowGraph, StorageConfig,
};

/// GF-CL under the process configuration: CI's `parallel` job runs this
/// binary with `GFCL_THREADS=4`.
fn gfcl(graph: Arc<ColumnarGraph>) -> GfClEngine {
    GfClEngine::with_options(graph, Config::from_env().expect("GFCL_* configuration").exec)
}

fn engines(raw: &RawGraph, cfg: StorageConfig) -> Vec<Box<dyn Engine>> {
    let col_graph = Arc::new(ColumnarGraph::build(raw, cfg).unwrap());
    let row_graph = Arc::new(RowGraph::build(raw).unwrap());
    vec![
        Box::new(gfcl(col_graph.clone())),
        Box::new(GfCvEngine::new(col_graph.clone())),
        Box::new(GfRvEngine::new(row_graph)),
        Box::new(RelEngine::new(col_graph)),
    ]
}

fn assert_agree(engines: &[Box<dyn Engine>], name: &str, q: &PatternQuery) -> String {
    let outputs: Vec<(String, String)> = engines
        .iter()
        .map(|e| {
            let out =
                e.execute(q).unwrap_or_else(|err| panic!("{name} failed on {}: {err}", e.name()));
            (e.name().to_owned(), out.canonical())
        })
        .collect();
    for (ename, o) in &outputs[1..] {
        assert_eq!(o, &outputs[0].1, "{name}: {ename} vs {}", outputs[0].0);
    }
    outputs[0].1.clone()
}

#[test]
fn full_ldbc_suite_agrees_across_engines() {
    let persons = 300;
    let raw = generate_social(SocialParams::scale(persons));
    let engines = engines(&raw, StorageConfig::default());
    let params = LdbcParams::for_scale(persons);
    let mut non_empty = 0;
    for (name, q) in ldbc::all_queries(&params) {
        let canon = assert_agree(&engines, &name, &q);
        if !canon.ends_with(":") && !canon.ends_with("[]") {
            non_empty += 1;
        }
    }
    assert!(non_empty >= 10, "most LDBC queries should return data ({non_empty})");
}

#[test]
fn full_job_suite_agrees_across_engines() {
    let raw = generate_movies(MovieParams::scale(250));
    let engines = engines(&raw, StorageConfig::default());
    let mut non_zero = 0;
    for (name, q) in job::all_queries() {
        let outputs: Vec<u64> =
            engines.iter().map(|e| e.execute(&q).unwrap().cardinality()).collect();
        assert!(outputs.iter().all(|&c| c == outputs[0]), "{name}: {outputs:?}");
        if outputs[0] > 0 {
            non_zero += 1;
        }
    }
    // Many JOB-like predicates are highly selective at small scale, but a
    // healthy share must match something for the benchmark to be meaningful.
    assert!(non_zero >= 10, "only {non_zero}/33 JOB queries returned matches");
}

#[test]
fn khop_workloads_agree_across_engines_and_storage_ladder() {
    let raw = generate_social(SocialParams::scale(150));
    for (step, cfg) in StorageConfig::ladder() {
        let engines = engines(&raw, cfg);
        for hops in 1..=2usize {
            for (mode_name, mode) in [
                ("count", KhopMode::CountStar),
                ("filter", KhopMode::LastEdgeGt(1_380_000_000)),
                ("chain", KhopMode::Chain(1_380_000_000)),
            ] {
                let q = khop("Person", "knows", "date", hops, mode, false);
                assert_agree(&engines, &format!("{step}/{mode_name}/{hops}H"), &q);
            }
        }
        let q = khop_propless("Comment", "replyOfComment", 3);
        assert_agree(&engines, &format!("{step}/replyOf 3H"), &q);
    }
}

#[test]
fn forward_and_backward_plans_agree_on_all_engines() {
    let raw = generate_social(SocialParams::scale(120));
    let engines = engines(&raw, StorageConfig::default());
    let fwd = khop("Person", "knows", "date", 2, KhopMode::Chain(1_400_000_000), false);
    let bwd = khop("Person", "knows", "date", 2, KhopMode::Chain(1_400_000_000), true);
    let a = assert_agree(&engines, "fwd", &fwd);
    let b = assert_agree(&engines, "bwd", &bwd);
    assert_eq!(a, b, "plan direction must not change results");
}

#[test]
fn facade_quickstart_flow() {
    // The README quickstart, end to end.
    let raw = RawGraph::example();
    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let engine = gfcl(graph);
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "ORG")
        .edge("e", "WORKAT", "a", "b")
        .filter(gt(col("a", "age"), lit(22)))
        .returns(&[("a", "name"), ("b", "name")])
        .build();
    assert_eq!(engine.execute(&q).unwrap().cardinality(), 2);
}

#[test]
fn seek_queries_match_scan_queries() {
    // ScanPk (GF engines) and scan+filter (REL) must agree.
    let raw = generate_social(SocialParams::scale(200));
    let engines = engines(&raw, StorageConfig::default());
    for pid in [0i64, 57, 199] {
        let q = PatternQuery::builder()
            .node("p", "Person")
            .node("f", "Person")
            .node("c", "Comment")
            .edge("k", "knows", "p", "f")
            .edge("hc", "hasCreator", "c", "f")
            .filter(eq(col("p", "id"), lit(pid)))
            .returns_count()
            .build();
        assert_agree(&engines, &format!("seek p{pid}"), &q);
    }
}
