//! All five workloads at toy size, untraced and traced: every metric and
//! workload `BENCHMARK.json` names is emitted under exactly that name, the
//! three `analytic.*` digests agree, and no op fails.

use std::collections::BTreeSet;
use std::path::Path;

use gfcl_perfbench::workload::{run, Report, RunConfig, Sizes, WORKLOADS};

/// The strings following `"name":` inside the top-level array `section` of
/// `BENCHMARK.json` (which nests no arrays inside its sections).
fn names(json: &str, section: &str) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).unwrap_or_else(|| panic!("no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name is a string").to_owned())
        .collect()
}

fn run_toy(workload: &str, trace: bool) -> Report {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    let cfg = RunConfig {
        workload,
        seed: 42,
        seconds: 0.05,
        trace,
        sizes: Sizes::TOY,
        scratch: &scratch,
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.correct(), "{workload}: {:?}", report.failures);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    assert!(report.latency_samples >= 200, "{workload}: p95 needs 200 samples");
    if trace {
        assert!(scratch.join("trace.json").exists());
    }
    report
}

#[test]
fn every_named_metric_and_workload_is_emitted() {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let legal = |n: &String| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads = names(&json, "workloads");
    assert_eq!(workloads, WORKLOADS);
    let end_to_end = names(&json, "end_to_end");
    let per_layer = names(&json, "per_layer");
    let all: Vec<&String> = workloads.iter().chain(&end_to_end).chain(&per_layer).collect();
    assert!(all.iter().all(|n| legal(n)), "{all:?}");
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");
    assert!(end_to_end.contains(&"setup_s".to_owned()));

    let mut digests = Vec::new();
    for workload in WORKLOADS {
        let untraced = run_toy(workload, false);
        let emitted: Vec<&str> = untraced.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(emitted, end_to_end, "{workload}");
        assert!(untraced.end_to_end.iter().all(|m| m.value > 0.0), "{:?}", untraced.end_to_end);
        assert!(untraced.per_layer.is_empty());

        let traced = run_toy(workload, true);
        let emitted: Vec<&str> = traced.per_layer.iter().map(|m| m.name).collect();
        assert_eq!(emitted, per_layer, "{workload}");
        assert!(traced.per_layer.iter().all(|m| m.value.is_finite()));
        assert_eq!(traced.result_digest, untraced.result_digest, "{workload}: same seed");
        let layer = |name: &str| traced.per_layer.iter().find(|m| m.name == name).unwrap().value;
        match workload {
            "analytic.paged_fit" => {
                assert_eq!(layer("pool_hit_ratio"), 1.0);
                assert_eq!(layer("pool_faults_per_op"), 0.0);
                assert!(layer("pool_pins_per_op") > 0.0);
            }
            "analytic.paged_starved" => assert!(layer("pool_evictions_per_op") > 0.0),
            "mixed_rw.store" => {
                assert!(layer("merges") >= 1.0);
                assert!(layer("wal_bytes_per_mutation") > 0.0);
            }
            _ => assert_eq!(layer("pool_pins_per_op"), 0.0),
        }
        if workload.starts_with("analytic.") {
            digests.push(untraced.result_digest);
        }

        let line = gfcl_perfbench::result_line(&untraced, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        assert!(gfcl_perfbench::results_json(&traced).trim_end().ends_with("\"claim\": null\n}"));
    }
    assert_eq!(digests.len(), 3);
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "analytic digests differ: {digests:x?}");
}
