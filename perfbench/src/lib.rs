//! The repo's benchmark: five seeded, closed-loop workloads driven through
//! the public `gfcl` facade, with end-to-end metrics from an untraced
//! window and per-layer metrics from a traced one. `BENCHMARK.md` beside
//! this crate's manifest is the glossary; `BENCHMARK.json` at the repo
//! root is the contract.

pub mod ops;
pub mod stats;
pub mod trace;
pub mod workload;

use workload::{Metric, Report};

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The one-line result the driver reads: `end_to_end` metrics from an
/// untraced run, `per_layer` metrics from a traced one.
pub fn result_line(r: &Report, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        json_metrics(if trace { &r.per_layer } else { &r.end_to_end })
    )
}

/// The full record of a run, as written to `results.json`. The benchmark
/// defines names and claims no gain, hence `"claim": null`.
pub fn results_json(r: &Report) -> String {
    let stamp: Vec<String> =
        r.stamp.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let failures: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"failed_ops_share\": {:?},\n  \"result_digest\": \"{:016x}\",\n  \
         \"latency_samples\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {},\n  \"stamp\": {{{}}},\n  \
         \"failures\": [{}],\n  \"claim\": null\n}}\n",
        json_str(&r.workload),
        r.seed,
        r.correct(),
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        r.result_digest,
        r.latency_samples,
        json_metrics(&r.end_to_end),
        json_metrics(&r.per_layer),
        stamp.join(", "),
        failures.join(", ")
    )
}
