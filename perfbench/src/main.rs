//! `gfcl-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name with its unit, writes
//! `results.json` (and `trace.json` when traced) under
//! `<target dir>/benchmark/<workload>/`, and ends its standard output with
//! the one-line JSON result. Exits non-zero when any output check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use gfcl_perfbench::workload::{run, Res, RunConfig, Sizes, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]).into());
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse()?),
            "--trace" => trace = Some(value.parse::<u8>()? != 0),
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    let usage = || {
        format!(
            "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
            WORKLOADS.join("|")
        )
    };
    let args = Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    Ok(args)
}

/// `<target dir>/benchmark/<workload>`, found from the executable's own
/// path (`<target dir>/release/gfcl-benchmark`) so nothing is read from
/// the environment and everything written stays beside the build.
fn scratch_dir(workload: &str) -> Res<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe.parent().and_then(|p| p.parent()).ok_or("executable has no target dir")?;
    Ok(target.join("benchmark").join(workload))
}

fn main_inner() -> Res<bool> {
    let args = parse_args()?;
    let scratch = scratch_dir(&args.workload)?;
    let report = run(&RunConfig {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::FULL,
        scratch: &scratch,
    })?;

    println!(
        "workload {} seed {} digest {:016x}",
        report.workload, report.seed, report.result_digest
    );
    for (k, v) in &report.stamp {
        println!("  stamp {k} = {v}");
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>16.6} ratio ({} of {} ops; {} read-latency samples)",
        "failed_ops_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        report.latency_samples
    );
    for f in &report.failures {
        println!("  FAILED {f}");
    }
    std::fs::write(scratch.join("results.json"), gfcl_perfbench::results_json(&report))?;
    println!("{}", gfcl_perfbench::result_line(&report, args.trace));
    Ok(report.correct())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gfcl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
