//! Environment knobs of the executor: the `GFCL_NO_PUSHDOWN` escape
//! hatch plus the validated `GFCL_MORSEL` / `GFCL_THREADS` /
//! `GFCL_TIME_LIMIT_MS` / `GFCL_MEM_LIMIT_MB` pattern (garbage errors at
//! execution naming the variable, it never silently runs a default).
//! The cases drive the pure `from_vars` bodies with an explicit variable
//! table; no test mutates the process environment (the one-line
//! `from_env` wrappers are covered by the CI jobs that export
//! `GFCL_THREADS`).

use std::sync::Arc;

use gfcl_core::plan::{plan_with, PlanOptions, PlanStep};
use gfcl_core::query::{col, ge, lit, PatternQuery};
use gfcl_core::{Engine, ExecOptions, GfClEngine};
use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};

/// A variable lookup over a fixed table.
fn vars<'a>(table: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
    move |name| table.iter().find(|(k, _)| *k == name).map(|(_, v)| (*v).to_owned())
}

fn filtered_query() -> PatternQuery {
    PatternQuery::builder()
        .node("a", "PERSON")
        .filter(ge(col("a", "age"), lit(40)))
        .returns_count()
        .build()
}

fn pushed_len(p: &gfcl_core::LogicalPlan) -> usize {
    match &p.steps[0] {
        PlanStep::ScanAll { pushed, .. } => pushed.len(),
        s => panic!("expected a scan, got {s:?}"),
    }
}

/// Run the example query under `opts`; the result the knob tests inspect.
fn run(opts: ExecOptions) -> gfcl_common::Result<gfcl_core::QueryOutput> {
    let graph = ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap();
    GfClEngine::with_options(Arc::new(graph), opts).execute(&filtered_query())
}

/// Every garbage value of `name` must map to the invalid sentinel
/// (`is_sentinel`) and be rejected at execution time with a plan error
/// naming the knob — never silently run a default.
fn assert_rejected(name: &str, garbage: &[&str], is_sentinel: impl Fn(&ExecOptions) -> bool) {
    for g in garbage {
        let opts = ExecOptions::from_vars(vars(&[(name, g)]));
        assert!(is_sentinel(&opts), "{name}={g:?} must map to the invalid sentinel: {opts:?}");
        let err = run(opts).unwrap_err();
        assert!(matches!(err, gfcl_common::Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains(name), "{err}");
    }
}

#[test]
fn gfcl_no_pushdown_disables_the_rewrite() {
    let catalog = RawGraph::example().catalog;
    let plan_under = |table: &[(&str, &str)]| {
        plan_with(&filtered_query(), &catalog, &PlanOptions::from_vars(vars(table))).unwrap()
    };
    // Default: the scan-node filter is pushed.
    assert_eq!(pushed_len(&plan_under(&[])), 1);

    let no_push = plan_under(&[("GFCL_NO_PUSHDOWN", "1")]);
    assert_eq!(pushed_len(&no_push), 0);
    assert!(no_push.steps.iter().any(|s| matches!(s, PlanStep::Filter { .. })));

    // "0" and empty mean "not disabled".
    for off in ["0", "", " "] {
        assert!(PlanOptions::from_vars(vars(&[("GFCL_NO_PUSHDOWN", off)])).pushdown, "{off:?}");
    }

    // GFCL_NO_VERIFY is the same shape, and GFCL_VERIFY=strict overrides it.
    assert!(!PlanOptions::from_vars(vars(&[("GFCL_NO_VERIFY", "1")])).verify);
    let strict = [("GFCL_NO_VERIFY", "1"), ("GFCL_VERIFY", "strict")];
    assert!(PlanOptions::from_vars(vars(&strict)).verify);

    // The programmatic escape hatch matches the env one.
    let p = plan_with(&filtered_query(), &catalog, &PlanOptions::no_pushdown()).unwrap();
    assert_eq!(pushed_len(&p), 0);
}

#[test]
fn gfcl_threads_is_validated() {
    // Garbage (including explicit zero) must not silently fall back to
    // serial.
    assert_rejected("GFCL_THREADS", &["many", "0", "-2", "1.5"], |o| o.threads == 0);

    // A valid value is honored; unset or empty falls back to serial.
    assert_eq!(ExecOptions::from_vars(vars(&[("GFCL_THREADS", "3")])).threads, 3);
    assert_eq!(ExecOptions::from_vars(vars(&[("GFCL_THREADS", "")])).threads, 1);
    assert_eq!(ExecOptions::from_vars(vars(&[])), ExecOptions::serial());
}

#[test]
fn gfcl_time_limit_is_validated() {
    assert_rejected("GFCL_TIME_LIMIT_MS", &["soon", "0", "-1"], |o| o.time_limit_ms == Some(0));

    // A generous limit doesn't disturb a small query; unset means none.
    let opts = ExecOptions::from_vars(vars(&[("GFCL_TIME_LIMIT_MS", "60000")]));
    assert_eq!(opts.time_limit_ms, Some(60_000));
    assert!(run(opts).is_ok());
    assert_eq!(ExecOptions::from_vars(vars(&[])).time_limit_ms, None);
}

#[test]
fn gfcl_mem_limit_is_validated() {
    assert_rejected("GFCL_MEM_LIMIT_MB", &["lots", "0", "-5"], |o| o.mem_limit_bytes == Some(0));

    let opts = ExecOptions::from_vars(vars(&[("GFCL_MEM_LIMIT_MB", "512")]));
    assert_eq!(opts.mem_limit_bytes, Some(512 * 1024 * 1024));
    assert!(run(opts).is_ok());
    assert_eq!(ExecOptions::from_vars(vars(&[])).mem_limit_bytes, None);
}

#[test]
fn gfcl_morsel_is_validated() {
    assert_rejected("GFCL_MORSEL", &["nope", "0", "-3"], |o| o.morsel_size == 0);

    // A valid value is honored; unset falls back to the default.
    assert_eq!(ExecOptions::from_vars(vars(&[("GFCL_MORSEL", "7")])).morsel_size, 7);
    assert_eq!(ExecOptions::from_vars(vars(&[])).morsel_size, gfcl_core::exec::SCAN_MORSEL);

    // And a non-default morsel produces identical results.
    assert_eq!(run(ExecOptions::serial()).unwrap(), run(ExecOptions::serial().morsel(3)).unwrap());
}
