//! [`Config::parse`], the one parser of the production `GFCL_*` variables,
//! driven through explicit variable tables — no test reads or mutates the
//! process environment. Each variable has a table of accepted values
//! (with the field they land in) and of rejected ones; every rejection
//! is an `Error::Invalid` naming the variable, returned at parse time.
//! The variables are README's "Configuration" table, and
//! `the_readme_table_lists_exactly_the_parsed_variables` keeps the two in
//! step.

mod common;

use std::sync::Arc;

use common::{assert_accepted, assert_rejected, parse, VARS};
use gfcl_common::Error;
use gfcl_core::query::{col, ge, lit, PatternQuery};
use gfcl_core::{Config, Engine, ExecOptions, GfClEngine};
use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};
use proptest::prelude::*;

const MIB: u64 = 1024 * 1024;

fn filtered_query() -> PatternQuery {
    PatternQuery::builder()
        .node("a", "PERSON")
        .filter(ge(col("a", "age"), lit(40)))
        .returns_count()
        .build()
}

/// Run the example query under `opts`.
fn run(opts: ExecOptions) -> gfcl_common::Result<gfcl_core::QueryOutput> {
    let graph = ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap();
    GfClEngine::with_options(Arc::new(graph), opts).execute(&filtered_query())
}

#[test]
fn an_empty_environment_is_the_default() {
    assert_eq!(parse(&[]).unwrap(), Config::default());
    assert_eq!(Config::default().exec, ExecOptions::serial());
    // Variables the parser does not own are ignored, including the
    // removed `GFCL_VERIFY`, `GFCL_MORSEL` and fault-injection variables.
    assert_eq!(
        parse(&[("GFCL_VERIFY", "strict"), ("GFCL_SCALE", "x")]).unwrap(),
        Config::default()
    );
    for removed in [
        "GFCL_MORSEL",
        "GFCL_FAULT_SEED",
        "GFCL_FAULT_TRANSIENT_PPM",
        "GFCL_FAULT_PERMANENT_PPM",
        "GFCL_FAULT_FLIP_PPM",
        "GFCL_FAULT_STICKY_FLIP_PPM",
    ] {
        for v in ["7", "garbage"] {
            assert_eq!(parse(&[(removed, v)]).unwrap(), Config::default(), "{removed}={v}");
        }
    }
}

#[test]
fn the_readme_table_lists_exactly_the_parsed_variables() {
    let readme = include_str!("../../../README.md");
    let section = readme.split("\n## ").find(|s| s.starts_with("Configuration\n")).unwrap();
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next())
        .filter(|name| name.starts_with("GFCL_"))
        .collect();
    assert_eq!(documented, VARS, "README's Configuration table vs common::VARS");
}

#[test]
fn gfcl_threads_is_validated() {
    let huge = "18446744073709551616";
    assert_rejected("GFCL_THREADS", &["many", "0", "-2", "1.5", huge]);
    assert_accepted("GFCL_THREADS", |c| c.exec.threads, &[("3", 3), (" 4 ", 4), ("", 1), (" ", 1)]);
    // Only the parsed field moves.
    let config = parse(&[("GFCL_THREADS", "3")]).unwrap();
    assert_eq!(config.exec, ExecOptions::with_threads(3));
}

#[test]
fn gfcl_time_limit_is_validated() {
    assert_rejected("GFCL_TIME_LIMIT_MS", &["soon", "0", "-1"]);
    let cases = [("60000", Some(60_000)), ("", None)];
    assert_accepted("GFCL_TIME_LIMIT_MS", |c| c.exec.time_limit_ms, &cases);
    // A generous limit doesn't disturb a small query.
    assert!(run(parse(&[("GFCL_TIME_LIMIT_MS", "60000")]).unwrap().exec).is_ok());
}

#[test]
fn gfcl_mem_limit_is_validated() {
    // 2^44 MiB is 2^64 bytes: an overflow is an error, not an unlimited
    // budget.
    let overflows = ["17592186044416", "18446744073709551615"];
    assert_rejected("GFCL_MEM_LIMIT_MB", &["lots", "0", "-5"]);
    assert_rejected("GFCL_MEM_LIMIT_MB", &overflows);
    let cases = [("512", Some(512 * MIB)), ("17592186044415", Some(17_592_186_044_415 * MIB))];
    assert_accepted("GFCL_MEM_LIMIT_MB", |c| c.exec.mem_limit_bytes, &cases);
    assert_accepted("GFCL_MEM_LIMIT_MB", |c| c.exec.mem_limit_bytes, &[("", None)]);
    assert!(run(parse(&[("GFCL_MEM_LIMIT_MB", "512")]).unwrap().exec).is_ok());
}

#[test]
fn gfcl_buffer_mb_is_validated() {
    assert_rejected("GFCL_BUFFER_MB", &["big", "-1", "2.5"]);
    // A size whose byte count overflows is rejected, not wrapped to a
    // near-zero pool.
    assert_rejected("GFCL_BUFFER_MB", &["17592186044416", "18446744073709551615"]);

    // A valid value is honored (floor one page); unset, empty or an
    // unrelated variable leaves the caller's size alone.
    let pages_per_mib = (1024 * 1024) / gfcl_columnar::PAGE_SIZE;
    let cases = [
        ("1", Some(pages_per_mib)),
        (" 3 ", Some(3 * pages_per_mib)),
        ("0", Some(1)),
        ("", None),
        ("  ", None),
    ];
    assert_accepted("GFCL_BUFFER_MB", |c| c.buffer_pool_pages, &cases);
    assert_eq!(parse(&[("GFCL_THREADS", "4")]).unwrap().buffer_pool_pages, None);
}

#[test]
fn a_caller_built_zero_fails_naming_the_field() {
    for (opts, field) in [
        (ExecOptions { threads: 0, ..ExecOptions::serial() }, "threads"),
        (ExecOptions::with_threads(0), "threads"),
        (ExecOptions::serial().morsel(0), "morsel_size"),
        (ExecOptions::serial().time_limit_ms(0), "time_limit_ms"),
        (ExecOptions::serial().mem_limit_bytes(0), "mem_limit_bytes"),
    ] {
        let err = run(opts).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains(field), "{err}");
    }
}

/// Values that look like the numbers and flags the parser reads, and
/// values that look like nothing in particular.
fn value() -> impl Strategy<Value = String> {
    prop_oneof![
        "[0-9]{0,24}",
        "[ \t0-9+-]{0,12}",
        "[a-zA-Z0-9 ._+-]{0,16}",
        "[0-9é٣\u{0}\u{a0}x]{0,6}",
        any::<u64>().prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        any::<u32>().prop_map(|n| format!(" {n} ")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// `parse` is total: any string in any variable is a config or an
    /// `Error::Invalid` naming that variable, never a panic.
    #[test]
    fn parse_is_total(i in 0..VARS.len(), v in value()) {
        let name = VARS[i];
        match parse(&[(name, v.as_str())]) {
            Ok(_) => {}
            Err(Error::Invalid(msg)) => prop_assert!(msg.contains(name), "{name}={v:?}: {msg}"),
            Err(e) => panic!("{name}={v:?}: not an Error::Invalid: {e:?}"),
        }
    }
}
