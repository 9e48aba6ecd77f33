//! Variable tables for the [`Config::parse`] suite (`config.rs`): every
//! case drives the parser through an explicit lookup, so no test reads or
//! mutates the process environment.

use gfcl_common::{Error, Result};
use gfcl_core::Config;

/// Every production variable `Config::parse` reads.
pub const VARS: [&str; 4] =
    ["GFCL_THREADS", "GFCL_TIME_LIMIT_MS", "GFCL_MEM_LIMIT_MB", "GFCL_BUFFER_MB"];

/// `Config::parse` over a fixed table of set variables.
pub fn parse(table: &[(&str, &str)]) -> Result<Config> {
    Config::parse(|name| table.iter().find(|(k, _)| *k == name).map(|(_, v)| (*v).to_owned()))
}

/// `name` set to each of `values` alone is rejected, naming `name`.
pub fn assert_rejected(name: &str, values: &[&str]) {
    for v in values {
        match parse(&[(name, v)]) {
            Err(Error::Invalid(msg)) => assert!(msg.contains(name), "{name}={v:?}: {msg}"),
            other => panic!("{name}={v:?} must be rejected naming the variable, got {other:?}"),
        }
    }
}

/// `name` set to each value of `cases` alone parses to its `field`.
pub fn assert_accepted<T: PartialEq + std::fmt::Debug>(
    name: &str,
    field: impl Fn(&Config) -> T,
    cases: &[(&str, T)],
) {
    for (v, want) in cases {
        let config = parse(&[(name, v)]).unwrap_or_else(|e| panic!("{name}={v:?}: {e}"));
        assert_eq!(&field(&config), want, "{name}={v:?}");
    }
}
