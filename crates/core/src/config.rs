//! [`Config`]: every production `GFCL_*` variable, parsed once by
//! [`Config::from_env`] at a process edge — an example, a bench, a test
//! binary — which hands each part to the constructor that takes it. The
//! library reads the environment nowhere else; README's "Configuration"
//! table lists each variable's field, default and accepted range. What is
//! not a knob stays out: filter pushdown, plan verification, the morsel
//! size and the storage layout the planner plans by are not switchable
//! here.
//!
//! Values are trimmed; unset or blank means the default. Anything else out
//! of range — garbage, a zero where a positive value is required, a size
//! whose byte count overflows — is an [`Error::Invalid`] naming the
//! variable, returned before anything runs.

use std::str::FromStr;

use gfcl_columnar::PAGE_SIZE;
use gfcl_common::{Error, Result};

use crate::driver::ExecOptions;

/// The process configuration. [`Config::default`] is what an empty
/// environment parses to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Config {
    /// `GFCL_THREADS`, `GFCL_TIME_LIMIT_MS` and `GFCL_MEM_LIMIT_MB`, for
    /// [`GfClEngine::with_options`](crate::GfClEngine::with_options).
    pub exec: ExecOptions,
    /// `GFCL_BUFFER_MB` in pages (floor one), for
    /// [`StorageConfig::buffer_pool_pages`](gfcl_storage::StorageConfig::buffer_pool_pages).
    pub buffer_pool_pages: Option<usize>,
}

impl Config {
    /// [`Config::parse`] over the process environment.
    pub fn from_env() -> Result<Config> {
        Config::parse(|name| std::env::var(name).ok())
    }

    /// Parse the configuration from a variable lookup (`None` = unset).
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Config> {
        let var = |name: &str| var(name).map(|s| s.trim().to_owned()).filter(|s| !s.is_empty());
        let positive = "a positive integer";
        // Sizes are MiB counts whose byte count, `mb << 20`, must not overflow.
        let mem = "a positive MiB count whose byte count fits u64";
        let mem_mb =
            number::<u64>(&var, "GFCL_MEM_LIMIT_MB", mem, |&mb| mb > 0 && mb <= u64::MAX >> 20)?;
        let pool = "a non-negative MiB count whose byte count fits usize";
        let pool_mb = number::<usize>(&var, "GFCL_BUFFER_MB", pool, |&mb| mb <= usize::MAX >> 20)?;
        let exec = ExecOptions::default();
        Ok(Config {
            exec: ExecOptions {
                threads: number(&var, "GFCL_THREADS", positive, |&n| n > 0)?
                    .unwrap_or(exec.threads),
                time_limit_ms: number(&var, "GFCL_TIME_LIMIT_MS", positive, |&n| n > 0)?,
                mem_limit_bytes: mem_mb.map(|mb| mb << 20),
                ..exec
            },
            buffer_pool_pages: pool_mb.map(|mb| ((mb << 20) / PAGE_SIZE).max(1)),
        })
    }
}

/// Variable `name` parsed as a `T` that satisfies `ok`; `None` when unset,
/// an error naming the variable and what it must be otherwise.
fn number<T: FromStr>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<T>> {
    let Some(s) = var(name) else { return Ok(None) };
    match s.parse::<T>() {
        Ok(v) if ok(&v) => Ok(Some(v)),
        _ => Err(Error::Invalid(format!("{name} must be {want}, got {s:?}"))),
    }
}
