//! Storage-layer environment knobs: `GFCL_BUFFER_MB` pool sizing and the
//! `GFCL_FAULT_*` injection rates follow the validated pattern — a
//! set-but-unparsable value is a clean error naming the variable, never a
//! silent fallback. The cases drive the pure `*_from_vars` bodies with an
//! explicit variable table; no test mutates the process environment (the
//! one-line `*_from_env` wrappers are covered by the CI jobs that export
//! `GFCL_BUFFER_MB` and `GFCL_FAULT_SEED`).

use gfcl_storage::{BufferPool, FaultConfig};

/// A variable lookup over a fixed table.
fn vars<'a>(table: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
    move |name| table.iter().find(|(k, _)| *k == name).map(|(_, v)| (*v).to_owned())
}

#[test]
fn gfcl_buffer_mb_is_validated() {
    for garbage in ["big", "-1", "2.5"] {
        let err = BufferPool::capacity_from_vars(8, vars(&[("GFCL_BUFFER_MB", garbage)]))
            .expect_err("garbage sizing must not run the default geometry");
        assert!(err.to_string().contains("GFCL_BUFFER_MB"), "{err}");
    }

    // A size whose byte count overflows is rejected too — it used to wrap
    // to a near-zero pool in release builds and panic in debug ones.
    for huge in ["17592186044416", "18446744073709551615"] {
        let err = BufferPool::capacity_from_vars(8, vars(&[("GFCL_BUFFER_MB", huge)]))
            .expect_err("an overflowing size must not wrap");
        assert!(err.to_string().contains("GFCL_BUFFER_MB"), "{err}");
    }

    // A valid value is honored (floor one page); unset or empty uses the
    // default.
    let pages_per_mib = (1024 * 1024) / gfcl_columnar::PAGE_SIZE;
    for (table, want) in [
        (&[("GFCL_BUFFER_MB", "1")][..], pages_per_mib),
        (&[("GFCL_BUFFER_MB", " 3 ")], 3 * pages_per_mib),
        (&[("GFCL_BUFFER_MB", "0")], 1),
        (&[("GFCL_BUFFER_MB", "")], 8),
        (&[("GFCL_THREADS", "4")], 8),
        (&[], 8),
    ] {
        assert_eq!(BufferPool::capacity_from_vars(8, vars(table)).unwrap(), want, "{table:?}");
    }
}

#[test]
fn gfcl_fault_rates_are_validated() {
    for name in [
        "GFCL_FAULT_SEED",
        "GFCL_FAULT_TRANSIENT_PPM",
        "GFCL_FAULT_PERMANENT_PPM",
        "GFCL_FAULT_FLIP_PPM",
        "GFCL_FAULT_STICKY_FLIP_PPM",
    ] {
        for garbage in ["sometimes", "-1", "0.5"] {
            let err = FaultConfig::from_vars(vars(&[(name, garbage)]))
                .expect_err("garbage rates must not silently disable injection");
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    // Nothing set (or only empties): no injector at all.
    assert_eq!(FaultConfig::from_vars(vars(&[])).unwrap(), None);
    assert_eq!(FaultConfig::from_vars(vars(&[("GFCL_FAULT_SEED", " ")])).unwrap(), None);

    // A set seed alone arms the injector with all rates zero — by
    // definition transparent.
    let cfg = FaultConfig::from_vars(vars(&[("GFCL_FAULT_SEED", "42")]))
        .unwrap()
        .expect("a set seed arms the injector");
    assert_eq!(cfg.seed, 42);
    assert!(cfg.is_disabled());

    // Rates land on their own dimensions.
    let cfg = FaultConfig::from_vars(vars(&[
        ("GFCL_FAULT_TRANSIENT_PPM", "7"),
        ("GFCL_FAULT_STICKY_FLIP_PPM", "9"),
    ]))
    .unwrap()
    .unwrap();
    let want = FaultConfig { transient_ppm: 7, sticky_flip_ppm: 9, ..FaultConfig::disabled() };
    assert_eq!(cfg, want);
}
