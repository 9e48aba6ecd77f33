//! Storage-layer variables — `GFCL_BUFFER_MB` pool sizing and the
//! `GFCL_FAULT_*` injection rates — through [`Config::parse`]: a
//! set-but-invalid value is an `Error::Invalid` naming the variable at
//! parse time, never a silent fallback. The execution and planner
//! variables are in `config.rs`.

mod common;

use common::{assert_accepted, assert_rejected, parse, VARS};
use gfcl_storage::FaultConfig;

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
fn gfcl_fault_rates_are_validated() {
    assert_rejected("GFCL_FAULT_SEED", &["sometimes", "-1", "0.5", "18446744073709551616"]);
    for name in VARS.iter().filter(|v| v.ends_with("_PPM")) {
        assert_rejected(name, &["sometimes", "-1", "0.5"]);
        // Rates are per million page reads: above that is an error, and a
        // value past `u32::MAX` must not wrap to 0 and turn injection
        // silently off.
        assert_rejected(name, &["1000001", "4294967296", "4294967297"]);
    }

    // Nothing set (or only blanks): no injector at all.
    assert_eq!(parse(&[]).unwrap().faults, None);
    assert_eq!(parse(&[("GFCL_FAULT_SEED", " ")]).unwrap().faults, None);

    // A set seed alone arms the injector with all rates zero — by
    // definition transparent.
    let seeded = FaultConfig { seed: 42, ..FaultConfig::disabled() };
    assert_accepted("GFCL_FAULT_SEED", |c| c.faults, &[("42", Some(seeded))]);
    assert!(seeded.is_disabled());

    // Rates land on their own dimensions, up to one million.
    let config = parse(&[
        ("GFCL_FAULT_TRANSIENT_PPM", "7"),
        ("GFCL_FAULT_PERMANENT_PPM", "1000000"),
        ("GFCL_FAULT_STICKY_FLIP_PPM", "9"),
    ])
    .unwrap();
    let want = FaultConfig {
        transient_ppm: 7,
        permanent_ppm: 1_000_000,
        sticky_flip_ppm: 9,
        ..FaultConfig::disabled()
    };
    assert_eq!(config.faults, Some(want));
}
