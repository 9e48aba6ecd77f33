//! The commit allocation budget: heap allocations per single-statement
//! commit of the benchmark's write shape, counted exactly, early and late
//! in a merge interval.
//!
//! The delta store is structurally shared: a write transaction starts from
//! the published delta at the cost of one `Arc` bump per label, and each op
//! copies only the trie paths it writes. So what a commit allocates is a
//! function of what it writes — the statement's text, its row, a handful of
//! path copies a few levels deep — and not of how much delta has piled up
//! since the last merge. That is pinned here as a count rather than as a
//! timing: it depends on the code and the statements alone, up to a tenth
//! of an allocation per commit from run to run (the string-extension maps
//! hash strings under a per-process random key, which moves a trie node).
//!
//! The workload is `mixed_rw.store`'s write half (`support/write_cycle.rs`)
//! on an in-memory store over the benchmark's 5 000-person graph, each
//! statement its own commit through `gfcl::execute_statement`. 400 cycles
//! is one merge interval of the benchmark.
//!
//! When every commit deep-cloned the delta (once to begin the transaction,
//! once to freeze it for readers, re-interning every delta string and
//! re-sorting every tombstone set), the same 400 cycles took 507
//! allocations per commit over cycles 0–49 and 5 231 over cycles 350–399,
//! and 37 → 308 µs per commit (release build, 2 shared cores). Over the
//! shared delta they take 35.5–35.6 and 37.2–37.3, and about 3 µs
//! throughout.
//!
//! Allocations are counted per thread by `support/counting_alloc.rs`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/write_cycle.rs"]
mod write_cycle;

use std::time::Instant;

use gfcl::datagen::SocialParams;
use gfcl::{GraphStore, StatementOutput, StorageConfig};

use counting_alloc::counted;
use write_cycle::statements;

const CYCLES: usize = 400;
/// Cycles per row of the printed table; the first and the last are compared.
const WINDOW: usize = 50;
const KINDS: [&str; 4] = ["insert-vertex", "insert-edge", "update-vertex", "retire"];

/// Mean allocations per commit, in the first window and in the last, may
/// not exceed this: the counts in the module docs plus about 12 %.
const CEILING: f64 = 42.0;
/// Late commits may allocate at most this much more than early ones.
const GROWTH: f64 = 1.1;

#[test]
fn commits_allocate_for_their_writes_not_for_the_delta() {
    let raw = gfcl::datagen::generate_social(SocialParams::scale(5_000));
    let person = raw.catalog.vertex_label_id("Person").unwrap();
    let persons = raw.vertex_count(person) as i64;
    let store = GraphStore::in_memory(&raw, StorageConfig::default()).unwrap();
    drop(raw);

    // `[cycle][kind]` allocations, and each cycle's commit time.
    let mut allocs = Vec::with_capacity(CYCLES);
    let mut micros = Vec::with_capacity(CYCLES);
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    for cycle in 0..CYCLES as i64 {
        let texts = statements(cycle, persons, &mut rng);
        let mut row = [0u64; 4];
        let t = Instant::now();
        for (n, text) in row.iter_mut().zip(&texts) {
            let (count, out) = counted(|| gfcl::execute_statement(&store, text));
            match out {
                Ok(StatementOutput::Mutation { ops: 1, .. }) => *n = count,
                other => panic!("cycle {cycle}: `{text}` gave {other:?}"),
            }
        }
        micros.push(t.elapsed().as_secs_f64() * 1e6 / 4.0);
        allocs.push(row);
    }
    assert!(store.pending_mutations() > 0, "no merge ran: the delta grew all along");

    let mean = |rows: &[[u64; 4]], kind: Option<usize>| -> f64 {
        let sum: u64 = rows.iter().map(|r| kind.map_or(r.iter().sum(), |k| r[k])).sum();
        sum as f64 / (rows.len() * if kind.is_some() { 1 } else { 4 }) as f64
    };
    println!(
        "cycles    {:>13}  {:>11}  {:>13}  {:>6}  {:>11}  {:>9}",
        KINDS[0], KINDS[1], KINDS[2], KINDS[3], "per commit", "us/commit"
    );
    for w in 0..CYCLES / WINDOW {
        let (lo, hi) = (w * WINDOW, (w + 1) * WINDOW);
        let rows = &allocs[lo..hi];
        let us = micros[lo..hi].iter().sum::<f64>() / WINDOW as f64;
        println!(
            "{:>3}-{:<3}   {:>13.1}  {:>11.1}  {:>13.1}  {:>6.1}  {:>11.1}  {:>9.1}",
            lo,
            hi - 1,
            mean(rows, Some(0)),
            mean(rows, Some(1)),
            mean(rows, Some(2)),
            mean(rows, Some(3)),
            mean(rows, None),
            us
        );
    }

    let early = mean(&allocs[..WINDOW], None);
    let late = mean(&allocs[CYCLES - WINDOW..], None);
    assert!(
        late <= GROWTH * early,
        "{late:.1} allocations per commit late in the interval against {early:.1} early: \
         commits pay for the delta again"
    );
    for (when, n) in [("early", early), ("late", late)] {
        assert!(n <= CEILING, "{n:.1} allocations per commit {when}; the budget is {CEILING}");
    }
}
