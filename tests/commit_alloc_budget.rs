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
//! The workload is `mixed_rw.store`'s write half on an in-memory store over
//! the benchmark's 5 000-person graph: per cycle, insert a person, insert a
//! `knows` edge from it to a random person, update a random person's
//! `browserUsed`, and delete the person inserted four cycles earlier (in the
//! first four cycles, rename the new person instead), each statement its
//! own commit through `gfcl::execute_statement`. 400 cycles is one merge
//! interval of the benchmark.
//!
//! When every commit deep-cloned the delta (once to begin the transaction,
//! once to freeze it for readers, re-interning every delta string and
//! re-sorting every tombstone set), the same 400 cycles took 507
//! allocations per commit over cycles 0–49 and 5 231 over cycles 350–399,
//! and 37 → 308 µs per commit (release build, 2 shared cores). Over the
//! shared delta they take 35.5–35.6 and 37.2–37.3, and about 3 µs
//! throughout.
//!
//! The counting allocator counts per thread, so the other tests of this
//! binary and the parallel test runner do not pollute the counts. `alloc`,
//! `alloc_zeroed` and `realloc` each count one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use gfcl::datagen::SocialParams;
use gfcl::{GraphStore, StatementOutput, StorageConfig};

/// `System`, counting allocations on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const CYCLES: usize = 400;
/// Cycles per row of the printed table; the first and the last are compared.
const WINDOW: usize = 50;
/// Cycles a deleted person trails its insert by (the benchmark's lag).
const DELETE_LAG: i64 = 4;
const KINDS: [&str; 4] = ["insert-vertex", "insert-edge", "update-vertex", "retire"];

/// Mean allocations per commit, in the first window and in the last, may
/// not exceed this: the counts in the module docs plus about 12 %.
const CEILING: f64 = 42.0;
/// Late commits may allocate at most this much more than early ones.
const GROWTH: f64 = 1.1;

/// The cycle's four write statements; `rng` is a xorshift state.
fn statements(cycle: i64, persons: i64, rng: &mut u64) -> [String; 4] {
    let mut next = |n: i64| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % n as u64) as i64
    };
    let new = persons + cycle;
    let (friend, updated) = (next(persons), next(persons));
    let browser = ["Chrome", "Firefox", "Safari", "Opera"][next(4) as usize];
    let date = 1_300_000_000 + next(200_000_000);
    let retire = if cycle < DELETE_LAG {
        format!("UPDATE VERTEX Person {new} SET (lName = 'Renamed')")
    } else {
        format!("DELETE VERTEX Person {}", new - DELETE_LAG)
    };
    [
        format!(
            "INSERT VERTEX Person (id = {new}, fName = 'Bench', lName = 'W{new}', \
             gender = 'female', birthday = date({}), creationDate = date({date}), \
             locationIP = '10.0.0.1', browserUsed = 'Chrome')",
            date - 900_000_000
        ),
        format!("INSERT EDGE knows FROM Person {new} TO Person {friend} (date = date({date}))"),
        format!("UPDATE VERTEX Person {updated} SET (browserUsed = '{browser}')"),
        retire,
    ]
}

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
