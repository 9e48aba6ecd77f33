//! Crash-recovery torture: SIGKILL the `crash_writer` subprocess at
//! seeded, randomized points in its commit stream — including inside the
//! WAL fsync window and the merge's rename window — then reopen the store
//! and check the recovered graph is **exactly** the state after some
//! commit boundary:
//!
//! * `GraphStore::open` must succeed (a torn WAL tail is truncated, a
//!   half-finished merge is repaired), never panic;
//! * the durable witnesses form a gap-free prefix `0..m` of the commit
//!   stream — commits are atomic, so no torn in-between state;
//! * query answers equal a reference store that replayed exactly `m`
//!   commits, at 1 and `GFCL_THREADS` workers;
//! * the recovered store accepts and durably persists new commits.
//!
//! Failures print the iteration's seed; rerun with
//! `GFCL_CRASH_SEED=<seed> GFCL_CRASH_ITERS=1`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use gfcl_core::query::{col, gt, lit, PatternQuery, QueryBuilder};
use gfcl_core::{Engine, ExecOptions, GfClEngine};
use gfcl_storage::{GraphStore, StorageConfig};
use gfcl_workloads::crashkit::{self, pk_of};

/// Commits the writer attempts per iteration; kills land in `0..COMMITS`.
const COMMITS: u64 = 120;

fn iterations() -> u64 {
    std::env::var("GFCL_CRASH_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(52)
}

fn base_seed() -> u64 {
    std::env::var("GFCL_CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

fn par_threads() -> usize {
    std::env::var("GFCL_THREADS").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(4)
}

/// splitmix64: tiny, deterministic, and good enough to scatter kill
/// points; no RNG dependency needed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn queries() -> Vec<(String, PatternQuery)> {
    let scan = QueryBuilder::default()
        .node("a", "A")
        .returns(&[("a", "id"), ("a", "x"), ("a", "tag")])
        .build();
    let join = QueryBuilder::default()
        .node("a", "A")
        .node("b", "B")
        .edge("e", "AB", "a", "b")
        .filter(gt(col("e", "w"), lit(-100)))
        .returns(&[("a", "id"), ("b", "id"), ("e", "w")])
        .build();
    let single = QueryBuilder::default()
        .node("a", "A")
        .node("b", "B")
        .edge("s", "SINGLE", "a", "b")
        .returns(&[("a", "id"), ("b", "id")])
        .build();
    vec![("scan".into(), scan), ("join".into(), join), ("single".into(), single)]
}

/// Canonical answers over `store`'s current snapshot at 1 and N workers
/// (asserting the two agree).
fn answers(store: &GraphStore, qs: &[(String, PatternQuery)], seed: u64) -> Vec<String> {
    let snap = store.snapshot();
    let serial = GfClEngine::with_snapshot_options(&snap, ExecOptions::serial());
    let parallel =
        GfClEngine::with_snapshot_options(&snap, ExecOptions::with_threads(par_threads()));
    qs.iter()
        .map(|(name, q)| {
            let s = serial
                .execute(q)
                .unwrap_or_else(|e| panic!("seed={seed}: {name} serial: {e}"))
                .canonical();
            let p = parallel
                .execute(q)
                .unwrap_or_else(|e| panic!("seed={seed}: {name} parallel: {e}"))
                .canonical();
            assert_eq!(s, p, "seed={seed}: {name} serial vs parallel diverge after recovery");
            s
        })
        .collect()
}

/// Durable witness prefix of the recovered store: the largest gap-free
/// `0..m`; asserts no witness exists past the first gap.
fn recovered_prefix(store: &GraphStore, seed: u64) -> u64 {
    let snap = store.snapshot();
    let view = snap.view();
    let mut m = 0u64;
    while view.lookup_pk(0, pk_of(m)).is_some() {
        m += 1;
    }
    for k in m..COMMITS + 8 {
        assert!(
            view.lookup_pk(0, pk_of(k)).is_none(),
            "seed={seed}: witness {k} survived but {m} did not — recovery is not a prefix",
        );
    }
    m
}

fn run_iteration(seed: u64, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let mut rng = seed;

    let mut child = Command::new(env!("CARGO_BIN_EXE_crash_writer"))
        .arg(dir)
        .arg(COMMITS.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("seed={seed}: spawning crash_writer: {e}"));

    // Aim the SIGKILL: either a raw early kill (which can land inside
    // `GraphStore::create` itself) or just past a specific commit line,
    // so the blow lands inside the next commit's WAL append / fsync — or
    // inside a merge's rename pair. `acked` counts the `committed <k>`
    // lines the writer printed *after* its fsync returned: those commits
    // were acknowledged durable and must never be lost.
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut lines = stdout.lines();
    let mut acked = 0u64;
    if splitmix(&mut rng).is_multiple_of(4) {
        std::thread::sleep(Duration::from_micros(splitmix(&mut rng) % 12_000));
    } else {
        let target = format!("committed {}", splitmix(&mut rng) % COMMITS);
        for line in lines.by_ref() {
            match line {
                Ok(l) => {
                    if l.starts_with("committed ") {
                        acked += 1;
                    }
                    if l == target {
                        break;
                    }
                }
                Err(_) => break, // writer already gone
            }
        }
        std::thread::sleep(Duration::from_micros(splitmix(&mut rng) % 2_500));
    }
    let _ = child.kill(); // SIGKILL on unix; no-op if it already finished
    let _ = child.wait();
    // Drain acknowledgements that were in the pipe when the kill landed.
    for line in lines.map_while(|l| l.ok()) {
        if line.starts_with("committed ") {
            acked += 1;
        }
    }

    // Reopen: must repair and replay without panicking. A clean error is
    // acceptable only when the kill interrupted store *creation* — i.e.
    // nothing was ever acknowledged.
    let store = match GraphStore::open(dir, StorageConfig::default()) {
        Ok(s) => s,
        Err(e) if acked == 0 => {
            assert!(
                !dir.join("graph.wal").exists(),
                "seed={seed}: store has a WAL but will not open: {e}",
            );
            return;
        }
        Err(e) => panic!("seed={seed}: reopen lost {acked} acknowledged commits: {e}"),
    };
    let m = recovered_prefix(&store, seed);
    assert!(
        (acked..=acked + 1).contains(&m),
        "seed={seed}: {acked} commits acknowledged but {m} recovered",
    );

    // The recovered graph must answer exactly like a reference store that
    // replayed exactly the durable prefix.
    let qs = queries();
    let got = answers(&store, &qs, seed);
    let reference = crashkit::reference_store(m);
    let want = answers(&reference, &qs, seed);
    assert_eq!(got, want, "seed={seed}: recovered state (prefix {m}) != replayed reference");

    // The recovered store must keep working: one more durable commit,
    // visible across another clean reopen.
    crashkit::apply_commit(&store, COMMITS + 7)
        .unwrap_or_else(|e| panic!("seed={seed}: post-recovery commit failed: {e}"));
    drop(store);
    let reopened = GraphStore::open(dir, StorageConfig::default())
        .unwrap_or_else(|e| panic!("seed={seed}: second reopen failed: {e}"));
    let snap = reopened.snapshot();
    let view = snap.view();
    assert!(
        view.lookup_pk(0, pk_of(COMMITS + 7)).is_some(),
        "seed={seed}: post-recovery commit did not survive reopen",
    );
}

#[test]
fn seeded_sigkill_recovers_a_commit_prefix() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("gfcl_crash_recovery_{}", std::process::id()));
    let (base, iters) = (base_seed(), iterations());
    for i in 0..iters {
        let seed = base.wrapping_add(i);
        let dir = root.join(format!("iter_{seed}"));
        run_iteration(seed, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The writer run to completion (no kill) recovers everything: sanity
/// check that the harness's reference machinery agrees with a clean run.
#[test]
fn uninterrupted_writer_is_fully_durable() {
    let dir =
        std::env::temp_dir().join(format!("gfcl_crash_recovery_clean_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let commits = 23u64;
    let status = Command::new(env!("CARGO_BIN_EXE_crash_writer"))
        .arg(&dir)
        .arg(commits.to_string())
        .stdout(Stdio::null())
        .status()
        .expect("spawn crash_writer");
    assert!(status.success(), "clean writer run failed");

    let store = GraphStore::open(&dir, StorageConfig::default()).expect("reopen clean store");
    assert_eq!(recovered_prefix(&store, 0), commits);
    let qs = queries();
    assert_eq!(answers(&store, &qs, 0), answers(&crashkit::reference_store(commits), &qs, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
