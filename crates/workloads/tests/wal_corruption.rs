//! Store-level WAL corruption matrix: take a healthy on-disk store with a
//! populated WAL, damage the log in every way a disk or a crash can —
//! single-bit flips at every region of the file, truncation to every
//! prefix length, a duplicated tail record — and reopen.
//!
//! The contract: [`GraphStore::open`] either
//!
//! * recovers a **commit-boundary prefix** of the stream (damage confined
//!   to the torn-write window at the tail), answering queries exactly
//!   like a reference store that replayed that many commits, or
//! * fails with a clean [`Error::Storage`] —
//!
//! and never panics, and never serves a state that is not a prefix.

use std::path::{Path, PathBuf};

use gfcl_common::Error;
use gfcl_core::query::QueryBuilder;
use gfcl_core::{Engine, ExecOptions, GfClEngine};
use gfcl_storage::{GraphStore, StorageConfig};
use gfcl_workloads::crashkit::{self, pk_of};

const COMMITS: u64 = 10;

/// Build the pristine fixture once: a durable store with `COMMITS`
/// commits in its WAL (no merges, so the log stays populated).
fn pristine(root: &Path) -> (PathBuf, Vec<String>) {
    let dir = root.join("pristine");
    let _ = std::fs::remove_dir_all(&dir);
    let store = GraphStore::create(&dir, &crashkit::base_raw(), StorageConfig::default()).unwrap();
    for k in 0..COMMITS {
        crashkit::apply_commit(&store, k).unwrap();
    }
    let expected: Vec<String> =
        (0..=COMMITS).map(|m| reference_answers(&crashkit::reference_store(m))).collect();
    (dir, expected)
}

/// One canonical answer string summarizing the store's state.
fn reference_answers(store: &GraphStore) -> String {
    let q = QueryBuilder::default()
        .node("a", "A")
        .node("b", "B")
        .edge("e", "AB", "a", "b")
        .returns(&[("a", "id"), ("a", "x"), ("a", "tag"), ("b", "id"), ("e", "w")])
        .build();
    let snap = store.snapshot();
    GfClEngine::with_snapshot_options(&snap, ExecOptions::serial())
        .execute(&q)
        .expect("state query")
        .canonical()
}

/// Clone the pristine store directory for one corruption experiment.
fn clone_store(pristine: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for f in ["graph.gfcl", "graph.wal"] {
        std::fs::copy(pristine.join(f), dst.join(f)).unwrap();
    }
}

/// Reopen a damaged store and enforce the contract. `label` identifies
/// the experiment in failure messages.
fn check_recovery(dir: &Path, expected: &[String], label: &str) {
    match GraphStore::open(dir, StorageConfig::default()) {
        Err(Error::Storage(_)) => {} // clean, typed rejection
        Err(e) => panic!("{label}: reopen failed with non-storage error: {e}"),
        Ok(store) => {
            let snap = store.snapshot();
            let view = snap.view();
            let mut m = 0u64;
            while view.lookup_pk(0, pk_of(m)).is_some() {
                m += 1;
            }
            assert!(m <= COMMITS, "{label}: recovered more commits than were written");
            for k in m..COMMITS {
                assert!(
                    view.lookup_pk(0, pk_of(k)).is_none(),
                    "{label}: recovered state is not a commit prefix (gap before {k})",
                );
            }
            drop(snap);
            assert_eq!(
                reference_answers(&store),
                expected[m as usize],
                "{label}: recovered prefix {m} does not match its replayed reference",
            );
        }
    }
}

#[test]
fn bit_flips_truncations_and_duplicate_tails_never_panic() {
    let root = std::env::temp_dir().join(format!("gfcl_wal_corruption_{}", std::process::id()));
    let (pristine_dir, expected) = pristine(&root);
    let wal = std::fs::read(pristine_dir.join("graph.wal")).unwrap();
    let work = root.join("work");

    // Single-bit flips spread across the whole file: header, record
    // frames, payloads, and the final record (the only region where a
    // flip may legally read as a torn tail).
    let step = (wal.len() / 97).max(1);
    for pos in (0..wal.len()).step_by(step) {
        for bit in [0u8, 5] {
            clone_store(&pristine_dir, &work);
            let mut bytes = wal.clone();
            bytes[pos] ^= 1 << bit;
            std::fs::write(work.join("graph.wal"), &bytes).unwrap();
            check_recovery(&work, &expected, &format!("bit-flip @{pos} bit {bit}"));
        }
    }

    // Truncation to every length on a coarse grid plus the exact tail.
    let tstep = (wal.len() / 61).max(1);
    let mut cuts: Vec<usize> = (0..wal.len()).step_by(tstep).collect();
    cuts.extend([0, 1, wal.len().saturating_sub(1), wal.len().saturating_sub(7)]);
    for cut in cuts {
        clone_store(&pristine_dir, &work);
        std::fs::write(work.join("graph.wal"), &wal[..cut]).unwrap();
        check_recovery(&work, &expected, &format!("truncate to {cut}"));
    }

    // Duplicated tails: re-append the last `n` bytes, covering both a
    // whole duplicated record and ragged partial copies.
    for n in [1usize, 8, 16, 64, 256] {
        let n = n.min(wal.len());
        clone_store(&pristine_dir, &work);
        let mut bytes = wal.clone();
        bytes.extend_from_slice(&wal[wal.len() - n..]);
        std::fs::write(work.join("graph.wal"), &bytes).unwrap();
        check_recovery(&work, &expected, &format!("duplicate last {n} bytes"));
    }

    // A missing WAL must refuse to open: silently treating it as an
    // empty (epoch-0) store would drop every acknowledged commit.
    clone_store(&pristine_dir, &work);
    std::fs::remove_file(work.join("graph.wal")).unwrap();
    match GraphStore::open(&work, StorageConfig::default()) {
        Err(Error::Storage(msg)) => assert!(msg.contains("graph.wal"), "{msg}"),
        Err(e) => panic!("deleted WAL: wrong error kind {e}"),
        Ok(_) => panic!("deleted WAL opened silently, dropping all commits"),
    }

    let _ = std::fs::remove_dir_all(&root);
}
