//! Shared fixture for the crash-recovery torture harness: a deterministic
//! base graph and a deterministic per-commit mutation, used both by the
//! `crash_writer` binary (which gets SIGKILLed mid-stream) and by the
//! `crash_recovery` test (which replays the same commits on a reference
//! store to decide what a correctly recovered graph must look like).
//!
//! Commit `k` is uniquely witnessed by the vertex with primary key
//! [`pk_of`]`(k)`, so the recovered store's durable prefix can be read
//! back without any side-channel from the killed writer. Every WAL
//! record either survives whole or not at all, so recovery must surface
//! the state after commit `m` for some `m < commits` — never a torn
//! in-between.

use gfcl_common::{DataType, Result, Value};
use gfcl_storage::{Cardinality, Catalog, GraphStore, PropertyDef, RawGraph, StorageConfig};
use std::path::Path;

/// Primary key of the `A` vertex inserted by commit `k`.
pub fn pk_of(k: u64) -> i64 {
    10_000 + k as i64
}

/// The deterministic baseline: two keyed labels, a ManyMany edge with a
/// payload, and a ManyOne edge — the same shapes the interleave suite
/// mutates.
pub fn base_raw() -> RawGraph {
    use DataType::Int64;
    let mut cat = Catalog::new();
    let a = cat
        .add_vertex_label(
            "A",
            vec![
                PropertyDef::new("id", Int64),
                PropertyDef::new("x", Int64),
                PropertyDef::new("tag", DataType::String),
            ],
        )
        .unwrap();
    let b = cat
        .add_vertex_label("B", vec![PropertyDef::new("id", Int64), PropertyDef::new("y", Int64)])
        .unwrap();
    let ab = cat
        .add_edge_label("AB", a, b, Cardinality::ManyMany, vec![PropertyDef::new("w", Int64)])
        .unwrap();
    let sg = cat.add_edge_label("SINGLE", a, b, Cardinality::ManyOne, vec![]).unwrap();
    cat.set_primary_key(a, "id").unwrap();
    cat.set_primary_key(b, "id").unwrap();

    let mut raw = RawGraph::new(cat);
    let (n_a, n_b) = (8usize, 6usize);
    raw.vertices[a as usize].count = n_a;
    for v in 0..n_a {
        raw.vertices[a as usize].props[0].push_i64(v as i64);
        raw.vertices[a as usize].props[1].push_i64((v as i64 * 3) % 7);
        raw.vertices[a as usize].props[2].push_str(format!("seed-{v}"));
    }
    raw.vertices[b as usize].count = n_b;
    for v in 0..n_b {
        raw.vertices[b as usize].props[0].push_i64(v as i64);
        raw.vertices[b as usize].props[1].push_i64(v as i64 - 2);
    }
    for (src, dst, w) in [(0u64, 1u64, 5i64), (1, 2, -3), (2, 0, 8), (7, 5, 0)] {
        let t = &mut raw.edges[ab as usize];
        t.src.push(src);
        t.dst.push(dst);
        t.props[0].push_i64(w);
    }
    for (src, dst) in [(0u64, 0u64), (3, 2), (6, 4)] {
        let t = &mut raw.edges[sg as usize];
        t.src.push(src);
        t.dst.push(dst);
    }
    raw.validate().unwrap();
    raw
}

/// Apply commit `k`'s batch to `store` and commit it durably. Each batch
/// inserts the witness vertex, wires it into both edge labels, and (for
/// variety across the WAL) updates and tombstones earlier state on a
/// fixed schedule.
pub fn apply_commit(store: &GraphStore, k: u64) -> Result<u64> {
    let mut txn = store.begin_write();
    let off = txn.insert_vertex(
        "A",
        &[
            ("id", Value::Int64(pk_of(k))),
            ("x", Value::Int64(k as i64)),
            ("tag", Value::String(format!("commit-{k}"))),
        ],
    )?;
    let b = k % 6;
    txn.insert_edge("AB", off, b, &[("w", Value::Int64(k as i64 - 10))])?;
    if k.is_multiple_of(2) {
        txn.insert_edge("SINGLE", off, (k + 1) % 6, &[])?;
    }
    if k.is_multiple_of(3) {
        if let Some(prev) = txn.lookup_pk("A", pk_of(k.saturating_sub(3)))? {
            txn.update_vertex("A", prev, &[("x", Value::Int64(-(k as i64)))])?;
        }
    }
    if k % 7 == 4 {
        // Tombstone a baseline edge once per cycle; misses after the
        // first cycle are fine.
        let _ = txn.delete_edge("AB", 0, 1);
    }
    txn.commit()
}

/// Run the whole writer protocol against the store at `dir`: create (or
/// reopen) and apply commits `start..commits`, merging every fifth commit
/// so the torture harness also kills inside the merge's rename window.
pub fn run_writer(dir: &Path, commits: u64) -> Result<()> {
    let store = if dir.join("graph.gfcl").exists() {
        GraphStore::open(dir, StorageConfig::default())?
    } else {
        GraphStore::create(dir, &base_raw(), StorageConfig::default())?
    };
    // Resume after the last durable witness so reopened runs extend the
    // prefix instead of colliding on primary keys.
    let snap = store.snapshot();
    let view = snap.view();
    let mut start = 0u64;
    while view.lookup_pk(0, pk_of(start)).is_some() {
        start += 1;
    }
    drop(snap);
    // The harness reads these lines over a pipe to aim its SIGKILL at a
    // specific commit boundary, so every line must be flushed eagerly
    // (piped stdout is block-buffered).
    use std::io::Write;
    let mut out = std::io::stdout();
    for k in start..commits {
        apply_commit(&store, k)?;
        writeln!(out, "committed {k}").and_then(|()| out.flush()).map_err(io_line)?;
        if k % 5 == 4 {
            store.merge()?;
            writeln!(out, "merged {k}").and_then(|()| out.flush()).map_err(io_line)?;
        }
    }
    Ok(())
}

fn io_line(e: std::io::Error) -> gfcl_common::Error {
    gfcl_common::Error::Storage(format!("crash_writer stdout: {e}"))
}

/// The reference state after commits `0..=m` (exclusive of nothing): a
/// fresh in-memory store with the same batches applied. Recovery is
/// correct iff the recovered graph answers queries exactly like one of
/// these references.
pub fn reference_store(m_plus_one: u64) -> GraphStore {
    let store = GraphStore::in_memory(&base_raw(), StorageConfig::default()).unwrap();
    for k in 0..m_plus_one {
        apply_commit(&store, k).unwrap();
    }
    store
}
