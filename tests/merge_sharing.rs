//! The merge-sharing gate: a merge rebuilds the labels its delta touched
//! and shares every other label's built parts with the old baseline by
//! pointer, counted exactly on the benchmark's write shape.
//!
//! The workload is `mixed_rw.store`'s write half (`support/write_cycle.rs`)
//! on an in-memory store over the benchmark's 5 000-person graph, merged
//! after 400 cycles, as the benchmark merges, and again after 400 more:
//!
//! * the first merge grows `Person` from 5 000 to 5 004 vertices (400
//!   inserts, 396 of them deleted again), which moves the vertex count
//!   every `Person`-incident edge label's lists are laid out over, so it
//!   rebuilds `Person` and those edge labels;
//! * the second deletes the 4 survivors of the first interval — the top 4
//!   `Person` offsets, so no surviving vertex is renumbered — and keeps 4
//!   new ones, so `Person` keeps its count and only `Person` (rows,
//!   updates, tombstones) and `knows` (delta edges, cascaded tombstones)
//!   are rebuilt.
//!
//! A rebuild of a label the writes do not reach — a whole-graph rebuild,
//! or a touch rule that ignores where offsets move — fails a count here.

#[path = "support/write_cycle.rs"]
mod write_cycle;

use std::sync::Arc;

use gfcl::datagen::SocialParams;
use gfcl::{GraphStore, LabelId, StatementOutput, StorageConfig};

use write_cycle::statements;

/// Cycles between merges: the benchmark's merge interval.
const CYCLES: i64 = 400;

/// Names of the labels whose built parts `merge` replaced rather than
/// shared: `(vertex labels, edge labels)`.
fn rebuilt(store: &GraphStore) -> (Vec<String>, Vec<String>) {
    let before = store.snapshot();
    store.merge().unwrap();
    let after = store.snapshot();
    let (old, new) = (before.base(), after.base());
    let catalog = new.catalog();
    let vertices = (0..catalog.vertex_label_count() as LabelId)
        .filter(|&l| !Arc::ptr_eq(old.vertex_label_parts(l), new.vertex_label_parts(l)))
        .map(|l| catalog.vertex_label(l).name.clone())
        .collect();
    let edges = (0..catalog.edge_label_count() as LabelId)
        .filter(|&l| !Arc::ptr_eq(old.edge_label_parts(l), new.edge_label_parts(l)))
        .map(|l| catalog.edge_label(l).name.clone())
        .collect();
    (vertices, edges)
}

#[test]
fn merges_rebuild_exactly_the_labels_the_writes_touch() {
    let raw = gfcl::datagen::generate_social(SocialParams::scale(5_000));
    let catalog = raw.catalog.clone();
    let person = catalog.vertex_label_id("Person").unwrap();
    let persons = raw.vertex_count(person) as i64;
    let store = GraphStore::in_memory(&raw, StorageConfig::default()).unwrap();
    drop(raw);
    let (n_vertex, n_edge) = (catalog.vertex_label_count(), catalog.edge_label_count());

    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    let mut merges = Vec::new();
    for interval in 0..2 {
        for cycle in interval * CYCLES..(interval + 1) * CYCLES {
            for text in statements(cycle, persons, &mut rng) {
                match gfcl::execute_statement(&store, &text) {
                    Ok(StatementOutput::Mutation { ops: 1, .. }) => {}
                    other => panic!("cycle {cycle}: `{text}` gave {other:?}"),
                }
            }
        }
        merges.push(rebuilt(&store));
    }

    println!("merge  rebuilt vertex labels  rebuilt edge labels  shared (vertex + edge)");
    for (i, (v, e)) in merges.iter().enumerate() {
        println!(
            "{:>5}  {:>21}  {:>19}  {:>3} + {}",
            i + 1,
            v.len(),
            e.len(),
            n_vertex - v.len(),
            n_edge - e.len()
        );
    }

    let person_incident: Vec<String> = catalog
        .edge_labels()
        .iter()
        .filter(|def| def.src == person || def.dst == person)
        .map(|def| def.name.clone())
        .collect();
    assert_eq!(person_incident.len(), 10, "the social schema changed");
    assert_eq!(merges[0], (vec!["Person".to_owned()], person_incident));
    assert_eq!(merges[1], (vec!["Person".to_owned()], vec!["knows".to_owned()]));
    assert_eq!((n_vertex - 1, n_edge - 1), (7, 17), "the second merge shares the rest");
}
