//! Quickstart: build the paper's Figure 1 running example graph, run
//! Example 1's query on all four engines, and inspect the storage.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use gfcl::query::{col, gt, lit, lt, PatternQuery};
use gfcl::{
    human_bytes, ColumnarGraph, Config, Engine, GfClEngine, GfCvEngine, GfRvEngine, MemoryUsage,
    QueryOutput, RawGraph, RelEngine, RowGraph, StorageConfig,
};

fn main() -> gfcl::Result<()> {
    // `GFCL_THREADS` and the other `GFCL_*` variables, parsed once.
    let config = Config::from_env()?;
    // The running example: 4 PERSONs, 2 ORGs, FOLLOWS/STUDYAT/WORKAT edges.
    let raw = RawGraph::example();
    println!(
        "graph: {} vertices, {} edges, {} vertex labels, {} edge labels",
        raw.total_vertices(),
        raw.total_edges(),
        raw.catalog.vertex_label_count(),
        raw.catalog.edge_label_count()
    );

    // Build both storage layouts.
    let columnar = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let row = Arc::new(RowGraph::build(&raw).unwrap());
    println!(
        "columnar storage: {}   row storage: {}",
        human_bytes(columnar.memory_bytes()),
        human_bytes(row.memory_bytes())
    );

    // Example 1 of the paper:
    //   MATCH (a:PERSON)-[e:WORKAT]->(b:ORG)
    //   WHERE a.age > 22 AND b.estd < 2015 RETURN *
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "ORG")
        .edge("e", "WORKAT", "a", "b")
        .filter(gt(col("a", "age"), lit(22)))
        .filter(lt(col("b", "estd"), lit(2015)))
        .returns(&[("a", "name"), ("a", "age"), ("b", "name"), ("e", "doj")])
        .build();

    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(GfClEngine::with_options(columnar.clone(), config.exec)),
        Box::new(GfCvEngine::new(columnar.clone())),
        Box::new(GfRvEngine::new(row)),
        Box::new(RelEngine::new(columnar)),
    ];
    for engine in &engines {
        let out = engine.execute(&q).unwrap();
        println!("\n[{}]", engine.name());
        match out {
            QueryOutput::Rows { header, rows } => {
                println!("  {}", header.join(" | "));
                for r in rows {
                    let cells: Vec<String> = r.iter().map(ToString::to_string).collect();
                    println!("  {}", cells.join(" | "));
                }
            }
            other => println!("  {other:?}"),
        }
    }
    Ok(())
}
