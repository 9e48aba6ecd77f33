//! JOB-style star joins over an IMDb-like movie graph: run a selection of
//! the 33 JOB queries on all four engines and compare runtimes — the
//! Section 8.7.2 experiment in miniature.
//!
//! ```sh
//! cargo run --release --example movie_star_joins
//! ```

use std::sync::Arc;
use std::time::Instant;

use gfcl::datagen::{generate_movies, MovieParams};
use gfcl::workloads::job;
use gfcl::{
    ColumnarGraph, Config, Engine, GfClEngine, GfCvEngine, GfRvEngine, RelEngine, RowGraph,
    StorageConfig,
};

fn main() -> gfcl::Result<()> {
    let config = Config::from_env()?;
    let titles = 4_000;
    println!("generating IMDb-like movie graph with {titles} titles ...");
    let raw = generate_movies(MovieParams::scale(titles));
    println!("  {} vertices, {} edges", raw.total_vertices(), raw.total_edges());

    let columnar = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let row = Arc::new(RowGraph::build(&raw).unwrap());
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(GfClEngine::with_options(columnar.clone(), config.exec)),
        Box::new(GfCvEngine::new(columnar.clone())),
        Box::new(GfRvEngine::new(row)),
        Box::new(RelEngine::new(columnar)),
    ];

    let picks = ["2a", "6a", "14a", "17a", "25a", "31a"];
    println!("\n{:>5} | {:>12} | runtime per engine", "query", "count");
    for name in picks {
        let q = job::query(name).expect("known query");
        print!("{name:>5} | ");
        let mut count = None;
        let mut cells = Vec::new();
        for engine in &engines {
            let t0 = Instant::now();
            let out = engine.execute(&q).unwrap();
            let dt = t0.elapsed();
            match count {
                None => count = Some(out.cardinality()),
                Some(c) => assert_eq!(c, out.cardinality(), "engines disagree on {name}"),
            }
            cells.push(format!("{}={:?}", engine.name(), dt));
        }
        println!("{:>12} | {}", count.unwrap(), cells.join("  "));
    }
    println!("\nAll engines returned identical counts.");
    Ok(())
}
