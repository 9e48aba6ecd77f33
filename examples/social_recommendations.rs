//! Friend-of-friend recommendation analytics over an LDBC-like social
//! network — the many-to-many join workload the paper's intro motivates —
//! comparing the list-based processor against the Volcano baselines.
//!
//! ```sh
//! cargo run --release --example social_recommendations
//! ```

use std::sync::Arc;
use std::time::Instant;

use gfcl::datagen::{generate_social, SocialParams};
use gfcl::query::{col, eq, ge, lit, lit_date, PatternQuery};
use gfcl::{
    ColumnarGraph, Config, Engine, GfClEngine, GfCvEngine, GfRvEngine, RowGraph, StorageConfig,
};

fn main() -> gfcl::Result<()> {
    let config = Config::from_env()?;
    let persons = 2_000;
    println!("generating LDBC-like social network with {persons} persons ...");
    let raw = generate_social(SocialParams::scale(persons));
    println!("  {} vertices, {} edges", raw.total_vertices(), raw.total_edges());

    let columnar = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    let row = Arc::new(RowGraph::build(&raw).unwrap());
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(GfClEngine::with_options(columnar.clone(), config.exec)),
        Box::new(GfCvEngine::new(columnar)),
        Box::new(GfRvEngine::new(row)),
    ];

    // 1. How many friend-of-friend candidates does person 42 have?
    let fof = PatternQuery::builder()
        .node("p", "Person")
        .node("f", "Person")
        .node("ff", "Person")
        .edge("k1", "knows", "p", "f")
        .edge("k2", "knows", "f", "ff")
        .filter(eq(col("p", "id"), lit(42)))
        .returns_count()
        .build();

    // 2. Recently active candidates: friends-of-friends who wrote a recent
    //    comment (a 3-step many-to-many join).
    let active = PatternQuery::builder()
        .node("p", "Person")
        .node("f", "Person")
        .node("ff", "Person")
        .node("c", "Comment")
        .edge("k1", "knows", "p", "f")
        .edge("k2", "knows", "f", "ff")
        .edge("hc", "hasCreator", "c", "ff")
        .filter(eq(col("p", "id"), lit(42)))
        .filter(ge(col("c", "creationDate"), lit_date(1_450_000_000)))
        .returns_count()
        .build();

    // 3. Global 2-hop reach — the COUNT(*) aggregation where factorized
    //    processing shines (Section 8.6).
    let reach = PatternQuery::builder()
        .node("a", "Person")
        .node("b", "Person")
        .node("c", "Person")
        .edge("k1", "knows", "a", "b")
        .edge("k2", "knows", "b", "c")
        .returns_count()
        .build();

    for (name, query) in [
        ("friend-of-friend candidates for p42", &fof),
        ("recently active candidates", &active),
        ("global 2-hop reach", &reach),
    ] {
        println!("\n== {name} ==");
        for engine in &engines {
            let t0 = Instant::now();
            let out = engine.execute(query).unwrap();
            let dt = t0.elapsed();
            println!("  {:6}  count={:<12}  {:?}", engine.name(), out.cardinality(), dt);
        }
    }
    Ok(())
}
