//! Interactive text-query shell over the frontend: type a query, see rows;
//! prefix with `:explain` to see the optimizer's plan instead.
//!
//! ```sh
//! cargo run --release --example query_repl              # Figure 1 example graph
//! cargo run --release --example query_repl -- social 200  # LDBC-like, 200 persons
//! cargo run --release --example query_repl -- movies 100  # IMDb-like JOB graph
//! ```
//!
//! Commands:
//!
//! - `:schema`           — list labels and their typed properties
//! - `:explain <query>`  — compile and show the EXPLAIN rendering
//! - `:quit`             — exit (also Ctrl-D)
//!
//! Anything else is compiled (parse → bind) and executed on the list-based
//! GF-CL engine; frontend errors print their caret diagnostics. The
//! `GFCL_*` variables (`GFCL_THREADS`, `GFCL_TIME_LIMIT_MS`, ...) set how
//! queries are run.

use std::io::{BufRead, Write as _};
use std::sync::Arc;

use gfcl::datagen::{MovieParams, SocialParams};
use gfcl::{ColumnarGraph, Config, Engine, GfClEngine, QueryOutput, RawGraph, StorageConfig};

fn build_graph() -> RawGraph {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = args.get(1).and_then(|s| s.parse().ok());
    match args.first().map(String::as_str) {
        Some("social") => gfcl::datagen::generate_social(SocialParams::scale(scale.unwrap_or(100))),
        Some("movies") => gfcl::datagen::generate_movies(MovieParams::scale(scale.unwrap_or(100))),
        Some(other) => {
            eprintln!("unknown dataset {other:?} (expected `social` or `movies`); using example");
            RawGraph::example()
        }
        None => RawGraph::example(),
    }
}

fn print_schema(engine: &GfClEngine) {
    let catalog = engine.catalog();
    println!("node labels:");
    for def in catalog.vertex_labels() {
        let props: Vec<String> =
            def.properties.iter().map(|p| format!("{}: {:?}", p.name, p.dtype)).collect();
        println!("  ({}) {{{}}}", def.name, props.join(", "));
    }
    println!("edge labels:");
    for def in catalog.edge_labels() {
        let props: Vec<String> =
            def.properties.iter().map(|p| format!("{}: {:?}", p.name, p.dtype)).collect();
        println!(
            "  ({})-[{}]->({}) {{{}}}",
            catalog.vertex_label(def.src).name,
            def.name,
            catalog.vertex_label(def.dst).name,
            props.join(", ")
        );
    }
}

fn print_output(out: &QueryOutput) {
    match out {
        QueryOutput::Rows { header, rows } => {
            println!("{}", header.join(" | "));
            for r in rows {
                let cells: Vec<String> = r.iter().map(ToString::to_string).collect();
                println!("{}", cells.join(" | "));
            }
            println!("({} rows)", rows.len());
        }
        other => println!("{other:?}"),
    }
}

/// Compile `text` and plan it.
fn plan(engine: &GfClEngine, text: &str) -> gfcl::Result<gfcl::LogicalPlan> {
    engine.plan(&gfcl::frontend::compile(text, engine.catalog())?)
}

fn main() -> gfcl::Result<()> {
    let config = Config::from_env()?;
    let raw = build_graph();
    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default())?);
    let engine = GfClEngine::with_options(graph, config.exec);
    println!(
        "{} vertices, {} edges loaded. `:schema` lists labels, `:explain <q>` shows the plan,\n\
         `:quit` exits. Example:\n  MATCH (a:PERSON)-[e:WORKAT]->(b:ORG) RETURN a.name, b.name",
        raw.total_vertices(),
        raw.total_edges()
    );

    let stdin = std::io::stdin();
    loop {
        print!("gql> ");
        std::io::stdout().flush().unwrap();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if line == ":schema" {
            print_schema(&engine);
            continue;
        }
        if let Some(text) = line.strip_prefix(":explain") {
            match plan(&engine, text.trim()) {
                Ok(p) => print!("{}", gfcl::optimize::render_explain(&p, engine.catalog())),
                Err(e) => println!("{e}"),
            }
            continue;
        }
        match plan(&engine, line).and_then(|p| engine.run_plan(&p)) {
            Ok(out) => print_output(&out),
            Err(e) => println!("{e}"),
        }
    }
    Ok(())
}
