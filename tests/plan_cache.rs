//! The GF-CL plan cache: a text query run through `gfcl::query_on` on one
//! engine plans once per literal-normalised template and reruns the stored
//! plan with each call's literals. These tests check that it is invisible:
//!
//! * **equivalence** — all 77 corpus queries × 3 parameter draws answer
//!   byte-identically to the uncached `run_plan(plan(compile(text)))`, and
//!   every reused template's plan has the start, step sequence and slot
//!   table the planner builds afresh for the new literals (the
//!   literal-invariance rule, checked rather than assumed);
//! * **pooled state** — every call runs twice back to back, so the chunk a
//!   template's call hands back is reused at once; a call that trips its
//!   memory budget mid-drain, or runs on a canceled handle, leaves no chunk
//!   behind, and the next draws still answer as uncached; four threads
//!   hitting one template at once never hold more chunks than callers;
//! * **edge cases** — every case either hits correctly or falls back
//!   correctly, with the uncached path's exact diagnostics;
//! * **counters** — hits, misses, unreusable templates and evictions.
//!
//! GF-CL runs under the process configuration, so CI runs this binary
//! serially and under `GFCL_THREADS=4`.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use gfcl::datagen::{MovieParams, PowerLawParams, SocialParams};
use gfcl::frontend::{lexer, template};
use gfcl::plan::{LogicalPlan, PlanExpr, PlanScalar, PlanStep};
use gfcl::workloads::corpus::{self, CorpusEntry};
use gfcl::workloads::LdbcParams;
use gfcl::{
    CachedPlan, CancelReason, ColumnarGraph, Config, Engine, GfClEngine, RawGraph, StorageConfig,
    PLAN_CACHE_CAPACITY,
};

fn engine(raw: &RawGraph) -> GfClEngine {
    let graph = Arc::new(ColumnarGraph::build(raw, StorageConfig::default()).unwrap());
    GfClEngine::with_options(graph, Config::from_env().expect("GFCL_* configuration").exec)
}

fn social() -> RawGraph {
    gfcl::datagen::generate_social(SocialParams::scale(80))
}

/// Three parameter draws for the 80-person social graph: every value a
/// corpus template substitutes changes between draws.
fn draws() -> [LdbcParams; 3] {
    let base = LdbcParams::for_scale(80);
    [
        base,
        LdbcParams {
            person_id: 7,
            comment_id: 101,
            max_date: 1_350_000_000,
            window_lo: 1_250_000_000,
            window_hi: 1_450_000_000,
            member_since: 1_300_000_000,
        },
        LdbcParams { person_id: 63, comment_id: 555, max_date: 1_500_000_000, ..base },
    ]
}

/// The uncached path, rendered: the canonical answer or the error text.
fn uncached(engine: &GfClEngine, text: &str) -> String {
    let out = gfcl::frontend::compile(text, engine.catalog())
        .map_err(gfcl::Error::from)
        .and_then(|q| engine.plan(&q))
        .and_then(|p| engine.run_plan(&p));
    render(out)
}

fn render(out: gfcl::Result<gfcl::QueryOutput>) -> String {
    match out {
        Ok(o) => o.canonical(),
        Err(e) => format!("error: {e}"),
    }
}

/// The template the engine has stored for `text`, if any.
fn cached_plan(engine: &GfClEngine, text: &str) -> Option<Arc<CachedPlan>> {
    let toks = lexer::lex(text).ok()?;
    let sig = template::signature(text, &toks).ok()?;
    engine.plan_cache()?.get(&sig.key)
}

/// A plan with its constants and parameters masked: the start, the step
/// sequence and the slot table, but no literal values.
fn shape(p: &LogicalPlan) -> String {
    fn expr(e: &PlanExpr) -> String {
        let scalar = |s: &PlanScalar| match s {
            PlanScalar::Slot(i) => format!("${i}"),
            PlanScalar::Const(_) | PlanScalar::Param(_) => "?".to_owned(),
        };
        match e {
            PlanExpr::Cmp { op, lhs, rhs } => format!("{} {op:?} {}", scalar(lhs), scalar(rhs)),
            PlanExpr::StrMatch { op, slot, pattern } => format!("${slot} {op:?} {pattern:?}"),
            PlanExpr::InSet { slot, values } => format!("${slot} in {values:?}"),
            PlanExpr::And(es) => {
                format!("and({})", es.iter().map(expr).collect::<Vec<_>>().join(","))
            }
            PlanExpr::Or(es) => {
                format!("or({})", es.iter().map(expr).collect::<Vec<_>>().join(","))
            }
            PlanExpr::Not(inner) => format!("not({})", expr(inner)),
        }
    }
    let steps: Vec<String> = p
        .steps
        .iter()
        .map(|s| match s {
            PlanStep::ScanAll { node, pushed } => {
                format!("scan {node} [{}]", pushed.iter().map(expr).collect::<Vec<_>>().join(";"))
            }
            PlanStep::ScanPk { node, .. } => format!("seek {node}"),
            PlanStep::Filter { expr: e } => format!("filter {}", expr(e)),
            other => format!("{other:?}"),
        })
        .collect();
    format!(
        "{}\nslots {:?}\nret {:?} {:?} {:?} {:?} {}",
        steps.join("\n"),
        p.slots,
        p.ret,
        p.header,
        p.order_by,
        p.limit,
        p.distinct
    )
}

/// Every entry of every draw through the cache on one engine, twice back
/// to back: both answers as uncached, and every hit's plan shaped as a
/// fresh plan for its literals. Returns the first calls that hit; a stored
/// template's second call always hits too, and fetching each stored plan
/// to compare it counts one more hit per first call that hit.
fn check_suite(engine: &GfClEngine, draws: &[Vec<CorpusEntry>]) -> u64 {
    let mut hits = 0;
    for (d, entries) in draws.iter().enumerate() {
        for e in entries {
            let before = engine.plan_cache_stats().hits;
            let cached = render(gfcl::query_on(engine, &e.text));
            let want = uncached(engine, &e.text);
            assert_eq!(cached, want, "{} (draw {d}): cached answer", e.name);
            let first_hit = engine.plan_cache_stats().hits > before;
            // The same call at once: a stored template reruns on the chunk
            // the first call handed back.
            let again = render(gfcl::query_on(engine, &e.text));
            assert_eq!(again, want, "{} (draw {d}): the same call again", e.name);
            if !first_hit {
                continue;
            }
            hits += 1;
            let stored = cached_plan(engine, &e.text).expect("a template that hit is stored");
            // One caller at a time: never more chunks than its workers.
            let workers = engine.options().threads;
            assert!(stored.pooled_chunks() <= workers, "{} (draw {d}): pool", e.name);
            let fresh = gfcl::frontend::compile(&e.text, engine.catalog())
                .map_err(gfcl::Error::from)
                .and_then(|q| engine.plan(&q))
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert_eq!(shape(stored.plan()), shape(&fresh), "{} (draw {d}): reused plan", e.name);
        }
    }
    hits
}

#[test]
fn corpus_answers_match_the_uncached_path_on_every_draw() {
    let social = engine(&social());
    let ldbc: Vec<_> = draws().iter().map(corpus::ldbc_corpus).collect();
    let ga: Vec<_> = draws().iter().map(corpus::ga_corpus).collect();
    let movies = engine(&gfcl::datagen::generate_movies(MovieParams::scale(80)));
    let job: Vec<_> = (0..3).map(|_| corpus::job_corpus()).collect();
    let powerlaw = engine(&gfcl::datagen::generate_powerlaw(PowerLawParams {
        nodes: 1000,
        avg_degree: 5.0,
        exponent: 1.8,
        seed: 7,
    }));
    let khop: Vec<_> = (0..3).map(|_| corpus::khop_corpus()).collect();
    assert_eq!(
        [&ldbc, &ga, &job, &khop].iter().map(|d| d[0].len()).sum::<usize>(),
        77,
        "18 LDBC + 8 GA + 33 JOB + 18 k-hop"
    );

    let social_hits = check_suite(&social, &ldbc) + check_suite(&social, &ga);
    let movie_hits = check_suite(&movies, &job);
    let khop_hits = check_suite(&powerlaw, &khop);
    // The draws change literals only, so a stored template's first call
    // misses on its first draw and hits on the other two, and its second
    // call hits on all three; an unreusable one misses and plans per call
    // every time.
    for (name, e, hits, templates) in [
        ("social", &social, social_hits, 26),
        ("movies", &movies, movie_hits, 33),
        ("k-hop", &powerlaw, khop_hits, 18),
    ] {
        let s = e.plan_cache_stats();
        let stored = e.plan_cache().unwrap().len() as u64;
        println!("{name}: {stored} of {templates} templates stored, {hits} hits, {s:?}");
        assert_eq!(hits, 2 * stored, "{name}: {s:?}");
        assert_eq!(s.hits, 2 * hits + 3 * stored, "{name}: {s:?}");
        assert_eq!(s.misses, stored + s.not_reusable, "{name}: {s:?}");
        assert_eq!(stored + s.not_reusable / 6, templates, "{name}: {s:?}");
        assert_eq!(s.evictions, 0);
    }
}

/// One case of the edge-case table: a text and whether it must hit.
struct Case {
    text: String,
    hit: bool,
}

fn case(text: impl Into<String>, hit: bool) -> Case {
    Case { text: text.into(), hit }
}

/// Run `cases` in order on one engine: every answer (or error) equals the
/// uncached path's, and each call hits exactly when the case says so.
#[track_caller]
fn run_cases(engine: &GfClEngine, cases: &[Case]) {
    for c in cases {
        let before = engine.plan_cache_stats().hits;
        let cached = render(gfcl::query_on(engine, &c.text));
        assert_eq!(cached, uncached(engine, &c.text), "{}", c.text);
        let hit = engine.plan_cache_stats().hits > before;
        assert_eq!(hit, c.hit, "hit expected {} for {}", c.hit, c.text);
    }
}

#[test]
fn whitespace_comments_and_keyword_case() {
    let e = engine(&social());
    run_cases(
        &e,
        &[
            case("MATCH (p:Person) WHERE p.id = 5 RETURN p.fName, p.lName", false),
            case(
                "MATCH (p:Person)\n  // the profile\n  WHERE p.id=6 -- six\nRETURN p.fName,p.lName",
                true,
            ),
            // Keywords keep their spelling in the key: another template.
            case("match (p:Person) where p.id = 7 return p.fName, p.lName", false),
            case("match (p:Person) where p.id = 8 return p.fName, p.lName", true),
        ],
    );
}

#[test]
fn literal_types_signs_and_extremes() {
    let e = engine(&social());
    run_cases(
        &e,
        &[
            // Int vs Str in one position: the Str text is a bind error on
            // every call, never a template.
            case("MATCH (p:Person) WHERE p.id = 5 RETURN p.fName", false),
            case("MATCH (p:Person) WHERE p.id = '5' RETURN p.fName", false),
            case("MATCH (p:Person) WHERE p.id = '6' RETURN p.fName", false),
            case("MATCH (p:Person) WHERE p.fName = 'x' RETURN p.id", false),
            case("MATCH (p:Person) WHERE p.fName = 7 RETURN p.id", false),
            // date(n) vs a plain integer in one position: two templates.
            case("MATCH (c:Comment) WHERE c.creationDate = date(1300000000) RETURN c.id", false),
            case("MATCH (c:Comment) WHERE c.creationDate = 1300000000 RETURN c.id", false),
            case("MATCH (c:Comment) WHERE c.creationDate = date(1313591219) RETURN c.id", true),
            case("MATCH (c:Comment) WHERE c.creationDate = 1313591219 RETURN c.id", true),
            // Signs: `-` is a token of the key, the magnitude a parameter.
            case("MATCH (p:Person) WHERE p.id = -5 RETURN p.fName", false),
            case("MATCH (p:Person) WHERE p.id = -9223372036854775808 RETURN p.fName", true),
            case("MATCH (p:Person) WHERE p.id = 9223372036854775807 RETURN p.fName", true),
            // Out of range on what would be a hit: the lexer's diagnostic.
            case("MATCH (p:Person) WHERE p.id = -9223372036854775809 RETURN p.fName", false),
            case("MATCH (p:Person) WHERE p.id = 9223372036854775808 RETURN p.fName", false),
            // A literal on the left.
            case("MATCH (p:Person) WHERE 12 = p.id RETURN p.fName", false),
            case("MATCH (p:Person) WHERE 13 = p.id RETURN p.fName", true),
        ],
    );
    let err =
        gfcl::query_on(&e, "MATCH (p:Person) WHERE p.id = 9223372036854775808 RETURN p.fName")
            .unwrap_err()
            .to_string();
    assert!(err.contains("is out of range"), "{err}");
}

#[test]
fn fixed_literals_and_bind_errors() {
    let e = engine(&social());
    run_cases(
        &e,
        &[
            case("MATCH (p:Person) WHERE p.gender = 'male' RETURN p.id LIMIT 10", false),
            // LIMIT is part of the key: never reused across limits.
            case("MATCH (p:Person) WHERE p.gender = 'male' RETURN p.id LIMIT 20", false),
            case("MATCH (p:Person) WHERE p.gender = 'female' RETURN p.id LIMIT 10", true),
            case("MATCH (p:Person) WHERE p.gender = 'female' RETURN p.id LIMIT 20", true),
            case("MATCH (p:Person) WHERE p.fName CONTAINS 'a' AND p.id = 3 RETURN p.id", false),
            case("MATCH (p:Person) WHERE p.fName CONTAINS 'e' AND p.id = 3 RETURN p.id", false),
            case("MATCH (p:Person) WHERE p.fName CONTAINS 'e' AND p.id = 4 RETURN p.id", true),
            case("MATCH (p:Person) WHERE p.gender IN ['male'] AND p.id = 3 RETURN p.id", false),
            case("MATCH (p:Person) WHERE p.gender IN ['female'] AND p.id = 3 RETURN p.id", false),
            case("MATCH (p:Person) WHERE p.gender IN ['female'] AND p.id = 9 RETURN p.id", true),
            // A bind error is never cached.
            case("MATCH (p:Persn) WHERE p.id = 1 RETURN p.id", false),
            case("MATCH (p:Persn) WHERE p.id = 2 RETURN p.id", false),
            case("MATCH (p:Person) WHERE p.idd = 1 RETURN p.id", false),
            case("MATCH (p:Person) WHERE p.idd = 1 RETURN p.id", false),
        ],
    );
    let err = gfcl::query_on(&e, "MATCH (p:Persn) WHERE p.id = 1 RETURN p.id").unwrap_err();
    assert!(err.to_string().contains("did you mean `Person`?"), "{err}");
}

#[test]
fn range_templates_plan_per_call_and_never_hit() {
    let e = engine(&social());
    for lo in [1_250_000_000, 1_300_000_000, 1_350_000_000] {
        let text = format!("MATCH (c:Comment) WHERE c.creationDate > date({lo}) RETURN count(*)");
        assert_eq!(render(gfcl::query_on(&e, &text)), uncached(&e, &text));
    }
    let s = e.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.not_reusable), (0, 3, 3));
    assert_eq!(e.plan_cache().unwrap().len(), 0);
}

#[test]
fn more_templates_than_capacity_evict_and_stay_right() {
    let e = engine(&social());
    let n = PLAN_CACHE_CAPACITY + 10;
    // A distinct variable name per template makes a distinct key.
    let text = |i: usize, id: usize| {
        format!("MATCH (p{i}:Person)-[k:knows]->(f:Person) WHERE p{i}.id = {id} RETURN f.fName")
    };
    for round in 0..2 {
        for i in 0..n {
            let t = text(i, (i + round) % 80);
            assert_eq!(render(gfcl::query_on(&e, &t)), uncached(&e, &t), "{t}");
        }
    }
    let s = e.plan_cache_stats();
    assert_eq!(e.plan_cache().unwrap().len(), PLAN_CACHE_CAPACITY);
    // Cycling through more templates than fit evicts on every insertion
    // past the capacity, and LRU order then never finds the next one.
    assert_eq!(s.misses, 2 * n as u64);
    assert_eq!(s.evictions, 2 * n as u64 - PLAN_CACHE_CAPACITY as u64);
    assert_eq!(s.hits, 0);
}

#[test]
fn one_engine_shared_by_four_threads_answers_as_serial_runs() {
    const CALLERS: usize = 4;
    let raw = social();
    let shared = engine(&raw);
    let reference = engine(&raw);
    let texts: Vec<Vec<String>> = draws()
        .iter()
        .chain(draws().iter())
        .map(|p| corpus::ldbc_corpus(p).into_iter().map(|e| e.text).collect())
        .collect();
    let expected: Vec<Vec<String>> =
        texts.iter().map(|ts| ts.iter().map(|t| uncached(&reference, t)).collect()).collect();
    // Every thread runs the same template at the same time, each with
    // another draw's literals: the callers of one template take chunks
    // from, and hand them back to, one pool at once. A wrong answer, or a
    // panic, is recorded rather than raised, so no thread leaves the
    // others waiting at the barrier.
    let barrier = std::sync::Barrier::new(CALLERS);
    let wrong: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CALLERS)
            .map(|w| {
                let (shared, texts, expected, barrier) = (&shared, &texts, &expected, &barrier);
                s.spawn(move || {
                    let mut wrong = Vec::new();
                    for round in 0..texts.len() {
                        let d = (round + w) % texts.len();
                        for (t, want) in texts[d].iter().zip(&expected[d]) {
                            barrier.wait();
                            let call = || render(gfcl::query_on(shared, t));
                            let got = std::panic::catch_unwind(AssertUnwindSafe(call))
                                .unwrap_or_else(|_| "a panic".to_owned());
                            if &got != want {
                                wrong.push(format!("worker {w}: {t}: {got}, want {want}"));
                            }
                        }
                    }
                    wrong
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(wrong.is_empty(), "{} wrong answers, the first: {}", wrong.len(), wrong[0]);
    let s = shared.plan_cache_stats();
    assert!(s.hits > 0, "{s:?}");
    assert_eq!(s.evictions, 0);
    // No knob bounds a pool: it never holds more chunks than the callers
    // that ran its template at once, each with its own workers.
    let workers = shared.options().threads;
    for t in &texts[0] {
        if let Some(stored) = cached_plan(&shared, t) {
            let pooled = stored.pooled_chunks();
            assert!(pooled <= CALLERS * workers, "{pooled} chunks pooled for {t}");
        }
    }
}

/// A call's outcome with a canceled call's timing left out: the elapsed
/// time and memory peak differ from run to run, the reason does not.
fn outcome(out: gfcl::Result<gfcl::QueryOutput>) -> String {
    match out {
        Err(gfcl::Error::Canceled { reason, .. }) => format!("canceled: {reason:?}"),
        other => render(other),
    }
}

#[test]
fn tripped_and_canceled_calls_drop_their_chunks() {
    let raw = social();
    let opts = Config::from_env().expect("GFCL_* configuration").exec;
    let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
    // 4 KiB of result rows: a man's friends trip it, a nobody's do not.
    let tight = GfClEngine::with_options(graph, opts.mem_limit_bytes(4 << 10));
    let handle = tight.cancel_handle().expect("GF-CL has a cancel handle");
    let text = |gender: &str| {
        format!(
            "MATCH (p:Person)-[k:knows]->(f:Person) WHERE p.gender = '{gender}' \
             RETURN p.fName, f.fName, k.date"
        )
    };
    let run = |t: &str| {
        let cached = outcome(gfcl::query_on(&tight, t));
        handle.reset();
        let want = outcome(
            gfcl::frontend::compile(t, tight.catalog())
                .map_err(gfcl::Error::from)
                .and_then(|q| tight.plan(&q))
                .and_then(|p| tight.run_plan(&p)),
        );
        handle.reset();
        assert_eq!(cached, want, "{t}");
        cached
    };
    assert_eq!(run(&text("nobody")), "rows[p.fName,f.fName,k.date]:");
    let stored = cached_plan(&tight, &text("nobody")).expect("stored");
    let pooled = stored.pooled_chunks();
    assert!(pooled >= 1, "a successful call hands its chunk back");

    // Mid-drain: the sink outgrows the budget after some states.
    assert_eq!(run(&text("male")), "canceled: Memory");
    assert!(stored.pooled_chunks() < pooled, "the tripped call keeps the chunk it took");

    // A canceled handle fails the call before it takes a chunk.
    gfcl::query_on(&tight, &text("nobody")).unwrap();
    let pooled = stored.pooled_chunks();
    handle.cancel(CancelReason::User);
    let err = gfcl::query_on(&tight, &text("nobody")).unwrap_err();
    assert!(matches!(err, gfcl::Error::Canceled { reason: CancelReason::User, .. }), "{err}");
    handle.reset();
    assert_eq!(stored.pooled_chunks(), pooled);

    // The next draws, over every LDBC and GA template on the same engine,
    // answer as the uncached path does: within the budget, or tripping it.
    let mut tripped = 0;
    for p in &draws() {
        for e in corpus::ldbc_corpus(p).into_iter().chain(corpus::ga_corpus(p)) {
            tripped += usize::from(run(&e.text).starts_with("canceled"));
            run(&e.text);
        }
        for gender in ["male", "nobody", "female"] {
            run(&text(gender));
        }
    }
    assert!(tripped > 0, "some corpus call trips the budget");
}

#[test]
fn two_rounds_of_the_lookup_templates_miss_nine_times_and_hit_nine_times() {
    const TEMPLATES: [&str; 9] =
        ["IS01", "IS02", "IS03", "IS04", "IS05", "IS06", "IS07", "IC07", "IC08"];
    let e = engine(&social());
    for p in &draws()[1..] {
        for entry in corpus::ldbc_corpus(p) {
            if TEMPLATES.contains(&entry.name.as_str()) {
                assert_eq!(render(gfcl::query_on(&e, &entry.text)), uncached(&e, &entry.text));
            }
        }
    }
    let s = e.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.not_reusable, s.evictions), (9, 9, 0, 0));
}

#[test]
fn an_engine_per_query_never_hits() {
    let graph = Arc::new(ColumnarGraph::build(&social(), StorageConfig::default()).unwrap());
    for id in [1, 2] {
        let text = format!("MATCH (p:Person) WHERE p.id = {id} RETURN p.fName");
        let out = gfcl::query(&graph, &text).unwrap();
        let e = GfClEngine::new(Arc::clone(&graph));
        assert_eq!(out.canonical(), uncached(&e, &text));
        assert_eq!(e.plan_cache_stats(), Default::default());
    }
}
