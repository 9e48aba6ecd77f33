//! LDBC SNB Interactive Short (IS) and Complex (IC) read queries, as
//! modified by the paper (Appendix B), translated to [`PatternQuery`]
//! against the `gfcl-datagen` social schema.
//!
//! The paper's modifications (Section 8.7.1) are inherited: variable-length
//! paths are fixed to their maximum length, shortest-path queries and
//! edge-(non)existence predicates are removed, and ORDER BY is dropped.
//! Two further schema-level adaptations of ours: `replyOf` targets posts only, so IS07's
//! comment-of-comment step goes through the common parent post; and
//! inequality joins (`t2 <> t1` in IC06) are dropped since the engines do
//! not support variable inequality predicates.

use gfcl_core::query::{col, eq, ge, gt, le, lit, lit_date, ne, PatternQuery};

/// Constants the queries filter on; defaults fit `SocialParams::scale(n)`
/// datasets (ids are dense `0..n`).
#[derive(Debug, Clone, Copy)]
pub struct LdbcParams {
    /// The start person of IS01–IS03 and all IC queries.
    pub person_id: i64,
    /// The start comment of IS04–IS07.
    pub comment_id: i64,
    /// IC02/IC09 creation-date upper bound.
    pub max_date: i64,
    /// IC03/IC04 date window.
    pub window_lo: i64,
    pub window_hi: i64,
    /// IC05 hasMember date lower bound.
    pub member_since: i64,
}

impl LdbcParams {
    /// Reasonable defaults for a dataset with `persons` persons.
    pub fn for_scale(persons: usize) -> LdbcParams {
        LdbcParams {
            person_id: (persons / 2) as i64,
            comment_id: (persons * 4) as i64, // mid-range comment
            max_date: 1_400_000_000,
            window_lo: 1_313_591_219,
            window_hi: 1_513_591_219,
            member_since: 1_267_302_820,
        }
    }
}

/// The 7 IS queries. Returns `(name, query)` pairs.
// One `out.push` block per named query keeps each query's comment
// attached to it; `vec![]` would lose that structure.
#[allow(clippy::vec_init_then_push)]
pub fn is_queries(p: &LdbcParams) -> Vec<(String, PatternQuery)> {
    let mut out = Vec::new();

    // IS01: person profile + location.
    out.push((
        "IS01".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("pl", "Place")
            .edge("loc", "personIsLocatedIn", "p", "pl")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .returns(&[
                ("p", "fName"),
                ("p", "lName"),
                ("p", "birthday"),
                ("p", "locationIP"),
                ("p", "browserUsed"),
                ("p", "gender"),
                ("p", "creationDate"),
                ("pl", "id"),
            ])
            .build(),
    ));

    // IS02: person's comments, their parent posts and those posts' authors.
    out.push((
        "IS02".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("c", "Comment")
            .node("post", "Post")
            .node("op", "Person")
            .edge("hc", "hasCreator", "c", "p")
            .edge("r", "replyOf", "c", "post")
            .edge("phc", "postHasCreator", "post", "op")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .returns(&[
                ("c", "id"),
                ("c", "content"),
                ("c", "creationDate"),
                ("op", "id"),
                ("op", "fName"),
                ("op", "lName"),
            ])
            .build(),
    ));

    // IS03: friends with friendship dates.
    out.push((
        "IS03".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("f", "Person")
            .edge("k", "knows", "p", "f")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .returns(&[("f", "id"), ("f", "fName"), ("f", "lName"), ("k", "date")])
            .build(),
    ));

    // IS04: comment content.
    out.push((
        "IS04".into(),
        PatternQuery::builder()
            .node("c", "Comment")
            .filter(eq(col("c", "id"), lit(p.comment_id)))
            .returns(&[("c", "creationDate"), ("c", "content")])
            .build(),
    ));

    // IS05: comment's creator.
    out.push((
        "IS05".into(),
        PatternQuery::builder()
            .node("c", "Comment")
            .node("p", "Person")
            .edge("hc", "hasCreator", "c", "p")
            .filter(eq(col("c", "id"), lit(p.comment_id)))
            .returns(&[("p", "id"), ("p", "fName"), ("p", "lName")])
            .build(),
    ));

    // IS06: the forum containing the comment's parent post + moderator.
    out.push((
        "IS06".into(),
        PatternQuery::builder()
            .node("c", "Comment")
            .node("pst", "Post")
            .node("f", "Forum")
            .node("m", "Person")
            .edge("r", "replyOf", "c", "pst")
            .edge("co", "containerOf", "f", "pst")
            .edge("hm", "hasModerator", "f", "m")
            .filter(eq(col("c", "id"), lit(p.comment_id)))
            .returns(&[("f", "id"), ("f", "title"), ("m", "id"), ("m", "fName"), ("m", "lName")])
            .build(),
    ));

    // IS07: sibling replies of the comment's parent post and their authors
    // (schema adaptation: replies connect through the common parent post).
    out.push((
        "IS07".into(),
        PatternQuery::builder()
            .node("c0", "Comment")
            .node("pst", "Post")
            .node("c1", "Comment")
            .node("ra", "Person")
            .edge("r0", "replyOf", "c0", "pst")
            .edge("r1", "replyOf", "c1", "pst")
            .edge("hc", "hasCreator", "c1", "ra")
            .filter(eq(col("c0", "id"), lit(p.comment_id)))
            .returns(&[
                ("c1", "id"),
                ("c1", "content"),
                ("c1", "creationDate"),
                ("ra", "id"),
                ("ra", "fName"),
                ("ra", "lName"),
            ])
            .build(),
    ));

    out
}

/// The 11 IC queries the paper evaluates (IC01–IC09, IC11, IC12).
// One `out.push` block per named query keeps each query's comment
// attached to it; `vec![]` would lose that structure.
#[allow(clippy::vec_init_then_push)]
pub fn ic_queries(p: &LdbcParams) -> Vec<(String, PatternQuery)> {
    let mut out = Vec::new();

    // IC01: friends-of-friends-of-friends and their locations.
    out.push((
        "IC01".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("p1", "Person")
            .node("p2", "Person")
            .node("op", "Person")
            .node("pl", "Place")
            .edge("k1", "knows", "p", "p1")
            .edge("k2", "knows", "p1", "p2")
            .edge("k3", "knows", "p2", "op")
            .edge("loc", "personIsLocatedIn", "op", "pl")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .returns(&[
                ("op", "id"),
                ("op", "lName"),
                ("op", "birthday"),
                ("op", "creationDate"),
                ("op", "gender"),
                ("op", "locationIP"),
                ("pl", "name"),
            ])
            .build(),
    ));

    // IC02: recent messages of friends.
    out.push((
        "IC02".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("f", "Person")
            .node("msg", "Comment")
            .edge("k", "knows", "p", "f")
            .edge("hc", "hasCreator", "msg", "f")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .filter(lt_date(col("msg", "creationDate"), p.max_date))
            .returns(&[
                ("f", "id"),
                ("f", "fName"),
                ("f", "lName"),
                ("msg", "id"),
                ("msg", "content"),
                ("msg", "creationDate"),
            ])
            .build(),
    ));

    // IC03: friends-of-friends with messages from two countries in a window.
    out.push((
        "IC03".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("p1", "Person")
            .node("op", "Person")
            .node("pl", "Place")
            .node("mx", "Comment")
            .node("px", "Place")
            .node("my", "Comment")
            .node("py", "Place")
            .edge("k1", "knows", "p", "p1")
            .edge("k2", "knows", "p1", "op")
            .edge("loc", "personIsLocatedIn", "op", "pl")
            .edge("hcx", "hasCreator", "mx", "op")
            .edge("lx", "commentIsLocatedIn", "mx", "px")
            .edge("hcy", "hasCreator", "my", "op")
            .edge("ly", "commentIsLocatedIn", "my", "py")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .filter(ge(col("mx", "creationDate"), lit_date(p.window_lo)))
            .filter(le(col("mx", "creationDate"), lit_date(p.window_hi)))
            .filter(ge(col("my", "creationDate"), lit_date(p.window_lo)))
            .filter(le(col("my", "creationDate"), lit_date(p.window_hi)))
            .filter(eq(col("px", "name"), lit("India")))
            .filter(eq(col("py", "name"), lit("China")))
            .returns(&[("op", "id"), ("op", "fName"), ("op", "lName")])
            .build(),
    ));

    // IC04: tags of posts of friends in a window. This query used to carry
    // `start_at("p")` + `edge_order([1, 2, 3, 0])` hand hints because the
    // declaration order (k0 first) extends *backward* into every person who
    // knows `p` before doing any useful work; the statistics-driven orderer
    // now finds the good order on its own. The hinted variant survives as a
    // regression in `hinted_ic04_regression` below and in the k-hop
    // backward-plan generators.
    out.push((
        "IC04".into(),
        PatternQuery::builder()
            .node("x", "Person")
            .node("p", "Person")
            .node("f", "Person")
            .node("pst", "Post")
            .node("t", "Tag")
            .edge("k0", "knows", "x", "p")
            .edge("k1", "knows", "p", "f")
            .edge("phc", "postHasCreator", "pst", "f")
            .edge("ht", "postHasTag", "pst", "t")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .filter(ge(col("pst", "creationDate"), lit_date(p.window_lo)))
            .filter(le(col("pst", "creationDate"), lit_date(p.window_hi)))
            .returns(&[("t", "name")])
            .build(),
    ));

    // IC05: forums friends-of-friends joined recently, and their posts.
    out.push((
        "IC05".into(),
        PatternQuery::builder()
            .node("p1", "Person")
            .node("p2", "Person")
            .node("p3", "Person")
            .node("f", "Forum")
            .node("pst", "Post")
            .edge("k1", "knows", "p1", "p2")
            .edge("k2", "knows", "p2", "p3")
            .edge("hm", "hasMember", "f", "p3")
            .edge("co", "containerOf", "f", "pst")
            .filter(eq(col("p1", "id"), lit(p.person_id)))
            .filter(gt(col("hm", "date"), lit_date(p.member_since)))
            .returns(&[("f", "title")])
            .build(),
    ));

    // IC06: co-tags of 'Rumi'-tagged posts of friends-of-friends.
    out.push((
        "IC06".into(),
        PatternQuery::builder()
            .node("p1", "Person")
            .node("p2", "Person")
            .node("p3", "Person")
            .node("pst", "Post")
            .node("t1", "Tag")
            .node("t2", "Tag")
            .edge("k1", "knows", "p1", "p2")
            .edge("k2", "knows", "p2", "p3")
            .edge("phc", "postHasCreator", "pst", "p3")
            .edge("ht1", "postHasTag", "pst", "t1")
            .edge("ht2", "postHasTag", "pst", "t2")
            .filter(eq(col("p1", "id"), lit(p.person_id)))
            .filter(eq(col("t1", "name"), lit("Rumi")))
            .filter(ne(col("t2", "name"), lit("Rumi")))
            .returns(&[("t2", "name")])
            .build(),
    ));

    // IC07: who liked the person's comments.
    out.push((
        "IC07".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("cmt", "Comment")
            .node("frnd", "Person")
            .edge("hc", "hasCreator", "cmt", "p")
            .edge("l", "likes", "frnd", "cmt")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .returns(&[
                ("frnd", "id"),
                ("frnd", "fName"),
                ("frnd", "lName"),
                ("l", "date"),
                ("cmt", "content"),
            ])
            .build(),
    ));

    // IC08: replies to the person's posts.
    out.push((
        "IC08".into(),
        PatternQuery::builder()
            .node("p", "Person")
            .node("pst", "Post")
            .node("cmt", "Comment")
            .node("auth", "Person")
            .edge("phc", "postHasCreator", "pst", "p")
            .edge("r", "replyOf", "cmt", "pst")
            .edge("hc", "hasCreator", "cmt", "auth")
            .filter(eq(col("p", "id"), lit(p.person_id)))
            .returns(&[
                ("auth", "id"),
                ("auth", "fName"),
                ("auth", "lName"),
                ("cmt", "creationDate"),
                ("cmt", "id"),
                ("cmt", "content"),
            ])
            .build(),
    ));

    // IC09: recent messages of friends-of-friends.
    out.push((
        "IC09".into(),
        PatternQuery::builder()
            .node("p1", "Person")
            .node("p2", "Person")
            .node("p3", "Person")
            .node("cmt", "Comment")
            .edge("k1", "knows", "p1", "p2")
            .edge("k2", "knows", "p2", "p3")
            .edge("hc", "hasCreator", "cmt", "p3")
            .filter(eq(col("p1", "id"), lit(p.person_id)))
            .filter(lt_date(col("cmt", "creationDate"), p.max_date))
            .returns(&[
                ("p3", "id"),
                ("p3", "fName"),
                ("p3", "lName"),
                ("cmt", "id"),
                ("cmt", "content"),
                ("cmt", "creationDate"),
            ])
            .build(),
    ));

    // IC11: friends-of-friends who worked in China before 2016.
    out.push((
        "IC11".into(),
        PatternQuery::builder()
            .node("p1", "Person")
            .node("p2", "Person")
            .node("p3", "Person")
            .node("org", "Organisation")
            .node("pl", "Place")
            .edge("k1", "knows", "p1", "p2")
            .edge("k2", "knows", "p2", "p3")
            .edge("w", "workAt", "p3", "org")
            .edge("loc", "orgIsLocatedIn", "org", "pl")
            .filter(eq(col("p1", "id"), lit(p.person_id)))
            .filter(lt_i64(col("w", "year"), 2016))
            .filter(eq(col("pl", "name"), lit("China")))
            .returns(&[("p3", "id"), ("p3", "fName"), ("p3", "lName"), ("org", "name")])
            .build(),
    ));

    // IC12: expert replies under a tag class.
    out.push((
        "IC12".into(),
        PatternQuery::builder()
            .node("p1", "Person")
            .node("p2", "Person")
            .node("cmt", "Comment")
            .node("pst", "Post")
            .node("t", "Tag")
            .node("tc", "TagClass")
            .node("sup", "TagClass")
            .edge("k", "knows", "p1", "p2")
            .edge("hc", "hasCreator", "cmt", "p2")
            .edge("r", "replyOf", "cmt", "pst")
            .edge("ht", "postHasTag", "pst", "t")
            .edge("tt", "hasType", "t", "tc")
            .edge("sc", "isSubclassOf", "tc", "sup")
            .filter(eq(col("p1", "id"), lit(p.person_id)))
            .filter(eq(col("tc", "name"), lit("Person")))
            .returns(&[("p2", "id"), ("p2", "fName"), ("p2", "lName")])
            .build(),
    ));

    out
}

/// All 18 LDBC-like queries (IS + IC).
pub fn all_queries(p: &LdbcParams) -> Vec<(String, PatternQuery)> {
    let mut v = is_queries(p);
    v.extend(ic_queries(p));
    v
}

fn lt_date(lhs: gfcl_core::query::Scalar, ts: i64) -> gfcl_core::query::Expr {
    gfcl_core::query::lt(lhs, lit_date(ts))
}

fn lt_i64(lhs: gfcl_core::query::Scalar, k: i64) -> gfcl_core::query::Expr {
    gfcl_core::query::lt(lhs, lit(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfcl_core::plan::plan;
    use gfcl_datagen::SocialParams;

    #[test]
    fn all_queries_plan_against_generated_schema() {
        let raw = gfcl_datagen::generate_social(SocialParams::scale(50));
        let params = LdbcParams::for_scale(50);
        let queries = all_queries(&params);
        assert_eq!(queries.len(), 18);
        for (name, q) in &queries {
            plan(q, &raw.catalog).unwrap_or_else(|e| panic!("{name} failed to plan: {e}"));
        }
    }

    #[test]
    fn queries_start_from_the_seek() {
        let raw = gfcl_datagen::generate_social(SocialParams::scale(50));
        let params = LdbcParams::for_scale(50);
        for (name, q) in all_queries(&params) {
            let p = plan(&q, &raw.catalog).unwrap();
            assert!(
                matches!(p.steps[0], gfcl_core::plan::PlanStep::ScanPk { .. }),
                "{name} should start from a pk seek"
            );
        }
    }

    /// IC04 used to ship with hand-written `start_at`/`edge_order` hints;
    /// keep the hinted variant alive as a regression: it must still plan,
    /// and produce exactly the same result as the optimizer's plan.
    #[test]
    fn hinted_ic04_regression() {
        use gfcl_core::{Engine, GfClEngine};
        use gfcl_storage::{ColumnarGraph, StorageConfig};
        use std::sync::Arc;

        let persons = 60;
        let raw = gfcl_datagen::generate_social(SocialParams::scale(persons));
        let params = LdbcParams::for_scale(persons);
        let q = ic_queries(&params).into_iter().find(|(n, _)| n == "IC04").unwrap().1;
        let mut hinted = q.clone();
        hinted.hints.start = Some("p".into());
        hinted.hints.edge_order = Some(vec![1, 2, 3, 0]);

        let g = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
        let engine = GfClEngine::new(g);
        let plain = engine.execute(&q).unwrap().canonical();
        let with_hints = engine.execute(&hinted).unwrap().canonical();
        assert_eq!(plain, with_hints);
        // The unhinted plan is ordered by statistics.
        let p = engine.plan(&q).unwrap();
        assert_eq!(p.order_source, gfcl_core::OrderSource::Stats);
    }
}
