//! LDBC-SNB-like social network generator.
//!
//! Substitute for the LDBC SF10/SF100 datasets. Preserves the
//! structural ratios the paper's techniques exploit:
//!
//! * 8 vertex labels, 16 edge labels — ~10 of them property-less and ~10
//!   single-cardinality (LDBC: 10/15 property-less, 8/15 single);
//! * all edge properties are integers/dates (LDBC: all 4-byte ints);
//! * `KNOWS` degrees are power-law ("many adjacency lists are very small");
//! * ~50% of comments have no `REPLY_OF` edge (the paper reports 50.5%
//!   empty forward `replyOf` lists in LDBC100, driving Table 4);
//! * `Comment.creationDate` NULL density is a parameter (Figure 10 sweeps);
//! * the categorical pools include the constants the IC/IS workload filters
//!   on (`India`, `China`, `Rumi`, `Person`, ...).

use gfcl_common::DataType::*;
use gfcl_storage::{Cardinality, Catalog, PropertyDef, RawGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::util::{maybe, pick_skewed, shuffle_edges, Zipf};

/// Scale and shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct SocialParams {
    pub persons: usize,
    /// Comments per person (LDBC is comment-dominated; ~8 is laptop-scale).
    pub comments_per_person: usize,
    /// Posts per person.
    pub posts_per_person: usize,
    /// Target average KNOWS out-degree.
    pub knows_avg_degree: f64,
    /// Likes per person (average).
    pub likes_per_person: f64,
    /// NULL fraction of `Comment.creationDate` (Figure 10 sweeps; LDBC
    /// itself has none).
    pub comment_date_null_fraction: f64,
    pub seed: u64,
}

impl SocialParams {
    /// Default shape at a given person count.
    pub fn scale(persons: usize) -> SocialParams {
        SocialParams {
            persons,
            comments_per_person: 8,
            posts_per_person: 3,
            knows_avg_degree: 40.0,
            likes_per_person: 10.0,
            comment_date_null_fraction: 0.0,
            seed: 0x50C1A1,
        }
    }
}

/// Vertex/edge label names of the generated schema, for query builders.
pub mod labels {
    pub const PERSON: &str = "Person";
    pub const COMMENT: &str = "Comment";
    pub const POST: &str = "Post";
    pub const FORUM: &str = "Forum";
    pub const ORGANISATION: &str = "Organisation";
    pub const PLACE: &str = "Place";
    pub const TAG: &str = "Tag";
    pub const TAGCLASS: &str = "TagClass";

    pub const KNOWS: &str = "knows";
    pub const LIKES: &str = "likes";
    pub const HAS_CREATOR: &str = "hasCreator";
    pub const POST_HAS_CREATOR: &str = "postHasCreator";
    pub const REPLY_OF: &str = "replyOf";
    pub const REPLY_OF_COMMENT: &str = "replyOfComment";
    pub const CONTAINER_OF: &str = "containerOf";
    pub const HAS_MEMBER: &str = "hasMember";
    pub const HAS_MODERATOR: &str = "hasModerator";
    pub const PERSON_IS_LOCATED_IN: &str = "personIsLocatedIn";
    pub const ORG_IS_LOCATED_IN: &str = "orgIsLocatedIn";
    pub const COMMENT_IS_LOCATED_IN: &str = "commentIsLocatedIn";
    pub const WORK_AT: &str = "workAt";
    pub const STUDY_AT: &str = "studyAt";
    pub const POST_HAS_TAG: &str = "postHasTag";
    pub const HAS_INTEREST: &str = "hasInterest";
    pub const HAS_TYPE: &str = "hasType";
    pub const IS_SUBCLASS_OF: &str = "isSubclassOf";
}

const FIRST_NAMES: &[&str] =
    &["Jan", "Maria", "Chen", "Ali", "Ivan", "Jose", "Anna", "Wei", "Raj", "Lena", "Otto", "Mia"];
const LAST_NAMES: &[&str] =
    &["Khan", "Smith", "Li", "Kumar", "Garcia", "Novak", "Sato", "Yang", "Costa", "Meyer"];
const BROWSERS: &[&str] = &["Chrome", "Firefox", "Safari", "Internet Explorer", "Opera"];
const PLACES: &[&str] = &[
    "India",
    "China",
    "Germany",
    "France",
    "United_States",
    "Brazil",
    "Nigeria",
    "Japan",
    "Canada",
    "Mexico",
    "Italy",
    "Spain",
    "Poland",
    "Kenya",
    "Vietnam",
    "Peru",
    "Egypt",
    "Norway",
    "Chile",
    "Greece",
];
const TAG_NAMES: &[&str] =
    &["Rumi", "Mozart", "Napoleon", "Einstein", "Gandhi", "Shakespeare", "Curie", "Tesla"];
const TAGCLASS_NAMES: &[&str] =
    &["Person", "Artist", "Thing", "Place", "Organisation", "Event", "Work", "Species"];
const LANGUAGES: &[&str] = &["uz", "tk", "ar", "en", "zh"];
const ORG_TYPES: &[&str] = &["company", "university"];

const DATE_LO: i64 = 1_200_000_000;
const DATE_HI: i64 = 1_550_000_000;

/// Generate the social network.
pub fn generate(p: SocialParams) -> RawGraph {
    let mut cat = Catalog::new();
    use labels::*;
    let person = cat
        .add_vertex_label(
            PERSON,
            vec![
                PropertyDef::new("id", Int64),
                PropertyDef::new("fName", String),
                PropertyDef::new("lName", String),
                PropertyDef::new("gender", String),
                PropertyDef::new("birthday", Date),
                PropertyDef::new("creationDate", Date),
                PropertyDef::new("locationIP", String),
                PropertyDef::new("browserUsed", String),
            ],
        )
        .unwrap();
    let comment = cat
        .add_vertex_label(
            COMMENT,
            vec![
                PropertyDef::new("id", Int64),
                PropertyDef::new("creationDate", Date),
                PropertyDef::new("locationIP", String),
                PropertyDef::new("browserUsed", String),
                PropertyDef::new("content", String),
                PropertyDef::new("length", Int64),
            ],
        )
        .unwrap();
    let post = cat
        .add_vertex_label(
            POST,
            vec![
                PropertyDef::new("id", Int64),
                PropertyDef::new("creationDate", Date),
                PropertyDef::new("imageFile", String),
                PropertyDef::new("language", String),
                PropertyDef::new("content", String),
                PropertyDef::new("length", Int64),
            ],
        )
        .unwrap();
    let forum = cat
        .add_vertex_label(
            FORUM,
            vec![
                PropertyDef::new("id", Int64),
                PropertyDef::new("title", String),
                PropertyDef::new("creationDate", Date),
            ],
        )
        .unwrap();
    let org = cat
        .add_vertex_label(
            ORGANISATION,
            vec![
                PropertyDef::new("id", Int64),
                PropertyDef::new("type", String),
                PropertyDef::new("name", String),
            ],
        )
        .unwrap();
    let place = cat
        .add_vertex_label(
            PLACE,
            vec![PropertyDef::new("id", Int64), PropertyDef::new("name", String)],
        )
        .unwrap();
    let tag = cat
        .add_vertex_label(
            TAG,
            vec![PropertyDef::new("id", Int64), PropertyDef::new("name", String)],
        )
        .unwrap();
    let tagclass = cat
        .add_vertex_label(
            TAGCLASS,
            vec![PropertyDef::new("id", Int64), PropertyDef::new("name", String)],
        )
        .unwrap();
    for l in [person, comment, post, forum, org, place, tag, tagclass] {
        cat.set_primary_key(l, "id").unwrap();
    }

    use Cardinality::*;
    let knows = cat
        .add_edge_label(KNOWS, person, person, ManyMany, vec![PropertyDef::new("date", Date)])
        .unwrap();
    let likes = cat
        .add_edge_label(LIKES, person, comment, ManyMany, vec![PropertyDef::new("date", Date)])
        .unwrap();
    let has_creator = cat.add_edge_label(HAS_CREATOR, comment, person, ManyOne, vec![]).unwrap();
    let post_has_creator =
        cat.add_edge_label(POST_HAS_CREATOR, post, person, ManyOne, vec![]).unwrap();
    let reply_of = cat.add_edge_label(REPLY_OF, comment, post, ManyOne, vec![]).unwrap();
    let reply_of_comment =
        cat.add_edge_label(REPLY_OF_COMMENT, comment, comment, ManyOne, vec![]).unwrap();
    let container_of = cat.add_edge_label(CONTAINER_OF, forum, post, OneMany, vec![]).unwrap();
    let has_member = cat
        .add_edge_label(HAS_MEMBER, forum, person, ManyMany, vec![PropertyDef::new("date", Date)])
        .unwrap();
    let has_moderator = cat.add_edge_label(HAS_MODERATOR, forum, person, ManyOne, vec![]).unwrap();
    let person_located =
        cat.add_edge_label(PERSON_IS_LOCATED_IN, person, place, ManyOne, vec![]).unwrap();
    let org_located = cat.add_edge_label(ORG_IS_LOCATED_IN, org, place, ManyOne, vec![]).unwrap();
    let comment_located =
        cat.add_edge_label(COMMENT_IS_LOCATED_IN, comment, place, ManyOne, vec![]).unwrap();
    let work_at = cat
        .add_edge_label(WORK_AT, person, org, ManyMany, vec![PropertyDef::new("year", Int64)])
        .unwrap();
    let study_at = cat
        .add_edge_label(STUDY_AT, person, org, ManyOne, vec![PropertyDef::new("year", Int64)])
        .unwrap();
    let post_has_tag = cat.add_edge_label(POST_HAS_TAG, post, tag, ManyMany, vec![]).unwrap();
    let has_interest = cat.add_edge_label(HAS_INTEREST, person, tag, ManyMany, vec![]).unwrap();
    let has_type = cat.add_edge_label(HAS_TYPE, tag, tagclass, ManyOne, vec![]).unwrap();
    let is_subclass =
        cat.add_edge_label(IS_SUBCLASS_OF, tagclass, tagclass, ManyOne, vec![]).unwrap();

    let mut raw = RawGraph::new(cat);
    let mut rng = SmallRng::seed_from_u64(p.seed);

    let n_person = p.persons;
    let n_comment = p.persons * p.comments_per_person;
    let n_post = p.persons * p.posts_per_person;
    let n_forum = (p.persons / 2).max(4);
    let n_org = (p.persons / 20).max(8);
    let n_place = PLACES.len();
    let n_tag = (p.persons / 10).max(TAG_NAMES.len() * 2);
    let n_tagclass = TAGCLASS_NAMES.len() * 2;

    // ---- Vertices ----
    {
        let t = &mut raw.vertices[person as usize];
        t.count = n_person;
        for v in 0..n_person {
            t.props[0].push_i64(v as i64);
            t.props[1].push_str(*pick_skewed(FIRST_NAMES, &mut rng));
            t.props[2].push_str(*pick_skewed(LAST_NAMES, &mut rng));
            t.props[3].push_str(if rng.gen_bool(0.5) { "male" } else { "female" });
            t.props[4].push_i64(rng.gen_range(0..1_000_000_000));
            t.props[5].push_i64(rng.gen_range(DATE_LO..DATE_HI));
            t.props[6].push_str(format!(
                "{}.{}.{}.{}",
                rng.gen_range(1..255),
                rng.gen_range(0..255),
                rng.gen_range(0..255),
                rng.gen_range(1..255)
            ));
            t.props[7].push_str(*pick_skewed(BROWSERS, &mut rng));
        }
    }
    {
        let t = &mut raw.vertices[comment as usize];
        t.count = n_comment;
        for v in 0..n_comment {
            t.props[0].push_i64(v as i64);
            match maybe(&mut rng, p.comment_date_null_fraction, ()) {
                Some(()) => t.props[1].push_i64(rng.gen_range(DATE_LO..DATE_HI)),
                None => t.props[1].push_null(),
            }
            t.props[2].push_str(format!(
                "10.0.{}.{}",
                rng.gen_range(0..255),
                rng.gen_range(1..255)
            ));
            t.props[3].push_str(*pick_skewed(BROWSERS, &mut rng));
            t.props[4].push_str(format!("comment text {}", v % 997));
            t.props[5].push_i64(rng.gen_range(5..500));
        }
    }
    {
        let t = &mut raw.vertices[post as usize];
        t.count = n_post;
        for v in 0..n_post {
            t.props[0].push_i64(v as i64);
            t.props[1].push_i64(rng.gen_range(DATE_LO..DATE_HI));
            // imageFile is very sparse in LDBC.
            match maybe(&mut rng, 0.75, ()) {
                Some(()) => t.props[2].push_str(format!("photo{v}.jpg")),
                None => t.props[2].push_null(),
            }
            match maybe(&mut rng, 0.3, ()) {
                Some(()) => t.props[3].push_str(*pick_skewed(LANGUAGES, &mut rng)),
                None => t.props[3].push_null(),
            }
            match maybe(&mut rng, 0.25, ()) {
                Some(()) => t.props[4].push_str(format!("about topic {}", v % 499)),
                None => t.props[4].push_null(),
            }
            t.props[5].push_i64(rng.gen_range(5..2000));
        }
    }
    {
        let t = &mut raw.vertices[forum as usize];
        t.count = n_forum;
        for v in 0..n_forum {
            t.props[0].push_i64(v as i64);
            t.props[1].push_str(format!("Wall of member {}", v % n_person.max(1)));
            t.props[2].push_i64(rng.gen_range(DATE_LO..DATE_HI));
        }
    }
    {
        let t = &mut raw.vertices[org as usize];
        t.count = n_org;
        for v in 0..n_org {
            t.props[0].push_i64(v as i64);
            t.props[1].push_str(ORG_TYPES[v % 2]);
            t.props[2].push_str(format!("Org_{v}"));
        }
    }
    {
        let t = &mut raw.vertices[place as usize];
        t.count = n_place;
        for (v, name) in PLACES.iter().enumerate() {
            t.props[0].push_i64(v as i64);
            t.props[1].push_str(*name);
        }
    }
    {
        let t = &mut raw.vertices[tag as usize];
        t.count = n_tag;
        for v in 0..n_tag {
            t.props[0].push_i64(v as i64);
            match TAG_NAMES.get(v) {
                Some(name) => t.props[1].push_str(*name),
                None => t.props[1].push_str(format!("tag_{v}")),
            }
        }
    }
    {
        let t = &mut raw.vertices[tagclass as usize];
        t.count = n_tagclass;
        for v in 0..n_tagclass {
            t.props[0].push_i64(v as i64);
            match TAGCLASS_NAMES.get(v) {
                Some(name) => t.props[1].push_str(*name),
                None => t.props[1].push_str(format!("tagclass_{v}")),
            }
        }
    }

    // ---- Edges ----
    // KNOWS: power-law out-degrees.
    {
        let max_deg = ((n_person as f64).sqrt() as usize).clamp(4, 2048);
        let zipf = Zipf::new(max_deg, 1.6);
        let scale = p.knows_avg_degree / zipf.mean();
        let t = &mut raw.edges[knows as usize];
        for v in 0..n_person as u64 {
            let deg = ((zipf.sample(&mut rng) as f64 * scale).round() as usize)
                .clamp(1, n_person.saturating_sub(1));
            for _ in 0..deg {
                let mut d = rng.gen_range(0..n_person as u64);
                if d == v {
                    d = (d + 1) % n_person as u64;
                }
                t.src.push(v);
                t.dst.push(d);
                t.props[0].push_i64(rng.gen_range(DATE_LO..DATE_HI));
            }
        }
    }
    // LIKES: person -> comment.
    {
        let t = &mut raw.edges[likes as usize];
        for v in 0..n_person as u64 {
            let k = rng.gen_range(0..(2.0 * p.likes_per_person) as usize + 1);
            for _ in 0..k {
                t.src.push(v);
                t.dst.push(rng.gen_range(0..n_comment as u64));
                t.props[0].push_i64(rng.gen_range(DATE_LO..DATE_HI));
            }
        }
    }
    // HAS_CREATOR / COMMENT_IS_LOCATED_IN: one per comment.
    {
        for c in 0..n_comment as u64 {
            let t = &mut raw.edges[has_creator as usize];
            t.src.push(c);
            t.dst.push(rng.gen_range(0..n_person as u64));
            let t = &mut raw.edges[comment_located as usize];
            t.src.push(c);
            t.dst.push(rng.gen_range(0..n_place as u64));
        }
    }
    // POST_HAS_CREATOR + CONTAINER_OF: one per post.
    {
        for po in 0..n_post as u64 {
            let t = &mut raw.edges[post_has_creator as usize];
            t.src.push(po);
            t.dst.push(rng.gen_range(0..n_person as u64));
            let t = &mut raw.edges[container_of as usize];
            t.src.push(rng.gen_range(0..n_forum as u64));
            t.dst.push(po);
        }
    }
    // REPLY_OF: ~50% of comments reply to a post (50% empty fwd lists).
    {
        let t = &mut raw.edges[reply_of as usize];
        for c in 0..n_comment as u64 {
            if rng.gen_bool(0.5) {
                t.src.push(c);
                t.dst.push(rng.gen_range(0..n_post as u64));
            }
        }
    }
    // REPLY_OF_COMMENT: ~50% of comments reply to an earlier comment
    // (n-1, half-empty forward lists — the Table 4 workload; replies point
    // to lower offsets so chains are acyclic).
    {
        let t = &mut raw.edges[reply_of_comment as usize];
        for c in 1..n_comment as u64 {
            if rng.gen_bool(0.5) {
                t.src.push(c);
                t.dst.push(rng.gen_range(0..c));
            }
        }
    }
    // HAS_MEMBER (n-n, date) and HAS_MODERATOR (one per forum).
    {
        for f in 0..n_forum as u64 {
            let members = rng.gen_range(2..40);
            for _ in 0..members {
                let t = &mut raw.edges[has_member as usize];
                t.src.push(f);
                t.dst.push(rng.gen_range(0..n_person as u64));
                t.props[0].push_i64(rng.gen_range(DATE_LO..DATE_HI));
            }
            let t = &mut raw.edges[has_moderator as usize];
            t.src.push(f);
            t.dst.push(rng.gen_range(0..n_person as u64));
        }
    }
    // PERSON_IS_LOCATED_IN: one per person. WORK_AT ~30%, STUDY_AT ~50%.
    {
        for v in 0..n_person as u64 {
            let t = &mut raw.edges[person_located as usize];
            t.src.push(v);
            t.dst.push(rng.gen_range(0..n_place as u64));
            if rng.gen_bool(0.3) {
                let jobs = rng.gen_range(1..3);
                for _ in 0..jobs {
                    let t = &mut raw.edges[work_at as usize];
                    t.src.push(v);
                    t.dst.push(rng.gen_range(0..n_org as u64));
                    t.props[0].push_i64(rng.gen_range(2000..2021));
                }
            }
            if rng.gen_bool(0.5) {
                let t = &mut raw.edges[study_at as usize];
                t.src.push(v);
                t.dst.push(rng.gen_range(0..n_org as u64));
                t.props[0].push_i64(rng.gen_range(1990..2021));
            }
        }
    }
    // ORG_IS_LOCATED_IN: one per org.
    {
        let t = &mut raw.edges[org_located as usize];
        for o in 0..n_org as u64 {
            t.src.push(o);
            t.dst.push(rng.gen_range(0..n_place as u64));
        }
    }
    // POST_HAS_TAG: 0..4 per post; HAS_INTEREST: ~10 per person — the big
    // property-less n-n labels whose edge IDs the NEW-IDS step drops.
    {
        let t = &mut raw.edges[post_has_tag as usize];
        for po in 0..n_post as u64 {
            let k = rng.gen_range(0..4);
            for _ in 0..k {
                t.src.push(po);
                t.dst.push(rng.gen_range(0..n_tag as u64));
            }
        }
        let t = &mut raw.edges[has_interest as usize];
        for v in 0..n_person as u64 {
            for _ in 0..rng.gen_range(2..20) {
                t.src.push(v);
                t.dst.push(rng.gen_range(0..n_tag as u64));
            }
        }
    }
    // HAS_TYPE: one per tag; IS_SUBCLASS_OF: tree over tagclasses.
    {
        let t = &mut raw.edges[has_type as usize];
        for tg in 0..n_tag as u64 {
            t.src.push(tg);
            t.dst.push(rng.gen_range(0..n_tagclass as u64));
        }
        let t = &mut raw.edges[is_subclass as usize];
        for tc in 1..n_tagclass as u64 {
            t.src.push(tc);
            t.dst.push(rng.gen_range(0..tc));
        }
    }

    // Emit n-n edges in a realistic arrival order (LDBC update streams are
    // ordered by timestamp, not by source vertex).
    for e in [knows, likes, has_member, work_at, post_has_tag, has_interest] {
        shuffle_edges(&mut raw.edges[e as usize], &mut rng);
    }

    raw.validate().expect("generated social network is consistent");
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RawGraph {
        generate(SocialParams::scale(200))
    }

    #[test]
    fn schema_shape_matches_ldbc() {
        let g = small();
        assert_eq!(g.catalog.vertex_label_count(), 8);
        assert_eq!(g.catalog.edge_label_count(), 18);
        let single =
            g.catalog.edge_labels().iter().filter(|e| e.cardinality.is_single_any()).count();
        assert!(single >= 8, "LDBC-like: many single-cardinality labels (got {single})");
        let propless = g.catalog.edge_labels().iter().filter(|e| e.properties.is_empty()).count();
        assert!(propless >= 10, "LDBC-like: most labels property-less (got {propless})");
        // All edge properties are ints/dates.
        for def in g.catalog.edge_labels() {
            for p in &def.properties {
                assert!(matches!(
                    p.dtype,
                    gfcl_common::DataType::Int64 | gfcl_common::DataType::Date
                ));
            }
        }
    }

    #[test]
    fn reply_of_is_half_empty() {
        let g = small();
        let reply = g.catalog.edge_label_id(labels::REPLY_OF).unwrap();
        let comments = g.vertex_count(g.catalog.vertex_label_id(labels::COMMENT).unwrap());
        let frac = g.edge_count(reply) as f64 / comments as f64;
        assert!((0.4..0.6).contains(&frac), "~50% of comments reply, got {frac}");
    }

    #[test]
    fn comment_date_null_fraction_is_honored() {
        let mut p = SocialParams::scale(100);
        p.comment_date_null_fraction = 0.7;
        let g = generate(p);
        let comment = g.catalog.vertex_label_id(labels::COMMENT).unwrap();
        let frac = g.vertices[comment as usize].props[1].null_fraction();
        assert!((0.6..0.8).contains(&frac), "got {frac}");
    }

    #[test]
    fn determinism() {
        let a = generate(SocialParams::scale(100));
        let b = generate(SocialParams::scale(100));
        assert_eq!(a.edges[0].src, b.edges[0].src);
        assert_eq!(a.total_edges(), b.total_edges());
    }

    #[test]
    fn knows_degree_is_near_target() {
        let p = SocialParams::scale(500);
        let g = generate(p);
        let knows = g.catalog.edge_label_id(labels::KNOWS).unwrap();
        let avg = g.edge_count(knows) as f64 / p.persons as f64;
        assert!((avg - p.knows_avg_degree).abs() < 20.0, "avg knows degree {avg}");
    }

    #[test]
    fn constant_pools_present() {
        let g = small();
        let place = g.catalog.vertex_label_id(labels::PLACE).unwrap();
        if let gfcl_storage::PropData::Str(names) = &g.vertices[place as usize].props[1] {
            assert!(names.iter().any(|n| n.as_deref() == Some("India")));
            assert!(names.iter().any(|n| n.as_deref() == Some("China")));
        } else {
            panic!("place names are strings");
        }
    }
}
