//! The 33 JOB benchmark queries ("a" variants, Appendix C of the paper),
//! translated to [`PatternQuery`] against the `gfcl-datagen` movie schema.
//!
//! The paper's adaptations are inherited: string `min()` aggregations are
//! replaced by `COUNT(*)` (GraphflowDB only aggregates numeric types), and
//! each query is the star/tree join over the property-graph conversion of
//! IMDb. Most queries are star joins around `title` — the shape where the
//! paper reports the largest LBP factorization gains (Section 8.7.2).

use gfcl_core::query::{
    col, contains, eq, ge, gt, in_set, le, lit, lt, ne, starts_with, PatternQuery, QueryBuilder,
};

fn q() -> QueryBuilder {
    QueryBuilder::default()
}

/// All 33 queries as `(name, query)` pairs.
pub fn all_queries() -> Vec<(String, PatternQuery)> {
    let mut out: Vec<(String, PatternQuery)> = Vec::new();
    let mut push = |name: &str, query: PatternQuery| out.push((name.to_owned(), query));

    // 1a
    push(
        "1a",
        q().node("t", "title")
            .node("cn", "company_name")
            .node("mii", "mov_info_2")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("has_mov_info_2", "t", "mii")
            .filter(eq(col("mc", "company_type"), lit("production company")))
            .filter(contains("mc", "note", "(co-production)"))
            .filter(eq(col("mii", "info_type"), lit("top 250 rank")))
            .returns_count()
            .build(),
    );
    // 2a
    push(
        "2a",
        q().node("t", "title")
            .node("cn", "company_name")
            .node("k", "keyword")
            .edge_anon("movie_companies", "t", "cn")
            .edge_anon("movie_keyword", "t", "k")
            .filter(eq(col("cn", "country_code"), lit("[de]")))
            .filter(eq(col("k", "keyword"), lit("character-name-in-title")))
            .returns_count()
            .build(),
    );
    // 3a
    push(
        "3a",
        q().node("t", "title")
            .node("k", "keyword")
            .node("mi", "movie_info")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("has_movie_info", "t", "mi")
            .filter(gt(col("t", "production_year"), lit(2005)))
            .filter(contains("k", "keyword", "sequel"))
            .filter(eq(col("mi", "info"), lit("Sweden")))
            .returns_count()
            .build(),
    );
    // 4a
    push(
        "4a",
        q().node("t", "title")
            .node("k", "keyword")
            .node("mii", "mov_info_2")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("has_mov_info_2", "t", "mii")
            .filter(gt(col("t", "production_year"), lit(2005)))
            .filter(contains("k", "keyword", "sequel"))
            .filter(eq(col("mii", "info_type"), lit("rating")))
            .filter(gt(col("mii", "info"), lit("5.0")))
            .returns_count()
            .build(),
    );
    // 5a
    push(
        "5a",
        q().node("t", "title")
            .node("cn", "company_name")
            .node("mi", "movie_info")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("has_movie_info", "t", "mi")
            .filter(gt(col("t", "production_year"), lit(2005)))
            .filter(eq(col("mc", "company_type"), lit("production company")))
            .filter(contains("mc", "note", "(theatrical)"))
            .filter(contains("mc", "note", "(France)"))
            .returns_count()
            .build(),
    );
    // 6a
    push(
        "6a",
        q().node("t", "title")
            .node("n", "name")
            .node("k", "keyword")
            .edge_anon("cast_info", "t", "n")
            .edge_anon("movie_keyword", "t", "k")
            .filter(gt(col("t", "production_year"), lit(2010)))
            .filter(contains("n", "name", "Downey"))
            .filter(eq(col("k", "keyword"), lit("marvel-cinematic-universe")))
            .returns_count()
            .build(),
    );
    // 7a
    push(
        "7a",
        q().node("t", "title")
            .node("t2", "title")
            .node("n", "name")
            .node("an", "aka_name")
            .node("pi", "person_info")
            .edge("ml", "movie_link", "t", "t2")
            .edge_anon("cast_info", "t", "n")
            .edge_anon("has_aka_name", "n", "an")
            .edge_anon("has_person_info", "n", "pi")
            .filter(ge(col("t", "production_year"), lit(1980)))
            .filter(le(col("t", "production_year"), lit(1995)))
            .filter(eq(col("ml", "link_type"), lit("features")))
            .filter(ge(col("n", "name_pcode_cf"), lit("A")))
            .filter(le(col("n", "name_pcode_cf"), lit("F")))
            .filter(eq(col("n", "gender"), lit("m")))
            .filter(contains("an", "name", "a"))
            .filter(eq(col("pi", "info_type"), lit("mini biography")))
            .filter(eq(col("pi", "note"), lit("Volker Boehm")))
            .returns_count()
            .build(),
    );
    // 8a
    push(
        "8a",
        q().node("t", "title")
            .node("cn", "company_name")
            .node("n", "name")
            .node("an", "aka_name")
            .edge("mc", "movie_companies", "t", "cn")
            .edge("ci", "cast_info", "t", "n")
            .edge_anon("has_aka_name", "n", "an")
            .filter(contains("mc", "note", "(Japan)"))
            .filter(eq(col("cn", "country_code"), lit("[jp]")))
            .filter(eq(col("ci", "note"), lit("(voice: English version)")))
            .filter(eq(col("ci", "role"), lit("actress")))
            .filter(contains("n", "name", "Yo"))
            .returns_count()
            .build(),
    );
    // 9a
    push(
        "9a",
        q().node("t", "title")
            .node("cn", "company_name")
            .node("n", "name")
            .node("an", "aka_name")
            .edge("mc", "movie_companies", "t", "cn")
            .edge("ci", "cast_info", "t", "n")
            .edge_anon("has_aka_name", "n", "an")
            .filter(ge(col("t", "production_year"), lit(2005)))
            .filter(le(col("t", "production_year"), lit(2015)))
            .filter(contains("mc", "note", "(USA)"))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .filter(eq(col("ci", "role"), lit("actress")))
            .filter(starts_with("ci", "note", "(voice"))
            .filter(eq(col("n", "gender"), lit("f")))
            .filter(contains("n", "name", "Ang"))
            .returns_count()
            .build(),
    );
    // 10a
    push(
        "10a",
        q().node("t", "title")
            .node("cn", "company_name")
            .node("n", "name")
            .edge_anon("movie_companies", "t", "cn")
            .edge("ci", "cast_info", "t", "n")
            .filter(gt(col("t", "production_year"), lit(2005)))
            .filter(eq(col("cn", "country_code"), lit("[ru]")))
            .filter(contains("ci", "note", "(uncredited)"))
            .filter(contains("ci", "note", "(voice)"))
            .filter(eq(col("ci", "role"), lit("actor")))
            .returns_count()
            .build(),
    );
    // 11a
    push(
        "11a",
        q().node("t", "title")
            .node("t2", "title")
            .node("cn", "company_name")
            .node("k", "keyword")
            .edge("ml", "movie_link", "t", "t2")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("movie_keyword", "t", "k")
            .filter(gt(col("t", "production_year"), lit(1950)))
            .filter(lt(col("t", "production_year"), lit(2000)))
            .filter(in_set("ml", "link_type", &["follows", "followedBy"]))
            .filter(eq(col("mc", "company_type"), lit("production company")))
            .filter(ne(col("cn", "country_code"), lit("[pl]")))
            .filter(contains("cn", "name", "Film"))
            .filter(eq(col("k", "keyword"), lit("sequel")))
            .returns_count()
            .build(),
    );
    // 12a
    push(
        "12a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("cn", "company_name")
            .node("mii", "mov_info_2")
            .edge_anon("has_movie_info", "t", "mi")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("has_mov_info_2", "t", "mii")
            .filter(ge(col("t", "production_year"), lit(2005)))
            .filter(le(col("t", "production_year"), lit(2008)))
            .filter(gt(col("mii", "info"), lit("8.0")))
            .filter(eq(col("mi", "info_type"), lit("genres")))
            .filter(eq(col("mi", "info"), lit("Drama")))
            .filter(eq(col("mc", "company_type"), lit("production company")))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .filter(eq(col("mii", "info_type"), lit("rating")))
            .returns_count()
            .build(),
    );
    // 13a
    push(
        "13a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("cn", "company_name")
            .node("mii", "mov_info_2")
            .edge_anon("has_movie_info", "t", "mi")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("has_mov_info_2", "t", "mii")
            .filter(eq(col("t", "kind"), lit("movie")))
            .filter(eq(col("mi", "info_type"), lit("release dates")))
            .filter(eq(col("mc", "company_type"), lit("production company")))
            .filter(eq(col("cn", "country_code"), lit("[de]")))
            .filter(eq(col("mii", "info_type"), lit("rating")))
            .returns_count()
            .build(),
    );
    // 14a
    push(
        "14a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("k", "keyword")
            .node("mii", "mov_info_2")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("has_mov_info_2", "t", "mii")
            .filter(gt(col("t", "production_year"), lit(2010)))
            .filter(eq(col("t", "kind"), lit("movie")))
            .filter(eq(col("mi", "info"), lit("USA")))
            .filter(eq(col("mi", "info_type"), lit("countries")))
            .filter(eq(col("k", "keyword"), lit("murder")))
            .filter(lt(col("mii", "info"), lit("8.5")))
            .filter(eq(col("mii", "info_type"), lit("rating")))
            .returns_count()
            .build(),
    );
    // 15a
    push(
        "15a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("cn", "company_name")
            .node("k", "keyword")
            .edge_anon("has_movie_info", "t", "mi")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("movie_keyword", "t", "k")
            .filter(gt(col("t", "production_year"), lit(2000)))
            .filter(starts_with("mi", "info", "USA:"))
            .filter(contains("mi", "note", "internet"))
            .filter(eq(col("mi", "info_type"), lit("release dates")))
            .filter(contains("mc", "note", "(worldwide)"))
            .filter(contains("mc", "note", "(200"))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .returns_count()
            .build(),
    );
    // 16a
    push(
        "16a",
        q().node("t", "title")
            .node("k", "keyword")
            .node("cn", "company_name")
            .node("n", "name")
            .node("an", "aka_name")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("movie_companies", "t", "cn")
            .edge_anon("cast_info", "t", "n")
            .edge_anon("has_aka_name", "n", "an")
            .filter(ge(col("t", "episode_nr"), lit(50)))
            .filter(lt(col("t", "episode_nr"), lit(100)))
            .filter(eq(col("k", "keyword"), lit("character-name-in-title")))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .returns_count()
            .build(),
    );
    // 17a
    push(
        "17a",
        q().node("t", "title")
            .node("n", "name")
            .node("cn", "company_name")
            .node("k", "keyword")
            .edge_anon("cast_info", "t", "n")
            .edge_anon("movie_companies", "t", "cn")
            .edge_anon("movie_keyword", "t", "k")
            .filter(starts_with("n", "name", "B"))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .filter(eq(col("k", "keyword"), lit("character-name-in-title")))
            .returns_count()
            .build(),
    );
    // 18a
    push(
        "18a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("mii", "mov_info_2")
            .node("n", "name")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("has_mov_info_2", "t", "mii")
            .edge_anon("cast_info", "t", "n")
            .filter(eq(col("mi", "info_type"), lit("budget")))
            .filter(eq(col("mii", "info_type"), lit("votes")))
            .filter(contains("n", "name", "Tim"))
            .filter(eq(col("n", "gender"), lit("m")))
            .returns_count()
            .build(),
    );
    // 19a
    push(
        "19a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("cn", "company_name")
            .node("n", "name")
            .node("an", "aka_name")
            .edge_anon("has_movie_info", "t", "mi")
            .edge("mc", "movie_companies", "t", "cn")
            .edge("ci", "cast_info", "t", "n")
            .edge_anon("has_aka_name", "n", "an")
            .filter(ge(col("t", "production_year"), lit(2005)))
            .filter(le(col("t", "production_year"), lit(2009)))
            .filter(eq(col("mi", "info_type"), lit("release dates")))
            .filter(starts_with("mi", "info", "Japan:"))
            .filter(contains("mc", "note", "(USA)"))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .filter(starts_with("ci", "note", "(voice"))
            .filter(eq(col("n", "gender"), lit("f")))
            .filter(eq(col("ci", "role"), lit("actress")))
            .filter(contains("n", "name", "Ang"))
            .returns_count()
            .build(),
    );
    // 20a
    push(
        "20a",
        q().node("t", "title")
            .node("k", "keyword")
            .node("cc", "complete_cast")
            .node("n", "name")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("has_complete_cast", "t", "cc")
            .edge("ci", "cast_info", "t", "n")
            .filter(gt(col("t", "production_year"), lit(1950)))
            .filter(eq(col("t", "kind"), lit("movie")))
            .filter(eq(col("k", "keyword"), lit("superhero")))
            .filter(eq(col("cc", "subject"), lit("cast")))
            .filter(in_set("cc", "status", &["complete", "complete+verified"]))
            .filter(contains("ci", "name", "Tony"))
            .filter(contains("ci", "name", "Stark"))
            .returns_count()
            .build(),
    );
    // 21a
    push(
        "21a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("cn", "company_name")
            .node("k", "keyword")
            .node("t2", "title")
            .edge_anon("has_movie_info", "t", "mi")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("movie_keyword", "t", "k")
            .edge("ml", "movie_link", "t", "t2")
            .filter(ge(col("t", "production_year"), lit(1950)))
            .filter(le(col("t", "production_year"), lit(2000)))
            .filter(eq(col("mi", "info"), lit("Germany")))
            .filter(eq(col("mc", "company_type"), lit("production company")))
            .filter(ne(col("cn", "country_code"), lit("[pl]")))
            .filter(contains("cn", "name", "Film"))
            .filter(contains("k", "keyword", "sequel"))
            .filter(in_set("ml", "link_type", &["follows", "followedBy"]))
            .returns_count()
            .build(),
    );
    // 22a
    push(
        "22a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("mii", "mov_info_2")
            .node("cn", "company_name")
            .node("k", "keyword")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("has_mov_info_2", "t", "mii")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("movie_keyword", "t", "k")
            .filter(gt(col("t", "production_year"), lit(2008)))
            .filter(eq(col("t", "kind"), lit("movie")))
            .filter(eq(col("mi", "info"), lit("USA")))
            .filter(eq(col("mi", "info_type"), lit("countries")))
            .filter(eq(col("mii", "info_type"), lit("rating")))
            .filter(lt(col("mii", "info"), lit("7.0")))
            .filter(contains("mc", "note", "(200"))
            .filter(ne(col("cn", "country_code"), lit("[us]")))
            .filter(eq(col("k", "keyword"), lit("murder")))
            .returns_count()
            .build(),
    );
    // 23a
    push(
        "23a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("cn", "company_name")
            .node("k", "keyword")
            .node("cc", "complete_cast")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("movie_companies", "t", "cn")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("has_complete_cast", "t", "cc")
            .filter(gt(col("t", "production_year"), lit(2000)))
            .filter(eq(col("t", "kind"), lit("movie")))
            .filter(eq(col("mi", "info_type"), lit("release dates")))
            .filter(contains("mi", "note", "internet"))
            .filter(starts_with("mi", "info", "USA:"))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .filter(eq(col("cc", "status"), lit("complete+verified")))
            .returns_count()
            .build(),
    );
    // 24a
    push(
        "24a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("cn", "company_name")
            .node("n", "name")
            .node("an", "aka_name")
            .node("k", "keyword")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("movie_companies", "t", "cn")
            .edge("ci", "cast_info", "t", "n")
            .edge_anon("has_aka_name", "n", "an")
            .edge_anon("movie_keyword", "t", "k")
            .filter(gt(col("t", "production_year"), lit(2010)))
            .filter(eq(col("mi", "info_type"), lit("release dates")))
            .filter(starts_with("mi", "info", "USA:"))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .filter(starts_with("ci", "note", "(voice:"))
            .filter(eq(col("ci", "role"), lit("actress")))
            .filter(eq(col("n", "gender"), lit("f")))
            .filter(eq(col("k", "keyword"), lit("hero")))
            .returns_count()
            .build(),
    );
    // 25a
    push(
        "25a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("mii", "mov_info_2")
            .node("k", "keyword")
            .node("n", "name")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("has_mov_info_2", "t", "mii")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("cast_info", "t", "n")
            .filter(eq(col("mi", "info_type"), lit("genres")))
            .filter(eq(col("mii", "info_type"), lit("votes")))
            .filter(eq(col("k", "keyword"), lit("murder")))
            .filter(eq(col("mi", "info"), lit("Horror")))
            .filter(eq(col("n", "gender"), lit("m")))
            .returns_count()
            .build(),
    );
    // 26a
    push(
        "26a",
        q().node("t", "title")
            .node("mii", "mov_info_2")
            .node("k", "keyword")
            .node("n", "name")
            .node("cc", "complete_cast")
            .edge_anon("has_mov_info_2", "t", "mii")
            .edge_anon("movie_keyword", "t", "k")
            .edge("ci", "cast_info", "t", "n")
            .edge_anon("has_complete_cast", "t", "cc")
            .filter(gt(col("t", "production_year"), lit(2000)))
            .filter(eq(col("t", "kind"), lit("movie")))
            .filter(gt(col("mii", "info"), lit("7.0")))
            .filter(eq(col("mii", "info_type"), lit("rating")))
            .filter(eq(col("k", "keyword"), lit("superhero")))
            .filter(contains("ci", "name", "man"))
            .filter(eq(col("cc", "subject"), lit("cast")))
            .filter(in_set("cc", "status", &["complete", "complete+verified"]))
            .returns_count()
            .build(),
    );
    // 27a
    push(
        "27a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("k", "keyword")
            .node("t2", "title")
            .node("cn", "company_name")
            .node("cc", "complete_cast")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("movie_keyword", "t", "k")
            .edge("ml", "movie_link", "t", "t2")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("has_complete_cast", "t", "cc")
            .filter(ge(col("t", "production_year"), lit(1950)))
            .filter(le(col("t", "production_year"), lit(2000)))
            .filter(eq(col("mi", "info"), lit("Sweden")))
            .filter(eq(col("k", "keyword"), lit("sequel")))
            .filter(in_set("ml", "link_type", &["follows", "followedBy"]))
            .filter(eq(col("mc", "company_type"), lit("production company")))
            .filter(contains("cn", "name", "Film"))
            .filter(ne(col("cn", "country_code"), lit("[pl]")))
            .filter(in_set("cc", "subject", &["cast", "crew"]))
            .filter(eq(col("cc", "status"), lit("complete")))
            .returns_count()
            .build(),
    );
    // 28a
    push(
        "28a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("mii", "mov_info_2")
            .node("k", "keyword")
            .node("cn", "company_name")
            .node("cc", "complete_cast")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("has_mov_info_2", "t", "mii")
            .edge_anon("movie_keyword", "t", "k")
            .edge("mc", "movie_companies", "t", "cn")
            .edge_anon("has_complete_cast", "t", "cc")
            .filter(gt(col("t", "production_year"), lit(2000)))
            .filter(eq(col("t", "kind"), lit("movie")))
            .filter(eq(col("mi", "info"), lit("Germany")))
            .filter(eq(col("mi", "info_type"), lit("countries")))
            .filter(lt(col("mii", "info"), lit("8.5")))
            .filter(eq(col("mii", "info_type"), lit("rating")))
            .filter(eq(col("k", "keyword"), lit("murder")))
            .filter(contains("mc", "note", "(200"))
            .filter(ne(col("cn", "country_code"), lit("[us]")))
            .filter(eq(col("cc", "subject"), lit("crew")))
            .filter(ne(col("cc", "status"), lit("complete+verified")))
            .returns_count()
            .build(),
    );
    // 29a
    push(
        "29a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("k", "keyword")
            .node("cc", "complete_cast")
            .node("n", "name")
            .node("an", "aka_name")
            .node("pi", "person_info")
            .node("cn", "company_name")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("has_complete_cast", "t", "cc")
            .edge("ci", "cast_info", "t", "n")
            .edge_anon("has_aka_name", "n", "an")
            .edge_anon("has_person_info", "n", "pi")
            .edge_anon("movie_companies", "t", "cn")
            .filter(le(col("t", "production_year"), lit(2010)))
            .filter(ge(col("t", "production_year"), lit(2000)))
            .filter(eq(col("t", "title"), lit("Shrek 2")))
            .filter(eq(col("mi", "info_type"), lit("release dates")))
            .filter(starts_with("mi", "info", "Japan:"))
            .filter(eq(col("k", "keyword"), lit("computer-animation")))
            .filter(eq(col("cc", "status"), lit("complete+verified")))
            .filter(eq(col("cc", "subject"), lit("crew")))
            .filter(eq(col("ci", "role"), lit("actress")))
            .filter(eq(col("ci", "name"), lit("Queen")))
            .filter(contains("ci", "note", "(voice"))
            .filter(eq(col("n", "gender"), lit("f")))
            .filter(contains("n", "name", "An"))
            .filter(eq(col("pi", "info_type"), lit("trivia")))
            .filter(eq(col("cn", "country_code"), lit("[us]")))
            .returns_count()
            .build(),
    );
    // 30a
    push(
        "30a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("mii", "mov_info_2")
            .node("k", "keyword")
            .node("n", "name")
            .node("cc", "complete_cast")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("has_mov_info_2", "t", "mii")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("cast_info", "t", "n")
            .edge_anon("has_complete_cast", "t", "cc")
            .filter(gt(col("t", "production_year"), lit(2000)))
            .filter(eq(col("mi", "info_type"), lit("genres")))
            .filter(eq(col("mi", "info"), lit("Horror")))
            .filter(eq(col("mii", "info_type"), lit("votes")))
            .filter(eq(col("k", "keyword"), lit("murder")))
            .filter(eq(col("n", "gender"), lit("m")))
            .filter(in_set("cc", "subject", &["cast", "crew"]))
            .filter(eq(col("cc", "status"), lit("complete+verified")))
            .returns_count()
            .build(),
    );
    // 31a
    push(
        "31a",
        q().node("t", "title")
            .node("mi", "movie_info")
            .node("mii", "mov_info_2")
            .node("k", "keyword")
            .node("n", "name")
            .node("cn", "company_name")
            .edge_anon("has_movie_info", "t", "mi")
            .edge_anon("has_mov_info_2", "t", "mii")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("cast_info", "t", "n")
            .edge_anon("movie_companies", "t", "cn")
            .filter(eq(col("mi", "info_type"), lit("genres")))
            .filter(eq(col("mi", "info"), lit("Horror")))
            .filter(eq(col("mii", "info_type"), lit("votes")))
            .filter(eq(col("k", "keyword"), lit("murder")))
            .filter(eq(col("n", "gender"), lit("m")))
            .returns_count()
            .build(),
    );
    // 32a
    push(
        "32a",
        q().node("t", "title")
            .node("k", "keyword")
            .node("t2", "title")
            .edge_anon("movie_keyword", "t", "k")
            .edge_anon("movie_link", "t", "t2")
            .filter(eq(col("k", "keyword"), lit("character-name-in-title")))
            .returns_count()
            .build(),
    );
    // 33a
    push(
        "33a",
        q().node("t1", "title")
            .node("t2", "title")
            .node("mii1", "mov_info_2")
            .node("mii2", "mov_info_2")
            .node("cn1", "company_name")
            .node("cn2", "company_name")
            .edge("ml", "movie_link", "t1", "t2")
            .edge_anon("has_mov_info_2", "t1", "mii1")
            .edge_anon("has_mov_info_2", "t2", "mii2")
            .edge_anon("movie_companies", "t1", "cn1")
            .edge_anon("movie_companies", "t2", "cn2")
            .filter(eq(col("t1", "kind"), lit("tv series")))
            .filter(in_set("ml", "link_type", &["follows", "followedBy"]))
            .filter(eq(col("t2", "kind"), lit("tv series")))
            .filter(ge(col("t2", "production_year"), lit(2005)))
            .filter(le(col("t2", "production_year"), lit(2008)))
            .filter(eq(col("mii1", "info_type"), lit("rating")))
            .filter(eq(col("mii2", "info_type"), lit("rating")))
            .filter(lt(col("mii2", "info"), lit("3.0")))
            .filter(eq(col("cn1", "country_code"), lit("[us]")))
            .returns_count()
            .build(),
    );

    out
}

/// Queries as a map from name for selective lookups.
pub fn query(name: &str) -> Option<PatternQuery> {
    all_queries().into_iter().find(|(n, _)| n == name).map(|(_, q)| q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfcl_core::plan::plan;
    use gfcl_datagen::MovieParams;

    #[test]
    fn all_33_queries_plan() {
        let raw = gfcl_datagen::generate_movies(MovieParams::scale(50));
        let queries = all_queries();
        assert_eq!(queries.len(), 33);
        for (name, q) in &queries {
            plan(q, &raw.catalog).unwrap_or_else(|e| panic!("{name} failed to plan: {e}"));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(query("17a").is_some());
        assert!(query("99z").is_none());
    }

    #[test]
    fn queries_are_star_heavy() {
        // Most JOB queries are stars around `t` — the LBP-friendly shape.
        let stars = all_queries()
            .iter()
            .filter(|(_, q)| {
                let deg0 = q.edges.iter().filter(|e| e.from == 0 || e.to == 0).count();
                deg0 >= 2
            })
            .count();
        assert!(stars >= 25, "got {stars}");
    }
}
