//! The seeded op-sequence generator. The seed decides only which
//! templates' parameters are drawn and which vertices the mutations
//! touch; the program under test sees the generated text and nothing else.

use std::collections::VecDeque;

use gfcl::workloads::{corpus, LdbcParams};
use gfcl::RawGraph;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Rank in `[0, n)` with probability ∝ 1/(rank+1): a few vertices take
    /// most of the picks, as popular accounts do.
    pub fn zipf(&mut self, n: i64) -> i64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (((n + 1) as f64).powf(u) as i64 - 1).clamp(0, n - 1)
    }
}

/// Start persons per k-hop op: 32 lists of ~40 neighbours each fan out to
/// ~50k 2-paths, a few milliseconds of list extension.
const KHOP_STARTS: usize = 32;

/// Parameter curation, as LDBC SNB does it: `knows` out-degrees follow a
/// power law (most persons know 11 others, a few know 1 000), so an op
/// anchored on a uniformly drawn person costs anything within two orders
/// of magnitude and a run's throughput is whatever its few hub draws make
/// it. Anchors are drawn instead from the sixteenth of persons (and of
/// 32-person id windows) whose 2-hop `knows` fan-out — what the anchored
/// templates' cost follows — is closest to the mean. The graph keeps its
/// skew; only the choice of start vertices is narrowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Curation {
    persons: usize,
    starts: Vec<i64>,
    windows: Vec<i64>,
}

impl Curation {
    pub fn of(raw: &RawGraph) -> gfcl::Result<Curation> {
        let person = raw.catalog.vertex_label_id("Person")?;
        let knows = raw.catalog.edge_label_id("knows")?;
        let persons = raw.vertices[person as usize].count;
        if persons < KHOP_STARTS {
            return Err(gfcl::Error::Invalid(format!("{persons} persons: too few to benchmark")));
        }
        // Person ids are dense: the id is the vertex offset.
        let edges = &raw.edges[knows as usize];
        let mut degree = vec![0u64; persons];
        for &src in &edges.src {
            degree[src as usize] += 1;
        }
        let mut two_hop = vec![0u64; persons];
        for (&src, &dst) in edges.src.iter().zip(&edges.dst) {
            two_hop[src as usize] += degree[dst as usize];
        }
        let total: u64 = two_hop.iter().sum();
        let window: Vec<u64> = two_hop.windows(KHOP_STARTS).map(|w| w.iter().sum()).collect();
        Ok(Curation {
            persons,
            starts: closest_sixteenth(&two_hop, total / persons as u64),
            windows: closest_sixteenth(&window, total * KHOP_STARTS as u64 / persons as u64),
        })
    }

    fn start(&self, rng: &mut Rng) -> i64 {
        self.starts[rng.range(0, self.starts.len() as i64) as usize]
    }

    fn window(&self, rng: &mut Rng) -> i64 {
        self.windows[rng.range(0, self.windows.len() as i64) as usize]
    }
}

/// Indices of the sixteenth of `values` closest to `target`.
fn closest_sixteenth(values: &[u64], target: u64) -> Vec<i64> {
    let mut by_distance: Vec<usize> = (0..values.len()).collect();
    by_distance.sort_by_key(|&i| (values[i].abs_diff(target), i));
    by_distance.truncate((values.len() / 16).max(1));
    by_distance.into_iter().map(|i| i as i64).collect()
}

/// One read op: a template name and its text with parameters filled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub name: String,
    pub text: String,
}

/// Short reads: a primary-key seek and at most a few list reads each.
const LOOKUP_TEMPLATES: [&str; 9] =
    ["IS01", "IS02", "IS03", "IS04", "IS05", "IS06", "IS07", "IC07", "IC08"];

// The generator's date range (gfcl_datagen::social) is 1.20e9..1.55e9.
fn draw_params(rng: &mut Rng, c: &Curation) -> LdbcParams {
    let window_lo = rng.range(1_250_000_000, 1_400_000_000);
    LdbcParams {
        person_id: c.start(rng),
        comment_id: rng.range(0, (c.persons * 8) as i64),
        max_date: rng.range(1_300_000_000, 1_500_000_000),
        window_lo,
        window_hi: window_lo + rng.range(100_000_000, 200_000_000),
        member_since: rng.range(1_220_000_000, 1_350_000_000),
    }
}

/// One round of `lookup.resident`: every lookup template once, all on one
/// parameter draw.
pub fn lookup_round(rng: &mut Rng, c: &Curation) -> Vec<Op> {
    let p = draw_params(rng, c);
    corpus::ldbc_corpus(&p)
        .into_iter()
        .filter(|e| LOOKUP_TEMPLATES.contains(&e.name.as_str()))
        .map(|e| Op { name: e.name, text: e.text })
        .collect()
}

fn khop_ops(rng: &mut Rng, c: &Curation) -> Vec<Op> {
    let mut out = Vec::new();
    for backward in [false, true] {
        let lo = c.window(rng);
        let hi = lo + KHOP_STARTS as i64;
        let date = rng.range(1_300_000_000, 1_450_000_000);
        // Forward anchors the range on v0 and extends forward lists;
        // backward anchors it on v2 and extends backward lists.
        let (anchor, hint) =
            if backward { ("v2", "\nUSING START v2\nUSING ORDER e2, e1") } else { ("v0", "") };
        for (mode, pred) in [
            ("count", String::new()),
            ("filter", format!(" AND e2.date > date({date})")),
            (
                "chain",
                format!(
                    " AND e1.date > date({date}) AND e2.date > date({date}) AND e2.date > e1.date"
                ),
            ),
        ] {
            out.push(Op {
                name: format!("khop2-{mode}-{}", if backward { "bwd" } else { "fwd" }),
                text: format!(
                    "MATCH (v0:Person)-[e1:knows]->(v1:Person)-[e2:knows]->(v2:Person)\n\
                     WHERE {anchor}.id >= {lo} AND {anchor}.id < {hi}{pred}\n\
                     RETURN count(*){hint}"
                ),
            });
        }
    }
    out
}

/// One round of the `analytic.*` workloads: the multi-hop IC queries, the
/// GA grouped-aggregation queries and six 2-hop `knows` counts.
pub fn analytic_round(rng: &mut Rng, c: &Curation) -> Vec<Op> {
    let p = draw_params(rng, c);
    let mut out: Vec<Op> = corpus::ldbc_corpus(&p)
        .into_iter()
        .filter(|e| e.name.starts_with("IC") && !LOOKUP_TEMPLATES.contains(&e.name.as_str()))
        .chain(corpus::ga_corpus(&p))
        .map(|e| Op { name: e.name, text: e.text })
        .collect();
    out.extend(khop_ops(rng, c));
    out
}

/// What the generator knows about a mixed-workload op's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A committed mutation.
    Commit,
    /// A read whose result depends on the generated graph.
    Read,
    /// A read that must return exactly this many rows.
    Rows(u64),
    /// A read that must return exactly one row holding this one value.
    Cell(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedOp {
    pub name: &'static str,
    pub text: String,
    pub expect: Expect,
}

/// Cycles a deleted vertex trails its insert by: reads of "recent" writes
/// always find them alive.
const DELETE_LAG: usize = 4;

/// Generator of `mixed_rw.store` cycles: 4 single-statement writes, then 8
/// reads, half of them started from vertices the cycle just wrote.
pub struct MixedGen {
    rng: Rng,
    curation: Curation,
    next_id: i64,
    inserted: VecDeque<i64>,
}

impl MixedGen {
    pub fn new(seed: u64, curation: Curation) -> MixedGen {
        let next_id = curation.persons as i64;
        MixedGen { rng: Rng::new(seed), curation, next_id, inserted: VecDeque::new() }
    }

    /// Id of the vertex the latest cycle inserted.
    pub fn newest(&self) -> i64 {
        self.next_id - 1
    }

    pub fn cycle(&mut self) -> Vec<MixedOp> {
        let rng = &mut self.rng;
        let new = self.next_id;
        self.next_id += 1;
        self.inserted.push_back(new);
        let persons = self.curation.persons as i64;
        let hub = rng.zipf(persons);
        let updated = rng.range(0, persons);
        let other = self.curation.start(rng);
        let date = rng.range(1_300_000_000, 1_500_000_000);
        let browser = ["Chrome", "Firefox", "Safari", "Opera"][rng.range(0, 4) as usize];
        let op = |name, text, expect| MixedOp { name, text, expect };

        let retire = if self.inserted.len() > DELETE_LAG {
            let old = self.inserted.pop_front().expect("len checked");
            op("delete-vertex", format!("DELETE VERTEX Person {old}"), Expect::Commit)
        } else {
            op(
                "update-new",
                format!("UPDATE VERTEX Person {new} SET (lName = 'Renamed')"),
                Expect::Commit,
            )
        };
        vec![
            op(
                "insert-vertex",
                format!(
                    "INSERT VERTEX Person (id = {new}, fName = 'Bench', lName = 'W{new}', \
                     gender = 'female', birthday = date({}), creationDate = date({date}), \
                     locationIP = '10.0.0.1', browserUsed = 'Chrome')",
                    date - 900_000_000
                ),
                Expect::Commit,
            ),
            op(
                "insert-edge",
                format!(
                    "INSERT EDGE knows FROM Person {new} TO Person {hub} (date = date({date}))"
                ),
                Expect::Commit,
            ),
            op(
                "update-vertex",
                format!("UPDATE VERTEX Person {updated} SET (browserUsed = '{browser}')"),
                Expect::Commit,
            ),
            retire,
            op(
                "new-profile",
                format!(
                    "MATCH (p:Person) WHERE p.id = {new} \
                     RETURN p.fName, p.gender, p.creationDate, p.locationIP"
                ),
                Expect::Rows(1),
            ),
            op(
                "new-friends",
                format!(
                    "MATCH (p:Person)-[k:knows]->(f:Person) WHERE p.id = {new} \
                     RETURN f.id, f.fName, k.date"
                ),
                Expect::Rows(1),
            ),
            op(
                "new-2hop",
                format!(
                    "MATCH (p:Person)-[k1:knows]->(f:Person)-[k2:knows]->(g:Person) \
                     WHERE p.id = {new} RETURN count(*)"
                ),
                Expect::Read,
            ),
            op(
                "updated-browser",
                format!("MATCH (p:Person) WHERE p.id = {updated} RETURN p.browserUsed"),
                Expect::Cell(browser.to_owned()),
            ),
            op(
                "hub-followers",
                format!(
                    "MATCH (q:Person)-[k:knows]->(p:Person) WHERE p.id = {hub} RETURN q.id, k.date"
                ),
                Expect::Read,
            ),
            op(
                "profile",
                format!(
                    "MATCH (p:Person)-[loc:personIsLocatedIn]->(pl:Place) WHERE p.id = {other} \
                     RETURN p.fName, p.lName, p.birthday, p.browserUsed, pl.id"
                ),
                Expect::Rows(1),
            ),
            op(
                "friends",
                format!(
                    "MATCH (p:Person)-[k:knows]->(f:Person) WHERE p.id = {other} \
                     RETURN f.id, f.fName, f.lName, k.date"
                ),
                Expect::Read,
            ),
            op(
                "2hop",
                format!(
                    "MATCH (p:Person)-[k1:knows]->(f:Person)-[k2:knows]->(g:Person) \
                     WHERE p.id = {other} RETURN count(*)"
                ),
                Expect::Read,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curation(persons: usize) -> Curation {
        let raw = gfcl::datagen::generate_social(gfcl::datagen::SocialParams::scale(persons));
        Curation::of(&raw).unwrap()
    }

    #[test]
    fn curation_keeps_the_sixteenth_closest_to_the_mean() {
        let values: Vec<u64> = (0..32).map(|i| if i % 2 == 0 { 50 + i } else { 1_000 }).collect();
        assert_eq!(closest_sixteenth(&values, 53), [2, 4]);
        assert_eq!(closest_sixteenth(&[7], 0), [0], "never empty");
        let c = curation(320);
        assert_eq!(c.starts.len(), 20);
        assert!(c.windows.iter().all(|&lo| lo >= 0 && lo as usize + KHOP_STARTS <= 320));
    }

    #[test]
    fn rounds_repeat_for_a_seed_and_differ_across_seeds() {
        let c = curation(500);
        let round = |seed| {
            let mut rng = Rng::new(seed);
            (lookup_round(&mut rng, &c), analytic_round(&mut rng, &c))
        };
        assert_eq!(round(7), round(7));
        assert_ne!(round(7), round(8));
        let (lookup, analytic) = round(7);
        assert_eq!(lookup.len(), 9);
        assert_eq!(analytic.len(), 9 + 8 + 6);
        for op in lookup.iter().chain(&analytic) {
            assert!(!op.text.contains('$'), "{}: unfilled placeholder", op.name);
        }
    }

    #[test]
    fn mixed_cycles_repeat_and_delete_only_what_they_inserted() {
        let c = curation(300);
        let cycles = |seed| {
            let mut g = MixedGen::new(seed, c.clone());
            (0..12).flat_map(|_| g.cycle()).collect::<Vec<_>>()
        };
        assert_eq!(cycles(3), cycles(3));
        assert_ne!(cycles(3), cycles(4));
        let ops = cycles(3);
        assert_eq!(ops.len(), 12 * 12);
        assert_eq!(ops.iter().filter(|o| o.expect == Expect::Commit).count(), 12 * 4);
        let deleted: Vec<&str> = ops
            .iter()
            .filter(|o| o.name == "delete-vertex")
            .map(|o| o.text.rsplit(' ').next().unwrap())
            .collect();
        assert_eq!(deleted, ["300", "301", "302", "303", "304", "305", "306", "307"]);
    }

    #[test]
    fn zipf_stays_in_range_and_favours_low_ranks() {
        let mut rng = Rng::new(1);
        let picks: Vec<i64> = (0..10_000).map(|_| rng.zipf(1000)).collect();
        assert!(picks.iter().all(|&p| (0..1000).contains(&p)));
        let low = picks.iter().filter(|&&p| p < 10).count();
        assert!(low > 2_000, "{low} of 10000 picks in the lowest 1% of ranks");
    }
}
