//! The write half of the benchmark's `mixed_rw.store` cycle as statement
//! text, shared by the tests that drive it: per cycle, insert a person,
//! insert a `knows` edge from it to a random person, update a random
//! person's `browserUsed`, and delete the person inserted four cycles
//! earlier (in the first four cycles, rename the new person instead).

/// Cycles a deleted person trails its insert by (the benchmark's lag).
const DELETE_LAG: i64 = 4;

/// The cycle's four write statements over a graph that started with
/// `persons` persons; `rng` is a xorshift state.
pub fn statements(cycle: i64, persons: i64, rng: &mut u64) -> [String; 4] {
    let mut next = |n: i64| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % n as u64) as i64
    };
    let new = persons + cycle;
    let (friend, updated) = (next(persons), next(persons));
    let browser = ["Chrome", "Firefox", "Safari", "Opera"][next(4) as usize];
    let date = 1_300_000_000 + next(200_000_000);
    let retire = if cycle < DELETE_LAG {
        format!("UPDATE VERTEX Person {new} SET (lName = 'Renamed')")
    } else {
        format!("DELETE VERTEX Person {}", new - DELETE_LAG)
    };
    [
        format!(
            "INSERT VERTEX Person (id = {new}, fName = 'Bench', lName = 'W{new}', \
             gender = 'female', birthday = date({}), creationDate = date({date}), \
             locationIP = '10.0.0.1', browserUsed = 'Chrome')",
            date - 900_000_000
        ),
        format!("INSERT EDGE knows FROM Person {new} TO Person {friend} (date = date({date}))"),
        format!("UPDATE VERTEX Person {updated} SET (browserUsed = '{browser}')"),
        retire,
    ]
}
