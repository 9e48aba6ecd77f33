//! Shared aggregation and row-finishing machinery.
//!
//! The list-based processor's sinks ([`crate::exec`]) and the baseline
//! engines (`gfcl-baselines`) both fold matches into the same
//! [`GroupTable`] (or, without grouping keys, [`ScalarAgg`]), so
//! cross-engine results agree byte-for-byte: the LBP
//! feeds it multiplicity-weighted values straight from unflat list groups,
//! keyed by raw block entries and decoded once per group, the baselines
//! feed it one enumerated tuple at a time, keyed by [`OrdValue`]s, and
//! both finish through the table's row finish / [`finalize_rows`], which
//! order rows by the total [`Value::total_cmp`] order before applying
//! `ORDER BY` / `LIMIT`.
//!
//! Determinism: the table is a hash map whose key equality follows the
//! total value order (raw entries of one slot are equal exactly when their
//! values are; [`OrdValue`] compares by [`Value::total_cmp`]), every
//! aggregate state merges associatively (integer sums in `i128`, `AVG` as
//! exact sum + count divided once at the end), and the order contract is
//! kept once, at finish: the table's row finish sorts the finished rows by
//! [`cmp_rows`]. So the final output is identical for any worker count and
//! any morsel interleaving — modulo float addition order for `SUM`/`AVG`
//! over DOUBLE columns, which inherits the whole-result `SUM` caveat.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gfcl_common::hash::{IntMap, IntSet};
use gfcl_common::{DataType, Error, Result, Value};

use crate::engine::QueryOutput;
use crate::plan::{LogicalPlan, PlanAgg, PlanReturn};
use crate::query::AggFunc;

/// [`Value`] wrapper whose `Ord`, `Eq` and `Hash` all follow
/// [`Value::total_cmp`] — the canonical key/sort ordering of grouped and
/// distinct results (`Int64(3)`, `Date(3)` and `Float64(3.0)` are one key).
#[derive(Debug, Clone)]
pub struct OrdValue(pub Value);

impl PartialEq for OrdValue {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for OrdValue {}

impl Hash for OrdValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.total_hash(state)
    }
}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Should `candidate` replace `best` in a MIN (`want_min`) / MAX fold?
/// NULLs never replace anything; anything replaces NULL.
pub fn improves(best: &Value, candidate: &Value, want_min: bool) -> bool {
    if candidate.is_null() {
        return false;
    }
    match best.compare(candidate) {
        None => best.is_null(),
        Some(ord) => {
            if want_min {
                ord == std::cmp::Ordering::Greater
            } else {
                ord == std::cmp::Ordering::Less
            }
        }
    }
}

/// Heap bytes owned by a [`Value`]'s string buffer (zero for everything
/// else) — the only part of an aggregate state that grows on replace.
fn string_heap(v: &Value) -> u64 {
    match v {
        Value::String(s) => s.capacity() as u64,
        _ => 0,
    }
}

/// Saturating `i128 → i64` conversion (shared by every integer SUM sink).
pub fn clamp_i128(v: i128) -> i64 {
    if v > i64::MAX as i128 {
        i64::MAX
    } else if v < i64::MIN as i128 {
        i64::MIN
    } else {
        v as i64
    }
}

/// The running state of one aggregate within one group.
#[derive(Debug, Clone)]
pub enum AggState {
    /// `COUNT(*)` / `COUNT(x.p)` — tuple or non-NULL-value count,
    /// saturating at `u64::MAX` (and finished saturated to `i64`, like
    /// `SUM`).
    Count(u64),
    /// `COUNT(DISTINCT x.p)` — distinct non-NULL values.
    Distinct(HashSet<OrdValue>),
    /// `COUNT(DISTINCT x.p)` in the list-based processor, kept as the set
    /// of the slot's non-NULL raw block entries: the integer, the float's
    /// bits, the bool or the dictionary code. Within one slot raw equality
    /// is value equality — a slot's dictionary (and any delta extension,
    /// which only interns strings the dictionary lacks) gives every string
    /// one code, and float bits separate ±0 and NaN payloads exactly as
    /// `total_cmp` does — so no value is ever built or decoded. Only the
    /// grouped sink builds one, for every `COUNT(DISTINCT)` it folds.
    DistinctCodes(IntSet<u64>),
    /// `SUM` — exact `i128` for integers, `f64` for doubles; `seen` counts
    /// non-NULL inputs so an all-NULL group sums to NULL (SQL semantics).
    Sum { ints: i128, floats: f64, seen: u64 },
    /// `MIN` / `MAX`.
    Best { value: Value, want_min: bool },
    /// `AVG` — exact sum + count, divided once at finish.
    Avg { ints: i128, floats: f64, count: u64 },
}

impl AggState {
    /// Fresh state for one aggregate.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count { distinct: false } => AggState::Count(0),
            AggFunc::Count { distinct: true } => AggState::Distinct(HashSet::new()),
            AggFunc::Sum => AggState::Sum { ints: 0, floats: 0.0, seen: 0 },
            AggFunc::Min => AggState::Best { value: Value::Null, want_min: true },
            AggFunc::Max => AggState::Best { value: Value::Null, want_min: false },
            AggFunc::Avg => AggState::Avg { ints: 0, floats: 0.0, count: 0 },
        }
    }

    /// Fold `value`, representing `mult` identical tuples, into the state.
    /// `COUNT(*)` ignores the value; MIN/MAX/DISTINCT ignore `mult`.
    ///
    /// Returns the state's heap growth in bytes (only `DISTINCT` sets and
    /// string-valued MIN/MAX ever grow), which the owning sink charges
    /// against the query's memory budget.
    pub fn update(&mut self, value: &Value, mult: u64) -> u64 {
        if mult == 0 {
            return 0;
        }
        match self {
            AggState::Count(n) => {
                if !value.is_null() {
                    *n = n.saturating_add(mult);
                }
                0
            }
            AggState::Distinct(set) => {
                if !value.is_null() && set.insert(OrdValue(value.clone())) {
                    crate::govern::value_bytes(value)
                } else {
                    0
                }
            }
            // Codes never arrive as values: see `AggState::insert_code`.
            AggState::DistinctCodes(_) => {
                debug_assert!(false, "a code set folds codes, not values");
                0
            }
            AggState::Sum { ints, floats, seen } => {
                match value {
                    Value::Int64(v) | Value::Date(v) => {
                        *ints += *v as i128 * mult as i128;
                        *seen += mult;
                    }
                    Value::Float64(v) => {
                        *floats += v * mult as f64;
                        *seen += mult;
                    }
                    _ => {}
                }
                0
            }
            AggState::Best { value: best, want_min } => {
                if improves(best, value, *want_min) {
                    let old = string_heap(best);
                    *best = value.clone();
                    string_heap(best).saturating_sub(old)
                } else {
                    0
                }
            }
            AggState::Avg { ints, floats, count } => {
                match value {
                    Value::Int64(v) | Value::Date(v) => {
                        *ints += *v as i128 * mult as i128;
                        *count += mult;
                    }
                    Value::Float64(v) => {
                        *floats += v * mult as f64;
                        *count += mult;
                    }
                    _ => {}
                }
                0
            }
        }
    }

    /// `COUNT(*)`: add `mult` tuples without reading any value.
    pub fn add_count(&mut self, mult: u64) {
        if let AggState::Count(n) = self {
            *n = n.saturating_add(mult);
        }
    }

    /// Fold raw entry `code` into a [`AggState::DistinctCodes`] set;
    /// returns the heap growth, as [`AggState::update`] does.
    pub fn insert_code(&mut self, code: u64) -> u64 {
        match self {
            AggState::DistinctCodes(set) => u64::from(set.insert(code)) * CODE_BYTES,
            _ => 0,
        }
    }

    /// Associative merge of two partial states (worker barrier, or a key
    /// run folding into its group). Returns the heap growth of `self`:
    /// what `other` held that `self` did not.
    pub fn merge(&mut self, other: AggState) -> u64 {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a = a.saturating_add(b),
            (AggState::Distinct(a), AggState::Distinct(b)) => {
                let mut grew = 0;
                for v in b {
                    let bytes = crate::govern::value_bytes(&v.0);
                    if a.insert(v) {
                        grew += bytes;
                    }
                }
                return grew;
            }
            (AggState::DistinctCodes(a), AggState::DistinctCodes(b)) => {
                let before = a.len();
                a.extend(b);
                return (a.len() - before) as u64 * CODE_BYTES;
            }
            (
                AggState::Sum { ints, floats, seen },
                AggState::Sum { ints: i2, floats: f2, seen: s2 },
            ) => {
                *ints = ints.saturating_add(i2);
                *floats += f2;
                *seen += s2;
            }
            (AggState::Best { value, want_min }, AggState::Best { value: v2, .. }) => {
                if improves(value, &v2, *want_min) {
                    let old = string_heap(value);
                    *value = v2;
                    return string_heap(value).saturating_sub(old);
                }
            }
            (
                AggState::Avg { ints, floats, count },
                AggState::Avg { ints: i2, floats: f2, count: c2 },
            ) => {
                *ints = ints.saturating_add(i2);
                *floats += f2;
                *count += c2;
            }
            // Both sides are built from the same plan's aggregate list.
            _ => debug_assert!(false, "merging mismatched aggregate states"),
        }
        0
    }

    /// The final aggregate value. `dtype` is the input property's type
    /// (`None` for `COUNT(*)`), which decides the SUM output type.
    pub fn finish(self, dtype: Option<DataType>) -> Value {
        match self {
            AggState::Count(n) => Value::Int64(i64::try_from(n).unwrap_or(i64::MAX)),
            AggState::Distinct(set) => Value::Int64(set.len() as i64),
            AggState::DistinctCodes(set) => Value::Int64(set.len() as i64),
            AggState::Sum { ints, floats, seen } => {
                if seen == 0 {
                    Value::Null
                } else if dtype == Some(DataType::Float64) {
                    Value::Float64(floats)
                } else {
                    Value::Int64(clamp_i128(ints))
                }
            }
            AggState::Best { value, .. } => value,
            AggState::Avg { ints, floats, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float64((ints as f64 + floats) / count as f64)
                }
            }
        }
    }
}

/// A whole-result aggregate — `RETURN count(*)`, `sum(x.p)`, `min(x.p)` or
/// `max(x.p)` with no grouping key — as the one fold every engine feeds:
/// GF-CL with multiplicity-weighted values straight from its chunk states,
/// the baselines one enumerated tuple at a time. Sharing it keeps their
/// answers identical down to the value's type: integer sums saturate to
/// `i64` ([`clamp_i128`]), `MIN`/`MAX` follow [`improves`], and `SUM` is
/// typed by its input slot — DOUBLE even over no input at all.
#[derive(Debug)]
pub struct ScalarAgg {
    state: AggState,
    /// The plan slot the fold reads; `None` for `COUNT(*)`.
    input: Option<usize>,
}

impl ScalarAgg {
    /// The fold of `plan`'s whole-result aggregate; an error for a plan
    /// that returns rows.
    pub fn new(plan: &LogicalPlan) -> Result<ScalarAgg> {
        let (func, input) = match plan.ret {
            PlanReturn::CountStar => (AggFunc::CountStar, None),
            PlanReturn::Sum(s) => (AggFunc::Sum, Some(s)),
            PlanReturn::Min(s) => (AggFunc::Min, Some(s)),
            PlanReturn::Max(s) => (AggFunc::Max, Some(s)),
            PlanReturn::Props(_) | PlanReturn::GroupBy { .. } => {
                return Err(Error::Plan("not a whole-result aggregate".into()))
            }
        };
        Ok(ScalarAgg { state: AggState::new(func), input })
    }

    /// The plan slot whose values the fold reads; `None` for `COUNT(*)`.
    pub fn input(&self) -> Option<usize> {
        self.input
    }

    /// The running state, for folds that read a block in place.
    pub(crate) fn state_mut(&mut self) -> &mut AggState {
        &mut self.state
    }

    /// Fold `mult` tuples whose input value is `value` (`None` for
    /// `COUNT(*)`, which counts tuples without reading a value).
    pub fn fold(&mut self, value: Option<&Value>, mult: u64) {
        match value {
            Some(v) => {
                self.state.update(v, mult);
            }
            None => self.state.add_count(mult),
        }
    }

    /// Associative merge of another worker's fold (worker barrier).
    pub fn merge(&mut self, other: ScalarAgg) {
        self.state.merge(other.state);
    }

    /// The query's output: a count, or the aggregate's value.
    pub fn finish(self, plan: &LogicalPlan) -> QueryOutput {
        let dtype = self.input.map(|s| plan.slots[s].dtype);
        let value = match self.state {
            AggState::Count(n) => return QueryOutput::Count(n),
            // Unlike a group's, a whole-result SUM over no input is zero.
            AggState::Sum { floats, .. } if dtype == Some(DataType::Float64) => {
                Value::Float64(floats)
            }
            AggState::Sum { ints, .. } => Value::Int64(clamp_i128(ints)),
            state => state.finish(dtype),
        };
        QueryOutput::Agg { name: plan.header[0].clone(), value }
    }
}

/// What a [`GroupTable`] keys its groups by: hashable, with a heap
/// estimate for memory budgeting and an empty key for the one group of an
/// aggregate without grouping keys.
pub trait GroupKey: Hash + Eq + Default {
    /// Heap bytes the key owns beyond its own size.
    fn heap_bytes(&self) -> u64;
}

/// The baselines' key: the grouping values themselves.
impl GroupKey for Vec<OrdValue> {
    fn heap_bytes(&self) -> u64 {
        self.iter().map(|k| crate::govern::value_bytes(&k.0)).sum()
    }
}

/// The list-based processor's key: one raw block entry per grouping slot
/// (see [`AggState::DistinctCodes`] for why raw equality is value
/// equality within a slot), decoded once per group at finish.
impl GroupKey for Box<[Option<u64>]> {
    fn heap_bytes(&self) -> u64 {
        std::mem::size_of_val::<[Option<u64>]>(self) as u64
    }
}

/// A grouped-aggregation accumulator: group key → one [`AggState`] per
/// aggregate. Every group's states live in one flat arena, the map holding
/// only each key's group index, so a new group is one key insert and one
/// arena extend. The map is unordered; a group's states do not depend on
/// iteration order (each key merges its partials in worker order), and
/// output order is imposed once, when the table finishes its rows.
#[derive(Debug)]
pub struct GroupTable<K = Vec<OrdValue>> {
    aggs: Vec<PlanAgg>,
    /// A fresh state per aggregate, cloned for every new group.
    fresh: Vec<AggState>,
    /// Key → the group's index.
    map: IntMap<K, usize>,
    /// Group `g`'s states at `g * fresh.len() ..`, in group-index order.
    states: Vec<AggState>,
    /// Running heap estimate: key and state arena per group, plus the
    /// growth the feeding sites report ([`AggState::update`]).
    bytes: u64,
}

impl GroupTable {
    /// Empty table for the given aggregate list.
    pub fn new(aggs: &[PlanAgg]) -> GroupTable {
        GroupTable::with_states(aggs, aggs.iter().map(|a| AggState::new(a.func)).collect())
    }

    /// The aggregate states of `key`, created on first sight (one probe).
    fn group(&mut self, key: Vec<Value>) -> &mut [AggState] {
        let key: Vec<OrdValue> = key.into_iter().map(OrdValue).collect();
        let g = match self.map.get(&key) {
            Some(&g) => g,
            None => self.insert(key),
        };
        self.states_mut(g)
    }

    /// Fold one fully-enumerated tuple (the baselines' path): `values[i]`
    /// is the input of aggregate `i`, `None` for `COUNT(*)` (which counts
    /// the tuple itself — unlike `COUNT(x.p)` with a NULL input).
    pub fn add_tuple(&mut self, key: Vec<Value>, values: &[Option<Value>]) {
        let mut grew = 0u64;
        for (st, v) in self.group(key).iter_mut().zip(values) {
            match v {
                None => st.add_count(1),
                Some(v) => grew += st.update(v, 1),
            }
        }
        self.bytes += grew;
    }

    /// Finish every group into output rows — its key values, then its
    /// aggregates — in [`cmp_rows`] order under `ORDER BY` / `LIMIT`, and
    /// wrap them as rows output.
    pub fn into_output(self, plan: &LogicalPlan) -> QueryOutput {
        let rows = self.into_rows(plan, |key| key.into_iter().map(|k| k.0).collect());
        QueryOutput::Rows { header: Arc::clone(&plan.header), rows }
    }
}

impl<K: GroupKey> GroupTable<K> {
    /// Empty table whose new groups start from `fresh`, one state per
    /// aggregate of `aggs`.
    pub(crate) fn with_states(aggs: &[PlanAgg], fresh: Vec<AggState>) -> GroupTable<K> {
        debug_assert_eq!(aggs.len(), fresh.len());
        GroupTable {
            aggs: aggs.to_vec(),
            fresh,
            map: IntMap::default(),
            states: Vec::new(),
            bytes: 0,
        }
    }

    /// Add the new group `key` with fresh states; returns its index.
    fn insert(&mut self, key: K) -> usize {
        let g = self.map.len();
        self.bytes += group_bytes(&key, self.fresh.len());
        self.map.insert(key, g);
        self.states.extend(self.fresh.iter().cloned());
        g
    }

    /// The index of the group of the borrowed `key`, created on first
    /// sight: a present key is one probe and allocates nothing.
    pub(crate) fn group_index<Q>(&mut self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned + ?Sized,
        Q::Owned: Into<K>,
    {
        match self.map.get(key) {
            Some(&g) => g,
            None => self.insert(key.to_owned().into()),
        }
    }

    /// The states of group `g`, one per aggregate.
    pub(crate) fn states_mut(&mut self, g: usize) -> &mut [AggState] {
        let n = self.fresh.len();
        let (lo, hi) = (g * n, (g + 1) * n);
        &mut self.states[lo..hi]
    }

    /// Charge heap growth a feeding site reported (see
    /// [`AggState::update`]).
    pub(crate) fn charge(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// The table's heap estimate for memory budgeting. Conservative on
    /// merge (duplicate keys are counted once per side) — the budget sees
    /// at least what the table holds.
    pub fn approx_bytes(&self) -> u64 {
        self.bytes
    }

    /// Merge another table's groups into this one (worker barrier; the
    /// callers merge in worker-index order).
    pub fn merge(&mut self, other: GroupTable<K>) {
        self.bytes += other.bytes;
        let n = self.fresh.len();
        let (keys, states) = other.into_parts();
        let mut states = states.into_iter();
        for key in keys {
            let theirs = states.by_ref().take(n);
            match self.map.get(&key) {
                Some(&g) => {
                    for (a, b) in self.states_mut(g).iter_mut().zip(theirs) {
                        a.merge(b);
                    }
                }
                None => {
                    self.map.insert(key, self.map.len());
                    self.states.extend(theirs);
                }
            }
        }
    }

    /// Number of groups accumulated so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no group has been seen.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The keys in group-index order, and the state arena.
    fn into_parts(self) -> (Vec<K>, Vec<AggState>) {
        let mut keys: Vec<Option<K>> = (0..self.map.len()).map(|_| None).collect();
        for (key, g) in self.map {
            keys[g] = Some(key);
        }
        (keys.into_iter().flatten().collect(), self.states)
    }

    /// Finish every group into an output row — `key_row(key)` then the
    /// aggregates — and put the rows in [`cmp_rows`] order, the one place
    /// the table's order contract is kept, under `ORDER BY` / `LIMIT`.
    pub(crate) fn into_rows(
        mut self,
        plan: &LogicalPlan,
        mut key_row: impl FnMut(K) -> Vec<Value>,
    ) -> Vec<Vec<Value>> {
        // SQL semantics: an aggregate without GROUP BY keys returns exactly
        // one row even over an empty match set (COUNT(*) = 0, SUM/AVG/
        // MIN/MAX = NULL) — seed the single keyless group if nothing fed it.
        if let PlanReturn::GroupBy { keys, .. } = &plan.ret {
            if keys.is_empty() && self.map.is_empty() {
                self.insert(K::default());
            }
        }
        let dtypes: Vec<Option<DataType>> =
            self.aggs.iter().map(|a| a.slot.map(|s| plan.slots[s].dtype)).collect();
        let n = self.fresh.len();
        let (keys, states) = self.into_parts();
        let mut states = states.into_iter();
        let rows = keys
            .into_iter()
            .map(|key| {
                let mut row = key_row(key);
                row.extend(states.by_ref().take(n).zip(&dtypes).map(|(st, dt)| st.finish(*dt)));
                row
            })
            .collect();
        order_and_limit(rows, &plan.order_by, plan.limit)
    }
}

/// Heap bytes charged per code of a [`AggState::DistinctCodes`] set.
const CODE_BYTES: u64 = std::mem::size_of::<u64>() as u64;

/// Heap estimate of one new group: its key, its map entry and its states.
fn group_bytes<K: GroupKey>(key: &K, n_aggs: usize) -> u64 {
    key.heap_bytes()
        + (std::mem::size_of::<K>() + std::mem::size_of::<usize>()) as u64
        + (n_aggs * std::mem::size_of::<AggState>()) as u64
}

/// Total deterministic row comparison: the `ORDER BY` keys first, then the
/// whole row as a tie-break, so equal-key rows still order canonically.
pub fn cmp_rows(a: &[Value], b: &[Value], order_by: &[(usize, bool)]) -> std::cmp::Ordering {
    for &(col, desc) in order_by {
        let ord = a[col].total_cmp(&b[col]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Sort rows by [`cmp_rows`] and truncate to `limit`. With no `ORDER BY`
/// keys this is the canonical total order, so `LIMIT` alone is still
/// deterministic across engines and worker counts. Under a `LIMIT` below
/// the row count only the kept rows are sorted: a selection moves the
/// `k` first rows to the front, in linear time, before the sort.
pub fn order_and_limit(
    mut rows: Vec<Vec<Value>>,
    order_by: &[(usize, bool)],
    limit: Option<usize>,
) -> Vec<Vec<Value>> {
    let cmp = |a: &Vec<Value>, b: &Vec<Value>| cmp_rows(a, b, order_by);
    if let Some(k) = limit.filter(|&k| k < rows.len()) {
        rows.select_nth_unstable_by(k, cmp);
        rows.truncate(k);
    }
    rows.sort_unstable_by(cmp);
    rows
}

/// Finish a projection-row result the way the sinks do: optional DISTINCT,
/// then `ORDER BY` / `LIMIT` when present. Plain unordered projections are
/// returned as-is (engines may emit them in any order).
pub fn finalize_rows(plan: &LogicalPlan, rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let rows = if plan.distinct {
        let set: BTreeSet<Vec<OrdValue>> =
            rows.into_iter().map(|r| r.into_iter().map(OrdValue).collect()).collect();
        set.into_iter().map(|r| r.into_iter().map(|v| v.0).collect()).collect()
    } else {
        rows
    };
    if plan.order_by.is_empty() && plan.limit.is_none() {
        return rows;
    }
    order_and_limit(rows, &plan.order_by, plan.limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_states_fold_with_multiplicity() {
        let mut s = AggState::new(AggFunc::Sum);
        s.update(&Value::Int64(5), 3);
        s.update(&Value::Null, 7);
        assert_eq!(s.finish(Some(DataType::Int64)), Value::Int64(15));

        let mut c = AggState::new(AggFunc::CountStar);
        c.add_count(4);
        c.add_count(2);
        assert_eq!(c.finish(None), Value::Int64(6));

        let mut d = AggState::new(AggFunc::Count { distinct: true });
        d.update(&Value::Int64(1), 5);
        d.update(&Value::Int64(1), 2);
        d.update(&Value::Int64(2), 1);
        d.update(&Value::Null, 9);
        assert_eq!(d.finish(Some(DataType::Int64)), Value::Int64(2));

        let mut a = AggState::new(AggFunc::Avg);
        a.update(&Value::Int64(1), 1);
        a.update(&Value::Int64(2), 3);
        assert_eq!(a.finish(Some(DataType::Int64)), Value::Float64(1.75));
    }

    #[test]
    fn empty_sum_and_avg_are_null() {
        assert_eq!(AggState::new(AggFunc::Sum).finish(Some(DataType::Int64)), Value::Null);
        assert_eq!(AggState::new(AggFunc::Avg).finish(Some(DataType::Int64)), Value::Null);
        assert_eq!(AggState::new(AggFunc::Min).finish(Some(DataType::Int64)), Value::Null);
    }

    #[test]
    fn merge_is_associative_for_int_aggregates() {
        let mut a = AggState::new(AggFunc::Sum);
        a.update(&Value::Int64(i64::MAX - 1), 1);
        let mut b = AggState::new(AggFunc::Sum);
        b.update(&Value::Int64(i64::MAX - 1), 1);
        a.merge(b);
        assert_eq!(a.finish(Some(DataType::Int64)), Value::Int64(i64::MAX), "saturates");
    }

    #[test]
    fn count_saturates_like_sum() {
        // COUNT(*) saturates where it used to wrap: add_count, update,
        // merge and the i64 finish.
        let mut c = AggState::new(AggFunc::CountStar);
        c.add_count(u64::MAX - 1);
        c.add_count(5);
        assert_eq!(c.finish(None), Value::Int64(i64::MAX));
        let mut a = AggState::new(AggFunc::Count { distinct: false });
        a.update(&Value::Int64(1), u64::MAX);
        let mut b = AggState::new(AggFunc::Count { distinct: false });
        b.update(&Value::Int64(1), 3);
        a.merge(b);
        assert!(matches!(a, AggState::Count(u64::MAX)));
        assert_eq!(a.finish(None), Value::Int64(i64::MAX));
        // ... and a whole-result count keeps the saturated u64.
        let mut huge = crate::chunk::ListGroup::new(0);
        huge.reset(usize::MAX);
        let chunk = crate::chunk::Chunk { groups: vec![huge.clone(), huge], morsel: 0 };
        assert_eq!(chunk.tuple_count(), u64::MAX);
        assert_eq!(chunk.tuple_count_excluding(0), usize::MAX as u64);
    }

    #[test]
    fn rows_order_with_desc_and_tiebreak() {
        let rows = vec![
            vec![Value::Int64(1), Value::String("b".into())],
            vec![Value::Int64(2), Value::String("a".into())],
            vec![Value::Int64(1), Value::String("a".into())],
        ];
        let sorted = order_and_limit(rows, &[(0, true)], Some(2));
        assert_eq!(
            sorted,
            vec![
                vec![Value::Int64(2), Value::String("a".into())],
                vec![Value::Int64(1), Value::String("a".into())],
            ]
        );
    }

    #[test]
    fn null_keys_group_together_and_sort_first() {
        let aggs = vec![PlanAgg { func: AggFunc::CountStar, slot: None }];
        let mut t = GroupTable::new(&aggs);
        t.add_tuple(vec![Value::Null], &[None]);
        t.add_tuple(vec![Value::Null], &[None]);
        t.add_tuple(vec![Value::Int64(0)], &[None]);
        assert_eq!(t.len(), 2);
        let (mut keys, _) = t.into_parts();
        keys.sort();
        assert_eq!(keys[0][0], OrdValue(Value::Null));
    }
}
