//! The sinks a pipeline drains into, over factorized chunk states.
//!
//! The Section 6.2 trick generalized: a chunk state represents the Cartesian
//! product of its list groups, so any aggregate that is a sum over tuples can
//! be computed per *position* with a multiplicity — the product of the other
//! groups' contributions — instead of per tuple. `COUNT(*)` multiplies group
//! contributions without ever enumerating tuples; the grouped sink
//! enumerates only the positions of the groups holding *grouping keys*
//! (usually flat by the time the sink runs); the groups holding aggregated
//! extension lists are folded block by block with their multiplicity and
//! are **never** flattened into tuples.
//!
//! Every aggregate input — a list, a flat position, a key entry — folds
//! through one typed loop per (aggregate, block type) pair (`fold_block`):
//! `COUNT(x)` reads validity only, `SUM`/`AVG` accumulate raw integers and
//! floats in position order, `MIN`/`MAX` over numbers compare raw values,
//! and `COUNT(DISTINCT)` keeps a set of raw entries. Only string
//! `MIN`/`MAX` builds [`Value`]s. A counted tail extend reaches the sinks
//! as a list group with a length and no vectors, which only ever
//! contributes multiplicity.
//!
//! The sinks stay encoded: they key, compare and deduplicate by *raw
//! entries* ([`raw_entry`]: the integer, the float's bits, the bool or the
//! dictionary / delta-extension code, `None` for NULL), which within one
//! slot are equal exactly when the values are, and decode a row to
//! [`Value`]s ([`raw_value`]) only when it leaves the sink:
//!
//! | sink | keeps | decodes |
//! |---|---|---|
//! | `GROUP BY` | a [`GroupTable`] keyed by raw key rows | each group's key, once, at finish |
//! | `DISTINCT` | a set of raw rows | each distinct row, once, at finish |
//! | `ORDER BY … LIMIT k` | a heap of `k` decoded rows | a candidate entering the heap; the rest are rejected by a typed compare of the leading numeric key, or on a tie (or a string key, as `&str`) by comparing in place |
//! | projection rows | every row, decoded | every cell, as it arrives |
//! | whole-result aggregate | one [`AggState`] | nothing but string `MIN`/`MAX` |

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use gfcl_columnar::Column;
use gfcl_common::hash::IntSet;
use gfcl_common::{DataType, Result, Value};

use super::Pipeline;
use crate::agg::{self, cmp_rows, AggState, GroupKey, GroupTable, ScalarAgg};
use crate::chunk::{Chunk, ListGroup, ValueVector, VecRef};
use crate::engine::QueryOutput;
use crate::govern::row_bytes;
use crate::plan::{LogicalPlan, PlanAgg, PlanReturn, SlotDef};
use crate::pred::SlotCol;
use crate::query::AggFunc;

/// A row of raw entries (see [`raw_entry`]): the key of the grouped and
/// `DISTINCT` sinks.
type RawKey = Box<[Option<u64>]>;

/// What one pipeline drains into: the plan's `RETURN` as a fold over chunk
/// states. Each worker owns one; at the barrier the later workers' sinks
/// merge into the first, in worker order, which then finishes the output.
pub(crate) enum Sink<'p, 'g> {
    /// Whole-result `COUNT(*)` / `SUM` / `MIN` / `MAX`.
    Scalar(ScalarAgg),
    /// Projection rows; bounded under a `LIMIT`.
    Rows(TopKSink<'p, 'g>),
    /// `DISTINCT` projection rows.
    Distinct(DistinctSink<'g>),
    /// Grouped aggregation.
    Grouped(GroupBySink<'g>),
}

impl<'p, 'g> Sink<'p, 'g> {
    /// The sink of `plan`'s `RETURN` over the chunk `pipe` fills.
    pub(crate) fn new(plan: &'p LogicalPlan, pipe: &Pipeline<'g>) -> Result<Sink<'p, 'g>> {
        Ok(match &plan.ret {
            PlanReturn::Props(slots) if plan.distinct => {
                Sink::Distinct(DistinctSink::new(pipe, &plan.slots, slots))
            }
            PlanReturn::Props(slots) => {
                Sink::Rows(TopKSink::new(pipe, slots, &plan.order_by, plan.limit))
            }
            PlanReturn::GroupBy { keys, aggs } => {
                Sink::Grouped(GroupBySink::new(pipe, &plan.slots, keys, aggs))
            }
            _ => Sink::Scalar(ScalarAgg::new(plan)?),
        })
    }

    /// Fold the pipeline's current chunk state into the sink.
    pub(crate) fn absorb(&mut self, pipe: &Pipeline<'_>) {
        match self {
            Sink::Scalar(agg) => absorb_scalar(agg, pipe),
            Sink::Rows(sink) => sink.absorb(pipe),
            Sink::Distinct(sink) => sink.absorb(&pipe.chunk),
            Sink::Grouped(sink) => sink.absorb(&pipe.chunk),
        }
    }

    /// The sink's current heap estimate, charged to the query's memory
    /// budget after each absorbed state.
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            Sink::Scalar(_) => 0,
            Sink::Rows(sink) => sink.kept.bytes,
            Sink::Distinct(sink) => sink.bytes,
            Sink::Grouped(sink) => sink.table.approx_bytes(),
        }
    }

    /// This sink with a later worker's merged in. Every merge is
    /// associative, so the output is deterministic for a fixed worker
    /// count (and for all integer aggregates, for *any* worker count).
    pub(crate) fn merge(mut self, other: Sink<'p, 'g>) -> Sink<'p, 'g> {
        match (&mut self, other) {
            (Sink::Scalar(a), Sink::Scalar(b)) => a.merge(b),
            (Sink::Rows(a), Sink::Rows(b)) => a.kept.rows.extend(b.kept.rows),
            (Sink::Distinct(a), Sink::Distinct(b)) => a.set.extend(b.set),
            (Sink::Grouped(a), Sink::Grouped(b)) => a.table.merge(b.table),
            // Every worker builds its sink from the same plan.
            _ => debug_assert!(false, "merging mismatched sinks"),
        }
        self
    }

    /// The query's output.
    pub(crate) fn finish(self, plan: &LogicalPlan) -> QueryOutput {
        let rows: Vec<Vec<Value>> = match self {
            Sink::Scalar(agg) => return agg.finish(plan),
            Sink::Grouped(sink) => {
                let rows = sink.into_rows(plan);
                return QueryOutput::Rows { header: Arc::clone(&plan.header), rows };
            }
            Sink::Rows(sink) => sink.kept.rows,
            Sink::Distinct(sink) => sink.into_rows(),
        };
        QueryOutput::Rows { header: Arc::clone(&plan.header), rows: agg::finalize_rows(plan, rows) }
    }
}

/// Fold one chunk state into a whole-result aggregate: `COUNT(*)` by the
/// state's tuple count, anything else by the input slot's selected values,
/// each weighted by the tuple count of the other groups.
fn absorb_scalar(agg: &mut ScalarAgg, pipe: &Pipeline<'_>) {
    let chunk = &pipe.chunk;
    let Some(slot) = agg.input() else {
        return agg.fold(None, chunk.tuple_count());
    };
    let (r, col) = pipe.slot(slot);
    let group = &chunk.groups[r.group];
    let mult = chunk.tuple_count_excluding(r.group);
    fold_block(agg.state_mut(), &group.vectors[r.vec], col, mult, positions(group));
}

/// The positions of `gr` a sink folds: its `cur_idx` when flat, its
/// selected positions otherwise.
fn positions(gr: &ListGroup) -> impl Iterator<Item = usize> + '_ {
    let flat = gr.is_flat();
    let (lo, hi) = if flat { (gr.cur_idx as usize, gr.cur_idx as usize + 1) } else { (0, gr.len) };
    (lo..hi).filter(move |&i| flat || gr.selected(i))
}

/// Fold the entries of block `v` at positions `at`, each standing for
/// `mult` tuples, into `state` — one typed loop per (aggregate, block
/// type) pair, finishing exactly as [`AggState::update`] over each entry's
/// [`Value`] in order would: the same integer and float sums (added in
/// position order), the same MIN/MAX winner among equal and NaN values.
/// Returns the state's heap growth.
fn fold_block(
    state: &mut AggState,
    v: &ValueVector,
    sc: SlotCol<'_>,
    mult: u64,
    at: impl Iterator<Item = usize>,
) -> u64 {
    use ValueVector::{F64, I64};
    if mult == 0 {
        return 0; // as `AggState::update`: no tuple, no effect
    }
    match (state, v) {
        (AggState::Count(n), _) => {
            let valid = block_validity(v);
            let seen = at.filter(|&i| valid[i]).count() as u64;
            *n = n.saturating_add(seen.saturating_mul(mult));
            0
        }
        (
            AggState::Sum { ints, seen: count, .. } | AggState::Avg { ints, count, .. },
            I64 { vals, valid, .. },
        ) => {
            for i in at.filter(|&i| valid[i]) {
                *ints += vals[i] as i128 * mult as i128;
                *count += mult;
            }
            0
        }
        (
            AggState::Sum { floats, seen: count, .. } | AggState::Avg { floats, count, .. },
            F64 { vals, valid },
        ) => {
            for i in at.filter(|&i| valid[i]) {
                *floats += vals[i] * mult as f64;
                *count += mult;
            }
            0
        }
        (
            AggState::Best {
                value: value @ (Value::Null | Value::Int64(_) | Value::Date(_)),
                want_min,
            },
            I64 { vals, valid, date },
        ) => {
            let seed = value.as_i64();
            if let Some(b) = best_of(seed, *want_min, at.filter(|&i| valid[i]).map(|i| vals[i])) {
                *value = if *date { Value::Date(b) } else { Value::Int64(b) };
            }
            0
        }
        (
            AggState::Best { value: value @ (Value::Null | Value::Float64(_)), want_min },
            F64 { vals, valid },
        ) => {
            let seed = value.as_f64();
            if let Some(b) = best_of(seed, *want_min, at.filter(|&i| valid[i]).map(|i| vals[i])) {
                *value = Value::Float64(b);
            }
            0
        }
        (state @ AggState::DistinctCodes(_), _) => {
            at.filter_map(|i| raw_entry(v, i)).map(|raw| state.insert_code(raw)).sum()
        }
        (state, _) => at.map(|i| state.update(&vector_value(v, i, sc), mult)).sum(),
    }
}

/// The validity mask of a property block.
fn block_validity(v: &ValueVector) -> &[bool] {
    match v {
        ValueVector::I64 { valid, .. }
        | ValueVector::F64 { valid, .. }
        | ValueVector::Bool { valid, .. }
        | ValueVector::Code { valid, .. } => valid,
        // lint: allow(aggregate inputs are property slots; compile() never
        // wires a node or edge vector into one)
        _ => panic!("validity of a non-property vector"),
    }
}

/// The MIN (`want_min`) or MAX of `seed` and `cands` under [`agg::improves`]'s
/// rules for one numeric type: a candidate replaces the best only when
/// strictly better, so the first of equal values (`0.0`, `-0.0`) stays, a
/// NaN replaces only an empty best and is then never replaced. `None` when
/// no candidate replaced `seed`.
fn best_of<T: PartialOrd + Copy>(
    seed: Option<T>,
    want_min: bool,
    cands: impl Iterator<Item = T>,
) -> Option<T> {
    let better = if want_min { Ordering::Greater } else { Ordering::Less };
    let (mut best, mut replaced) = (seed, false);
    for c in cands {
        if best.is_none_or(|b| b.partial_cmp(&c) == Some(better)) {
            (best, replaced) = (Some(c), true);
        }
    }
    best.filter(|_| replaced)
}

/// Read position `idx` of a block as a [`Value`] (row materialization).
/// `sc` provides the dictionary (and any delta string extension) for
/// decoding string codes.
fn vector_value(v: &ValueVector, idx: usize, sc: SlotCol<'_>) -> Value {
    raw_value(raw_entry(v, idx), block_dtype(v), sc)
}

/// The value type of a property block's entries.
fn block_dtype(v: &ValueVector) -> DataType {
    match v {
        ValueVector::I64 { date: true, .. } => DataType::Date,
        ValueVector::I64 { .. } => DataType::Int64,
        ValueVector::F64 { .. } => DataType::Float64,
        ValueVector::Bool { .. } => DataType::Bool,
        ValueVector::Code { .. } => DataType::String,
        // lint: allow(callers pass property slots only; compile() never
        // wires a node or edge vector into a value sink)
        _ => panic!("vector_value on non-scalar vector"),
    }
}

/// The value a raw entry of a slot of type `dtype` stands for — the one
/// decode of every sink, run once per row that leaves it. A string is
/// decoded through the slot's dictionary or delta extension.
fn raw_value(raw: Option<u64>, dtype: DataType, sc: SlotCol<'_>) -> Value {
    let Some(raw) = raw else { return Value::Null };
    match dtype {
        DataType::Int64 => Value::Int64(raw as i64),
        DataType::Date => Value::Date(raw as i64),
        DataType::Float64 => Value::Float64(f64::from_bits(raw)),
        DataType::Bool => Value::Bool(raw != 0),
        DataType::String => Value::String(code_str(raw, sc).to_owned()),
    }
}

/// The string a dictionary code of slot `sc` stands for, borrowed from
/// the dictionary (or the delta string extension).
fn code_str<'g>(code: u64, sc: SlotCol<'g>) -> &'g str {
    // Code vectors are only compiled for String slots, whose columns are
    // dictionary-encoded by the slot-schema plan invariant.
    let dict = sc.col.and_then(Column::dictionary).expect("string slot has a dictionary"); // lint: allow(slot-schema invariant)
    if (code as usize) < dict.len() {
        dict.decode(code)
    } else {
        // lint: allow(codes past the dictionary are only produced under a
        // delta snapshot, which always wires the extension into the slot)
        let ext = sc.ext.expect("code beyond dictionary has a delta extension");
        ext.decode(code)
    }
}

/// `vector_value(v, idx, sc).total_cmp(other)` without materializing the
/// block's value: a string is compared as the dictionary's borrowed `&str`.
fn cmp_entry(v: &ValueVector, idx: usize, sc: SlotCol<'_>, other: &Value) -> Ordering {
    match (v, other) {
        (ValueVector::Code { vals, valid }, Value::String(s)) if valid[idx] => {
            code_str(vals[idx], sc).cmp(s.as_str())
        }
        // Strings rank above every other type.
        (ValueVector::Code { valid, .. }, _) if valid[idx] => Ordering::Greater,
        // Every other entry is a heap-free `Value`.
        _ => vector_value(v, idx, sc).total_cmp(other),
    }
}

/// An entry of a block, comparable without decoding: the integer, the
/// float's bits, the bool or the dictionary code, `None` for NULL. A
/// slot's block type and dictionary are fixed for the pipeline, so equal
/// entries of one slot are equal values — codes are unique per string, and
/// float bits are equal exactly when `total_cmp` says so (±0 and NaN
/// payloads apart).
fn raw_entry(v: &ValueVector, idx: usize) -> Option<u64> {
    match v {
        ValueVector::I64 { vals, valid, .. } if valid[idx] => Some(vals[idx] as u64),
        ValueVector::F64 { vals, valid } if valid[idx] => Some(vals[idx].to_bits()),
        ValueVector::Bool { vals, valid } if valid[idx] => Some(vals[idx] as u64),
        ValueVector::Code { vals, valid } if valid[idx] => Some(vals[idx]),
        _ => None,
    }
}

/// Scratch for enumerating a chunk state's Cartesian product: the current
/// position of every enumerated group, then the first selected position
/// each wraps back to. For up to 8 groups it lives on the stack; a sink
/// enumerating more owns a buffer and reuses it for every state. Either way enumeration allocates nothing per state, and a plan
/// of a few extends nothing per query.
#[derive(Default)]
struct Combos {
    buf: Vec<usize>,
}

impl Combos {
    /// Positions kept on the stack: two per group, for up to 8 groups.
    const INLINE: usize = 16;

    /// Call `f` with the current position of each of `groups` (`None`: of
    /// every group of the chunk, in order) for every combination of their
    /// selected positions, in odometer order — the last group fastest. A
    /// flat group contributes its `cur_idx`. With no groups `f` runs once;
    /// when a listed group has no selected position, never.
    fn for_each(&mut self, chunk: &Chunk, groups: Option<&[usize]>, mut f: impl FnMut(&[usize])) {
        let n = groups.map_or(chunk.groups.len(), <[usize]>::len);
        let group = |i: usize| &chunk.groups[groups.map_or(i, |gs| gs[i])];
        let len = 2 * n;
        let mut inline = [0; Combos::INLINE];
        let buf = if len <= Combos::INLINE {
            &mut inline[..len]
        } else {
            self.buf.resize(len, 0);
            &mut self.buf[..]
        };
        let (pos, first) = buf.split_at_mut(n);
        for (i, p) in pos.iter_mut().enumerate() {
            match next_selected(group(i), None) {
                Some(sel) => *p = sel,
                None => return,
            }
        }
        first.copy_from_slice(pos);
        loop {
            f(pos);
            let mut i = n;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                match next_selected(group(i), Some(pos[i])) {
                    Some(p) => {
                        pos[i] = p;
                        break;
                    }
                    None => pos[i] = first[i],
                }
            }
        }
    }
}

/// The first selected position of `gr` after `after` (from its start when
/// `None`). A flat group has exactly one position: its `cur_idx`.
fn next_selected(gr: &ListGroup, after: Option<usize>) -> Option<usize> {
    if gr.is_flat() {
        return if after.is_none() { usize::try_from(gr.cur_idx).ok() } else { None };
    }
    let from = after.map_or(0, |p| p + 1);
    (from..gr.len).find(|&i| gr.selected(i))
}

/// Grouped-aggregation sink: flattens only the grouping keys, folding every
/// other list group into the per-group [`AggState`]s by multiplicity.
///
/// The table is keyed by raw key entries ([`raw_entry`]) and a key is
/// decoded to [`Value`]s once, when its group leaves the sink. Consecutive
/// key combinations almost always carry the *same* key (the flattened scan
/// side advances one position per many downstream states), so the sink
/// remembers the last key and its group and probes the table only when the
/// key changes — one probe per key run instead of one per chunk state —
/// folding straight into the group's states.
pub(crate) struct GroupBySink<'g> {
    shape: GroupShape<'g>,
    table: GroupTable<RawKey>,
    run: KeyRun,
    combos: Combos,
}

/// Where a grouped sink's inputs live in the chunk (fixed at compile).
struct GroupShape<'g> {
    /// Key slot locations, backing columns and types (decode at finish).
    key_refs: Vec<(VecRef, SlotCol<'g>, DataType)>,
    /// Aggregate input locations (`None` = `COUNT(*)`).
    agg_refs: Vec<Option<(VecRef, SlotCol<'g>)>>,
    /// Distinct groups the keys live in, sorted (the only groups whose
    /// positions the sink ever enumerates).
    key_groups: Vec<usize>,
}

/// The key of the combination folded last and its group in the table.
#[derive(Default)]
struct KeyRun {
    raw: Vec<Option<u64>>,
    /// `None` before the first combination.
    group: Option<usize>,
}

impl<'g> GroupBySink<'g> {
    fn new(
        pipe: &Pipeline<'g>,
        slots: &[SlotDef],
        keys: &[usize],
        aggs: &[PlanAgg],
    ) -> GroupBySink<'g> {
        let key_refs: Vec<_> = keys
            .iter()
            .map(|&s| {
                let (r, sc) = pipe.slot(s);
                (r, sc, slots[s].dtype)
            })
            .collect();
        let agg_refs: Vec<_> = aggs.iter().map(|a| a.slot.map(|s| pipe.slot(s))).collect();
        let mut key_groups: Vec<usize> = key_refs.iter().map(|(r, ..)| r.group).collect();
        key_groups.sort_unstable();
        key_groups.dedup();
        // Every `COUNT(DISTINCT)` keeps a set of raw entries.
        let fresh = aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Count { distinct: true } => AggState::DistinctCodes(Default::default()),
                f => AggState::new(f),
            })
            .collect();
        GroupBySink {
            shape: GroupShape { key_refs, agg_refs, key_groups },
            table: GroupTable::with_states(aggs, fresh),
            run: KeyRun::default(),
            combos: Combos::default(),
        }
    }

    /// Fold one chunk state into the sink.
    fn absorb(&mut self, chunk: &Chunk) {
        let (shape, table, run) = (&self.shape, &mut self.table, &mut self.run);
        // Tuples per key combination contributed by the non-key groups.
        let mut mult_nonkey = 1u64;
        for (gi, gr) in chunk.groups.iter().enumerate() {
            let c = gr.contribution();
            if c == 0 {
                return; // the state represents no tuples
            }
            if !shape.key_groups.contains(&gi) {
                mult_nonkey = mult_nonkey.saturating_mul(c);
            }
        }
        if shape.key_groups.iter().all(|&g| chunk.groups[g].is_flat()) {
            // Every key group is flat: one key combination per state.
            run.fold(shape, table, chunk, mult_nonkey, |gi| {
                chunk.groups[gi].cur_idx.max(0) as usize
            });
            return;
        }
        // Some key group is still unflat: enumerate the key combinations
        // (and only those).
        self.combos.for_each(chunk, Some(&shape.key_groups), |pos| {
            // Position of a group: the combo position for key groups, the
            // flattened `cur_idx` otherwise (only used for flat groups).
            run.fold(shape, table, chunk, mult_nonkey, |gi| {
                match shape.key_groups.iter().position(|&k| k == gi) {
                    Some(i) => pos[i],
                    None => chunk.groups[gi].cur_idx.max(0) as usize,
                }
            });
        });
    }

    /// The finished groups, keys decoded, in output order.
    fn into_rows(self, plan: &LogicalPlan) -> Vec<Vec<Value>> {
        let key_refs = &self.shape.key_refs;
        self.table.into_rows(plan, |key| {
            key.iter()
                .zip(key_refs)
                .map(|(&raw, &(_, sc, dtype))| raw_value(raw, dtype, sc))
                .collect()
        })
    }
}

impl KeyRun {
    /// Fold the key combination whose key-group positions `pos_in`
    /// resolves into its group, probing the table only when the
    /// combination's key differs from the run's.
    fn fold(
        &mut self,
        shape: &GroupShape<'_>,
        table: &mut GroupTable<RawKey>,
        chunk: &Chunk,
        mult_nonkey: u64,
        pos_in: impl Fn(usize) -> usize,
    ) {
        let raw = |r: &VecRef| raw_entry(&chunk.groups[r.group].vectors[r.vec], pos_in(r.group));
        let group = match self.group {
            Some(g) if shape.key_refs.iter().zip(&self.raw).all(|((r, ..), &k)| raw(r) == k) => g,
            _ => {
                self.raw.clear();
                self.raw.extend(shape.key_refs.iter().map(|(r, ..)| raw(r)));
                let g = table.group_index(self.raw.as_slice());
                self.group = Some(g);
                g
            }
        };
        let mut grew = 0;
        for (state, input) in table.states_mut(group).iter_mut().zip(&shape.agg_refs) {
            grew += fold_agg(state, input, chunk, &shape.key_groups, mult_nonkey, &pos_in);
        }
        table.charge(grew);
    }
}

/// Fold one aggregate input of one key combination into `state`.
/// `pos_in` resolves the current position of a *key* group; `mult_nonkey`
/// is the tuple count contributed by all non-key groups. Returns the
/// state's heap growth (see [`AggState::update`]) for memory budgeting.
fn fold_agg(
    state: &mut AggState,
    input: &Option<(VecRef, SlotCol<'_>)>,
    chunk: &Chunk,
    key_groups: &[usize],
    mult_nonkey: u64,
    pos_in: impl Fn(usize) -> usize,
) -> u64 {
    let Some((r, col)) = input else {
        // COUNT(*): pure multiplicity arithmetic, no values read.
        state.add_count(mult_nonkey);
        return 0;
    };
    let gr = &chunk.groups[r.group];
    let vec = &gr.vectors[r.vec];
    if key_groups.contains(&r.group) {
        // The input sits in a key group: one value per combo, weighted by
        // the other groups.
        let i = pos_in(r.group);
        return fold_block(state, vec, *col, mult_nonkey, i..i + 1);
    }
    // The input sits in an extension group: fold its selected values with
    // the multiplicity of every non-key group but itself — never
    // enumerating tuples. (`absorb` returned early on a zero contribution.)
    let excl = chunk
        .groups
        .iter()
        .enumerate()
        .filter(|&(g, _)| g != r.group && !key_groups.contains(&g))
        .fold(1u64, |m, (_, other)| m.saturating_mul(other.contribution()));
    fold_block(state, vec, *col, excl, positions(gr))
}

/// Row sink for projections.
///
/// Under `LIMIT k` it keeps a bounded max-heap of at most `k` rows under
/// [`cmp_rows`], the worst kept row on top. A candidate is compared with
/// that top straight from the chunk vectors: first its leading `ORDER BY`
/// entry against the top's, kept typed ([`Bound`]), which settles every
/// candidate whose key differs; only a tie (or a key the bound cannot
/// type) runs the full in-place comparison ([`cmp_candidate`]). When the
/// projection reads one unflat group, a loop skips the positions whose
/// leading entry the bound rejects without building a candidate for each
/// ([`next_contender`]). A rejected row allocates nothing; only rows
/// entering the heap are materialized. A worker therefore holds O(k) rows
/// whatever the result size, which is safe because the top-k of a union
/// is the top-k of the per-worker top-ks. Without a `LIMIT` every row is
/// kept in arrival order; the finish sorts them when there is an
/// `ORDER BY`.
pub(crate) struct TopKSink<'p, 'g> {
    /// The projected slots, borrowed from the plan: without a `LIMIT` their
    /// locations are read from the pipeline, so the sink builds no copy.
    slots: &'p [usize],
    /// Under a `LIMIT`, the distinct groups referenced by the projection,
    /// sorted, and per projected column its location, backing column and
    /// the index of its group in `ref_groups` — the candidate comparison
    /// reads them once per entry.
    ref_groups: Vec<usize>,
    cols: Vec<(VecRef, SlotCol<'g>, usize)>,
    order_by: &'p [(usize, bool)],
    limit: Option<usize>,
    kept: Kept,
    combos: Combos,
}

/// The rows a [`TopKSink`] holds: a heap under a limit, arrival order
/// otherwise.
#[derive(Default)]
struct Kept {
    rows: Vec<Vec<Value>>,
    /// The heap top's leading `ORDER BY` value once the heap is full.
    bound: Bound,
    /// Heap estimate of `rows`, kept incrementally.
    bytes: u64,
}

/// The full heap's worst leading `ORDER BY` value, typed so that a
/// candidate is settled by one integer or float compare.
#[derive(Debug, Clone, Copy, Default)]
enum Bound {
    Int(i64),
    Float(f64),
    Null,
    /// A string or bool key, or a heap not yet full: compare in full.
    #[default]
    Untyped,
}

impl Bound {
    fn of(v: &Value) -> Bound {
        match v {
            Value::Int64(x) | Value::Date(x) => Bound::Int(*x),
            Value::Float64(x) => Bound::Float(*x),
            Value::Null => Bound::Null,
            _ => Bound::Untyped,
        }
    }

    /// The first position `i` of `at` for which `keep(i, ord)` holds,
    /// where `ord` is `vector_value(v, i).total_cmp(bound)` when the
    /// bound's type settles it without building the value, `None`
    /// otherwise. The one definition of the typed order: the block's type
    /// is matched once per call, so a scan over many positions is one
    /// typed loop.
    fn find(
        self,
        v: &ValueVector,
        mut at: Range<usize>,
        mut keep: impl FnMut(usize, Option<Ordering>) -> bool,
    ) -> Option<usize> {
        match (v, self) {
            (ValueVector::I64 { vals, valid, .. }, Bound::Int(b)) => {
                at.find(|&i| keep(i, Some(if valid[i] { vals[i].cmp(&b) } else { Ordering::Less })))
            }
            (ValueVector::F64 { vals, valid }, Bound::Float(b)) => at.find(|&i| {
                keep(i, Some(if valid[i] { vals[i].total_cmp(&b) } else { Ordering::Less }))
            }),
            // NULL ranks below every value.
            (v, Bound::Null) => {
                let valid = block_validity(v);
                at.find(|&i| {
                    keep(i, Some(if valid[i] { Ordering::Greater } else { Ordering::Equal }))
                })
            }
            _ => at.find(|&i| keep(i, None)),
        }
    }

    /// How the candidate whose leading `ORDER BY` entry is `v[i]` ranks
    /// against the bound under the direction `desc`: `Greater` rejects it
    /// outright, `Less` keeps it, and a tie or `None` (a bound the block's
    /// type does not settle) leaves it to the full comparison.
    fn rank(self, v: &ValueVector, i: usize, desc: bool) -> Option<Ordering> {
        let mut ord = None;
        self.find(v, i..i + 1, |_, o| {
            ord = o;
            true
        });
        ord.map(|o| if desc { o.reverse() } else { o })
    }
}

/// The first selected position of the unflat group `gr` at or after
/// `from` whose leading entry in `v` the bound does not reject under the
/// direction `desc`: every position it skips, [`Kept::offer`] would
/// reject too.
fn next_contender(
    gr: &ListGroup,
    v: &ValueVector,
    from: usize,
    bound: Bound,
    desc: bool,
) -> Option<usize> {
    // `rank`'s `Greater`, before the direction is applied.
    let reject = Some(if desc { Ordering::Less } else { Ordering::Greater });
    bound.find(v, from..gr.len, |i, ord| gr.selected(i) && ord != reject)
}

impl Kept {
    /// Offer the candidate row whose column `c` reads `entry(c)` to the
    /// heap of at most `k` rows, `mult` times.
    fn offer<'a>(
        &mut self,
        (k, mult, n_cols): (usize, u64, usize),
        order_by: &[(usize, bool)],
        entry: impl Fn(usize) -> (&'a ValueVector, usize, SlotCol<'a>),
    ) {
        let (heap, first) = (&mut self.rows, order_by.first());
        if heap.len() == k {
            let lead = first.and_then(|&(col, desc)| {
                let (v, i, _) = entry(col);
                self.bound.rank(v, i, desc)
            });
            match lead {
                Some(Ordering::Greater) => return,
                Some(Ordering::Less) => {}
                // A tie on the leading key, or a key the bound cannot
                // type: the full comparison decides.
                _ => {
                    if cmp_candidate(&heap[0], order_by, &entry).is_ge() {
                        return;
                    }
                }
            }
        }
        let row: Vec<Value> = (0..n_cols)
            .map(|c| {
                let (v, i, sc) = entry(c);
                vector_value(v, i, sc)
            })
            .collect();
        for _ in 0..mult {
            if heap.len() < k {
                self.bytes += row_bytes(&row);
                heap.push(row.clone());
                let last = heap.len() - 1;
                sift_up(heap, last, order_by);
            } else if cmp_rows(&row, &heap[0], order_by).is_lt() {
                self.bytes = self.bytes - row_bytes(&heap[0]) + row_bytes(&row);
                heap[0] = row.clone();
                sift_down(heap, 0, order_by);
            } else {
                break;
            }
        }
        if let (Some(&(col, _)), true) = (first, heap.len() == k) {
            self.bound = Bound::of(&heap[0][col]);
        }
    }
}

impl<'p, 'g> TopKSink<'p, 'g> {
    fn new(
        pipe: &Pipeline<'g>,
        slots: &'p [usize],
        order_by: &'p [(usize, bool)],
        limit: Option<usize>,
    ) -> TopKSink<'p, 'g> {
        let (mut ref_groups, mut cols) = (Vec::new(), Vec::new());
        if limit.is_some() {
            ref_groups = slots.iter().map(|&s| pipe.slot(s).0.group).collect();
            ref_groups.sort_unstable();
            ref_groups.dedup();
            cols = slots
                .iter()
                .map(|&s| {
                    let (r, sc) = pipe.slot(s);
                    (r, sc, ref_groups.iter().position(|&g| g == r.group).unwrap_or_default())
                })
                .collect();
        }
        TopKSink {
            slots,
            ref_groups,
            cols,
            order_by,
            limit,
            kept: Kept::default(),
            combos: Combos::default(),
        }
    }

    fn absorb(&mut self, pipe: &Pipeline<'_>) {
        let (chunk, slots) = (&pipe.chunk, self.slots);
        let Some(k) = self.limit else {
            // Every tuple of the state is a row: enumerate the Cartesian
            // product, decoding strings through their dictionaries (late
            // materialization). `rows` grows once, by the tuple count.
            let rows = &mut self.kept.rows;
            let before = rows.len();
            rows.reserve(usize::try_from(chunk.tuple_count()).unwrap_or(0));
            self.combos.for_each(chunk, None, |pos| {
                let value = |&s: &usize| {
                    let (r, sc) = pipe.slot(s);
                    vector_value(&chunk.groups[r.group].vectors[r.vec], pos[r.group], sc)
                };
                rows.push(slots.iter().map(value).collect());
            });
            self.kept.bytes += rows[before..].iter().map(|r| row_bytes(r)).sum::<u64>();
            return;
        };
        if k == 0 {
            return;
        }
        // Unprojected groups repeat each projected combination `mult` times.
        let mut mult = 1u64;
        for (gi, gr) in chunk.groups.iter().enumerate() {
            let c = gr.contribution();
            if c == 0 {
                return;
            }
            if !self.ref_groups.contains(&gi) {
                mult = mult.saturating_mul(c);
            }
        }
        let (cols, order_by, kept) = (&self.cols, self.order_by, &mut self.kept);
        let shape = (k, mult, slots.len());
        let entry = |pos: &[usize], c: usize| {
            let (r, sc, gi) = cols[c];
            (&chunk.groups[r.group].vectors[r.vec], pos[gi], sc)
        };
        match self.ref_groups[..] {
            // One unflat projected group: once the heap is full, skip
            // straight to the positions the bound does not reject.
            [g] if !chunk.groups[g].is_flat() => {
                let gr = &chunk.groups[g];
                let lead =
                    order_by.first().map(|&(col, desc)| (&gr.vectors[cols[col].0.vec], desc));
                let mut from = 0;
                loop {
                    let next = match lead {
                        Some((v, desc)) if kept.rows.len() == k => {
                            next_contender(gr, v, from, kept.bound, desc)
                        }
                        _ => next_selected(gr, from.checked_sub(1)),
                    };
                    let Some(i) = next else { break };
                    kept.offer(shape, order_by, |c| entry(&[i], c));
                    from = i + 1;
                }
            }
            _ => self.combos.for_each(chunk, Some(&self.ref_groups), |pos| {
                kept.offer(shape, order_by, |c| entry(pos, c));
            }),
        }
    }
}

/// [`cmp_rows`]`(candidate, kept, order_by)` with the candidate's column
/// `c` read in place through `entry(c)` — nothing is materialized.
fn cmp_candidate<'a>(
    kept: &[Value],
    order_by: &[(usize, bool)],
    entry: &impl Fn(usize) -> (&'a ValueVector, usize, SlotCol<'a>),
) -> Ordering {
    for &(col, desc) in order_by {
        let (v, i, sc) = entry(col);
        let ord = cmp_entry(v, i, sc, &kept[col]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord.is_ne() {
            return ord;
        }
    }
    for (col, k) in kept.iter().enumerate() {
        let (v, i, sc) = entry(col);
        let ord = cmp_entry(v, i, sc, k);
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

/// Restore the max-heap order under [`cmp_rows`] from position `i` up.
fn sift_up(heap: &mut [Vec<Value>], mut i: usize, order_by: &[(usize, bool)]) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp_rows(&heap[i], &heap[parent], order_by).is_le() {
            break;
        }
        heap.swap(i, parent);
        i = parent;
    }
}

/// Restore the max-heap order under [`cmp_rows`] from position `i` down.
fn sift_down(heap: &mut [Vec<Value>], mut i: usize, order_by: &[(usize, bool)]) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && cmp_rows(&heap[right], &heap[left], order_by).is_gt() {
            right
        } else {
            left
        };
        if cmp_rows(&heap[child], &heap[i], order_by).is_le() {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// DISTINCT sink: deduplicates projection rows as raw entry rows and
/// decodes each distinct row once, at finish. Factorization pays off here
/// too — only the groups actually referenced by the projection are
/// enumerated, so `DISTINCT a.x` over a many-neighbour extension never
/// walks the neighbour lists of unprojected variables.
pub(crate) struct DistinctSink<'g> {
    /// Per projected column: its location, backing column and type, and
    /// the index of its group in `ref_groups`.
    cols: Vec<(VecRef, SlotCol<'g>, DataType, usize)>,
    /// Distinct groups referenced by the projection, sorted.
    ref_groups: Vec<usize>,
    set: IntSet<RawKey>,
    /// The candidate row, reused: only a row not yet in `set` is copied.
    row: Vec<Option<u64>>,
    /// Heap estimate of `set`, grown on every fresh insertion.
    bytes: u64,
    combos: Combos,
}

impl<'g> DistinctSink<'g> {
    fn new(pipe: &Pipeline<'g>, defs: &[SlotDef], slots: &[usize]) -> DistinctSink<'g> {
        let mut ref_groups: Vec<usize> = slots.iter().map(|&s| pipe.slot(s).0.group).collect();
        ref_groups.sort_unstable();
        ref_groups.dedup();
        let cols = slots
            .iter()
            .map(|&s| {
                let (r, sc) = pipe.slot(s);
                let gi = ref_groups.iter().position(|&g| g == r.group).unwrap_or_default();
                (r, sc, defs[s].dtype, gi)
            })
            .collect();
        DistinctSink {
            cols,
            ref_groups,
            set: IntSet::default(),
            row: Vec::new(),
            bytes: 0,
            combos: Combos::default(),
        }
    }

    fn absorb(&mut self, chunk: &Chunk) {
        if chunk.groups.iter().any(|gr| gr.contribution() == 0) {
            return;
        }
        let (cols, set, row) = (&self.cols, &mut self.set, &mut self.row);
        let mut grew = 0u64;
        self.combos.for_each(chunk, Some(&self.ref_groups), |pos| {
            row.clear();
            row.extend(
                cols.iter().map(|&(r, _, _, gi)| {
                    raw_entry(&chunk.groups[r.group].vectors[r.vec], pos[gi])
                }),
            );
            if !set.contains(row.as_slice()) {
                let key: RawKey = row.as_slice().into();
                grew += key.heap_bytes() + std::mem::size_of::<RawKey>() as u64;
                set.insert(key);
            }
        });
        self.bytes += grew;
    }

    /// The distinct rows, decoded, in no particular order.
    fn into_rows(self) -> Vec<Vec<Value>> {
        let cols = &self.cols;
        self.set
            .into_iter()
            .map(|key| {
                key.iter()
                    .zip(cols)
                    .map(|(&raw, &(_, sc, dtype, _))| raw_value(raw, dtype, sc))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Layout, Op};
    use super::*;
    use gfcl_columnar::NullKind;
    use proptest::prelude::*;

    /// A block of `kind` (0 = Int64, 1 = Date, 2 = Double, 3 = Bool,
    /// 4 = dictionary codes of `DICT`) from `(is_null, raw)` entries; raw
    /// doubles include NaN and both zeros.
    fn block(kind: u8, entries: &[(bool, i64)]) -> ValueVector {
        block_of(kind, entries, DICT.len() as u64)
    }

    /// [`block`] with string codes drawn from `0..codes`.
    fn block_of(kind: u8, entries: &[(bool, i64)], codes: u64) -> ValueVector {
        let valid = entries.iter().map(|&(null, _)| !null).collect();
        let raws = entries.iter().map(|&(_, r)| r);
        match kind {
            0 | 1 => ValueVector::I64 { vals: raws.collect(), valid, date: kind == 1 },
            2 => {
                let f = |r: i64| match r {
                    -4 => f64::NAN,
                    -3 => -0.0,
                    -2 => 0.0,
                    r => r as f64 * 0.5,
                };
                ValueVector::F64 { vals: raws.map(f).collect(), valid }
            }
            3 => ValueVector::Bool { vals: raws.map(|r| r > 0).collect(), valid },
            _ => ValueVector::Code {
                vals: raws.map(|r| r.rem_euclid(codes as i64) as u64).collect(),
                valid,
            },
        }
    }

    const DICT: [&str; 5] = ["Chrome", "Firefox", "Opera", "Safari", "Zeta"];

    /// A finished value as comparable bits (NaN payloads and the sign of
    /// zero included).
    fn bits(v: &Value) -> String {
        match v {
            Value::Float64(f) => format!("f64:{:x}", f.to_bits()),
            v => format!("{v:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn typed_folds_match_per_value_updates(
            kind in 0u8..5,
            func in 0u8..6,
            blocks in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..4, -4i64..6, 0u8..4), 0..24),
                    0u64..4,
                ),
                1..4,
            ),
        ) {
            let func = match func {
                0 => AggFunc::Count { distinct: false },
                1 => AggFunc::Count { distinct: true },
                2 => AggFunc::Sum,
                3 => AggFunc::Avg,
                4 => AggFunc::Min,
                _ => AggFunc::Max,
            };
            let strings: Vec<Value> = DICT.iter().map(|&s| Value::String(s.into())).collect();
            let dict = Column::from_values(DataType::String, &strings, NullKind::Uncompressed).unwrap();
            let sc = SlotCol::clean(Some(&dict));
            let mut typed = match func {
                AggFunc::Count { distinct: true } => AggState::DistinctCodes(Default::default()),
                f => AggState::new(f),
            };
            let mut reference = AggState::new(func);
            for (entries, mult) in &blocks {
                let rows: Vec<(bool, i64)> = entries.iter().map(|&(n, r, _)| (n == 0, r)).collect();
                let v = block(kind, &rows);
                // A position is selected unless its third draw is 0.
                let selected = |i: &usize| entries[*i].2 != 0;
                fold_block(&mut typed, &v, sc, *mult, (0..entries.len()).filter(selected));
                for i in (0..entries.len()).filter(selected) {
                    reference.update(&vector_value(&v, i, sc), *mult);
                }
            }
            let dtype = match kind {
                0 => DataType::Int64,
                1 => DataType::Date,
                2 => DataType::Float64,
                3 => DataType::Bool,
                _ => DataType::String,
            };
            prop_assert_eq!(
                bits(&typed.finish(Some(dtype))),
                bits(&reference.finish(Some(dtype)))
            );
        }
    }

    /// The type of a [`block`] kind.
    fn dtype_of(kind: u8) -> DataType {
        [DataType::Int64, DataType::Date, DataType::Float64, DataType::Bool, DataType::String]
            [kind as usize]
    }

    /// A plan over `slots` (one per column) returning `ret`.
    fn test_plan(
        dtypes: &[DataType],
        ret: PlanReturn,
        order_by: Vec<(usize, bool)>,
        limit: Option<usize>,
        distinct: bool,
    ) -> LogicalPlan {
        let slots = dtypes
            .iter()
            .enumerate()
            .map(|(i, &dtype)| SlotDef {
                source: crate::plan::SlotSource::NodeProp { node: 0, prop: i },
                dtype,
                for_return: true,
                name: format!("c{i}"),
            })
            .collect();
        LogicalPlan {
            nodes: Vec::new(),
            edges: Vec::new(),
            slots,
            steps: Vec::new(),
            header: (0..8).map(|i| format!("h{i}")).collect(),
            ret,
            order_by,
            limit,
            distinct,
            order_source: crate::plan::OrderSource::Declaration,
            step_cards: Vec::new(),
            sink_card: None,
            params: Vec::new(),
        }
    }

    /// One drawn chunk state: rows of `(selected, entry per column)`, the
    /// multiplicity an unprojected list group adds, and whether the row
    /// group is flattened (to its first selected position).
    type State = (Vec<(u8, (u8, i64), (u8, i64), (u8, i64))>, u64, bool);

    /// Feed `states` to two sinks of `plan` — the first `split` to worker
    /// 0, the rest to worker 1 — merge them in worker order and finish.
    /// Returns the output and, as the reference, every tuple the states
    /// represent, materialized through `vector_value`.
    fn run_sinks(
        plan: &LogicalPlan,
        kinds: &[u8],
        sc: SlotCol<'_>,
        codes: u64,
        states: &[State],
        split: usize,
    ) -> (QueryOutput, Vec<Vec<Value>>) {
        let n = kinds.len();
        let layout = Layout::for_columns(n);
        let mut pipe = Pipeline {
            ops: kinds.iter().map(|&k| reader(slot_col(k, sc))).collect(),
            chunk: Chunk { groups: Vec::new(), morsel: 0 },
            layout: &layout,
        };
        let mut sinks = [Sink::new(plan, &pipe).unwrap(), Sink::new(plan, &pipe).unwrap()];
        let mut reference = Vec::new();
        for (s, (rows, mult, flat)) in states.iter().enumerate() {
            let entries = |c: usize| -> Vec<(bool, i64)> {
                rows.iter()
                    .map(|r| [r.1, r.2, r.3][c])
                    .map(|(null, raw)| (null == 0, raw))
                    .collect()
            };
            let vectors = (0..n).map(|c| block_of(kinds[c], &entries(c), codes)).collect();
            let mut g0 = ListGroup::with_vectors(vectors);
            g0.reset(rows.len());
            for (i, r) in rows.iter().enumerate() {
                if r.0 == 0 {
                    g0.unselect(i);
                }
            }
            let first = g0.iter_selected().next();
            if let (true, Some(i)) = (*flat, first) {
                g0.cur_idx = i as i64;
            }
            let mut g1 = ListGroup::new(0);
            g1.reset(*mult as usize);
            pipe.chunk = Chunk { groups: vec![g0, g1], morsel: 0 };
            sinks[usize::from(s >= split)].absorb(&pipe);
            let g0 = &pipe.chunk.groups[0];
            for i in positions(g0) {
                let row: Vec<Value> = (0..n)
                    .map(|c| vector_value(&g0.vectors[c], i, slot_col(kinds[c], sc)))
                    .collect();
                reference.extend(std::iter::repeat_n(row, *mult as usize));
            }
        }
        let [a, b] = sinks;
        (a.merge(b).finish(plan), reference)
    }

    /// An operator whose slot decodes through `sc`: a read of its column,
    /// or, for a slot without one, an operator that reads none.
    fn reader(sc: SlotCol<'_>) -> Op<'_> {
        let at = VecRef { group: 0, vec: 0 };
        match sc.col {
            Some(col) => Op::ReadNodeProp(super::super::read::ReadNodeProp {
                node: at,
                out: at,
                label: 0,
                prop: 0,
                dtype: DataType::String,
                touched: false,
                col,
                ext: sc.ext,
                rd: Default::default(),
            }),
            None => Op::Filter(super::super::filter::Filter {
                pred: crate::pred::CPred::Const(true),
                mask: Vec::new(),
            }),
        }
    }

    fn slot_col(kind: u8, sc: SlotCol<'_>) -> SlotCol<'_> {
        if kind == 4 {
            sc
        } else {
            SlotCol::default()
        }
    }

    fn row_bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(bits).collect()).collect()
    }

    /// A string slot whose code space holds both baseline dictionary codes
    /// and delta-extension codes (names the committed persons added), and
    /// its code count. Codes follow insertion order, not string order.
    fn with_string_slot(f: impl FnOnce(SlotCol<'_>, u64)) {
        use gfcl_storage::{GraphStore, RawGraph, StorageConfig};
        let store = GraphStore::in_memory(&RawGraph::example(), StorageConfig::default()).unwrap();
        let mut txn = store.begin_write();
        for name in ["Ana", "zoe", "Bob", "alicia"] {
            let props = [
                ("name", Value::String(name.into())),
                ("age", Value::Int64(30)),
                ("gender", Value::String("F".into())),
            ];
            txn.insert_vertex("PERSON", &props).unwrap();
        }
        txn.commit().unwrap();
        let snap = store.snapshot();
        let view = snap.view();
        let ext = view.vertex_str_ext(0, 0).expect("new names extend the dictionary");
        assert!(ext.base_len() > 0 && !ext.is_empty());
        f(SlotCol { col: Some(view.base().vertex_prop(0, 0)), ext: Some(ext) }, ext.code_end());
    }

    fn states_strategy() -> impl Strategy<Value = Vec<State>> {
        let entry = || (0u8..4, -4i64..6);
        let row = (0u8..5, entry(), entry(), entry());
        proptest::collection::vec((proptest::collection::vec(row, 0..24), 0u64..4, 0u8..4), 1..6)
            .prop_map(|states| {
                states.into_iter().map(|(rows, mult, flat)| (rows, mult, flat == 0)).collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every encoded sink against the `Value` path, after two workers'
        /// sinks merge in worker order: top-k against `order_and_limit`
        /// over the materialized rows (ties, NaN, ±0, NULL, dates, codes
        /// and delta-extension codes out of string order), `DISTINCT`
        /// against a `BTreeSet` of rows, `GROUP BY` against
        /// `GroupTable::add_tuple`, and string `COUNT(DISTINCT)` against a
        /// set of decoded strings.
        #[test]
        fn encoded_sinks_match_the_value_path(
            kinds in proptest::collection::vec(0u8..5, 1..4),
            states in states_strategy(),
            split in 0usize..6,
            order in proptest::collection::vec((0usize..3, any::<bool>()), 0..3),
            limit in proptest::option::weighted(0.8, 0usize..9),
            n_keys in 0usize..3,
        ) {
            with_string_slot(|sc, codes| {
                let n = kinds.len();
                let dtypes: Vec<DataType> = kinds.iter().map(|&k| dtype_of(k)).collect();
                let order: Vec<(usize, bool)> = order.iter().map(|&(c, d)| (c % n, d)).collect();
                let slots: Vec<usize> = (0..n).collect();

                // Top-k (and, without a limit, the plain row sink).
                let ret = PlanReturn::Props(slots.clone());
                let plan = test_plan(&dtypes, ret.clone(), order.clone(), limit, false);
                let (out, all) = run_sinks(&plan, &kinds, sc, codes, &states, split);
                let QueryOutput::Rows { rows: got, .. } = out else { panic!("rows") };
                let mut want = agg::order_and_limit(all.clone(), &order, limit);
                let mut got = got;
                if order.is_empty() && limit.is_none() {
                    // Arrival order: compare as multisets.
                    got.sort_by(|a, b| cmp_rows(a, b, &[]));
                    want.sort_by(|a, b| cmp_rows(a, b, &[]));
                }
                assert_eq!(row_bits(&got), row_bits(&want), "top-k {kinds:?} {order:?} {limit:?}");

                // DISTINCT.
                let plan = test_plan(&dtypes, ret, Vec::new(), None, true);
                let (out, _) = run_sinks(&plan, &kinds, sc, codes, &states, split);
                let QueryOutput::Rows { rows: got, .. } = out else { panic!("rows") };
                let set: std::collections::BTreeSet<Vec<agg::OrdValue>> =
                    all.iter().map(|r| r.iter().cloned().map(agg::OrdValue).collect()).collect();
                let want: Vec<Vec<Value>> =
                    set.into_iter().map(|r| r.into_iter().map(|v| v.0).collect()).collect();
                assert_eq!(row_bits(&got), row_bits(&want), "distinct {kinds:?}");

                // GROUP BY the first `n_keys` columns, aggregating the last.
                let keys: Vec<usize> = (0..n_keys.min(n - 1)).collect();
                let input = Some(n - 1);
                let mut aggs = vec![
                    PlanAgg { func: AggFunc::CountStar, slot: None },
                    PlanAgg { func: AggFunc::Count { distinct: false }, slot: input },
                    PlanAgg { func: AggFunc::Count { distinct: true }, slot: input },
                    PlanAgg { func: AggFunc::Min, slot: input },
                    PlanAgg { func: AggFunc::Max, slot: input },
                ];
                if kinds[n - 1] <= 1 {
                    // Exact integer sums: the same in any addition order.
                    aggs.push(PlanAgg { func: AggFunc::Sum, slot: input });
                    aggs.push(PlanAgg { func: AggFunc::Avg, slot: input });
                }
                let ret = PlanReturn::GroupBy { keys: keys.clone(), aggs: aggs.clone() };
                let plan = test_plan(&dtypes, ret, Vec::new(), None, false);
                let (out, _) = run_sinks(&plan, &kinds, sc, codes, &states, split);
                let QueryOutput::Rows { rows: got, .. } = out else { panic!("rows") };
                let mut table = GroupTable::new(&aggs);
                for row in &all {
                    let values: Vec<Option<Value>> =
                        aggs.iter().map(|a| a.slot.map(|s| row[s].clone())).collect();
                    table.add_tuple(keys.iter().map(|&k| row[k].clone()).collect(), &values);
                }
                let QueryOutput::Rows { rows: want, .. } = table.into_output(&plan) else {
                    panic!("rows")
                };
                assert_eq!(row_bits(&got), row_bits(&want), "group by {keys:?} of {kinds:?}");

                // String COUNT(DISTINCT): the number of distinct decoded strings.
                if kinds[n - 1] == 4 {
                    for g in &got {
                        let key = &g[..keys.len()];
                        let strings: std::collections::BTreeSet<&str> = all
                            .iter()
                            .filter(|r| keys.iter().zip(key).all(|(&k, v)| bits(&r[k]) == bits(v)))
                            .filter_map(|r| match &r[n - 1] {
                                Value::String(s) => Some(s.as_str()),
                                _ => None,
                            })
                            .collect();
                        assert_eq!(g[keys.len() + 2], Value::Int64(strings.len() as i64));
                    }
                }
            });
        }
    }
}
