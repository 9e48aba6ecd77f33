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
//! and `COUNT(DISTINCT)` over a dictionary-encoded slot keeps a set of
//! codes. Only string `MIN`/`MAX` and `COUNT(DISTINCT)` over numbers build
//! [`Value`]s. A counted tail extend reaches the sinks as a list group with
//! a length and no vectors, which only ever contributes multiplicity.

use gfcl_columnar::Column;
use gfcl_common::{DataType, Result, Value};

use super::Pipeline;
use crate::agg::{self, cmp_rows, AggState, GroupTable, OrdValue, ScalarAgg};
use crate::chunk::{Chunk, ListGroup, ValueVector, VecRef};
use crate::engine::QueryOutput;
use crate::govern::{row_bytes, value_bytes};
use crate::plan::{LogicalPlan, PlanAgg, PlanReturn, SlotDef};
use crate::pred::SlotCol;
use crate::query::AggFunc;

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
                Sink::Distinct(DistinctSink::new(pipe, slots))
            }
            PlanReturn::Props(slots) => Sink::Rows(TopKSink::new(pipe, plan, slots)),
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
            Sink::Rows(sink) => sink.bytes,
            Sink::Distinct(sink) => sink.bytes,
            Sink::Grouped(sink) => sink.table.approx_bytes() + sink.run.bytes,
        }
    }

    /// This sink with a later worker's merged in. Every merge is
    /// associative, so the output is deterministic for a fixed worker
    /// count (and for all integer aggregates, for *any* worker count).
    pub(crate) fn merge(mut self, other: Sink<'p, 'g>) -> Sink<'p, 'g> {
        match (&mut self, other) {
            (Sink::Scalar(a), Sink::Scalar(b)) => a.merge(b),
            (Sink::Rows(a), Sink::Rows(b)) => a.rows.extend(b.rows),
            (Sink::Distinct(a), Sink::Distinct(b)) => a.set.extend(b.set),
            (Sink::Grouped(a), Sink::Grouped(b)) => {
                a.run.flush(&mut a.table);
                a.table.merge(b.finish());
            }
            // Every worker builds its sink from the same plan.
            _ => debug_assert!(false, "merging mismatched sinks"),
        }
        self
    }

    /// The query's output.
    pub(crate) fn finish(self, plan: &LogicalPlan) -> QueryOutput {
        let rows: Vec<Vec<Value>> = match self {
            Sink::Scalar(agg) => return agg.finish(plan),
            Sink::Grouped(sink) => return sink.finish().into_output(plan),
            Sink::Rows(sink) => sink.rows,
            Sink::Distinct(sink) => {
                sink.set.into_iter().map(|r| r.into_iter().map(|v| v.0).collect()).collect()
            }
        };
        QueryOutput::Rows { header: plan.header.clone(), rows: agg::finalize_rows(plan, rows) }
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
    use ValueVector::{Code, F64, I64};
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
        (state @ AggState::DistinctCodes(_), Code { vals, valid }) => {
            at.filter(|&i| valid[i]).map(|i| state.insert_code(vals[i])).sum()
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
    let better = if want_min { std::cmp::Ordering::Greater } else { std::cmp::Ordering::Less };
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
    match v {
        ValueVector::I64 { vals, valid, date } => {
            if valid[idx] {
                if *date {
                    Value::Date(vals[idx])
                } else {
                    Value::Int64(vals[idx])
                }
            } else {
                Value::Null
            }
        }
        ValueVector::F64 { vals, valid } => {
            if valid[idx] {
                Value::Float64(vals[idx])
            } else {
                Value::Null
            }
        }
        ValueVector::Bool { vals, valid } => {
            if valid[idx] {
                Value::Bool(vals[idx])
            } else {
                Value::Null
            }
        }
        ValueVector::Code { vals, valid } => {
            if valid[idx] {
                Value::String(code_str(vals[idx], sc).to_owned())
            } else {
                Value::Null
            }
        }
        // lint: allow(callers pass property/node slots only; compile()
        // never wires an EdgeList vector into a value sink)
        _ => panic!("vector_value on non-scalar vector"),
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
fn cmp_entry(v: &ValueVector, idx: usize, sc: SlotCol<'_>, other: &Value) -> std::cmp::Ordering {
    match (v, other) {
        (ValueVector::Code { vals, valid }, Value::String(s)) if valid[idx] => {
            code_str(vals[idx], sc).cmp(s.as_str())
        }
        // Strings rank above every other type.
        (ValueVector::Code { valid, .. }, _) if valid[idx] => std::cmp::Ordering::Greater,
        // Every other entry is a heap-free `Value`.
        _ => vector_value(v, idx, sc).total_cmp(other),
    }
}

/// A grouping-key entry of a block, comparable without decoding: the
/// integer, the float's bits, the bool or the dictionary code, `None` for
/// NULL. A slot's block type and dictionary are fixed for the pipeline, so
/// equal entries of one slot are equal values.
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
/// each wraps back to. A sink owns one and reuses it for every state, so
/// enumeration allocates nothing per state.
#[derive(Default)]
struct Combos {
    buf: Vec<usize>,
}

impl Combos {
    /// Call `f` with the current position of each of `groups` (`None`: of
    /// every group of the chunk, in order) for every combination of their
    /// selected positions, in odometer order — the last group fastest. A
    /// flat group contributes its `cur_idx`. With no groups `f` runs once;
    /// when a listed group has no selected position, never.
    fn for_each(&mut self, chunk: &Chunk, groups: Option<&[usize]>, mut f: impl FnMut(&[usize])) {
        let n = groups.map_or(chunk.groups.len(), <[usize]>::len);
        let group = |i: usize| &chunk.groups[groups.map_or(i, |gs| gs[i])];
        self.buf.clear();
        for i in 0..n {
            match next_selected(group(i), None) {
                Some(p) => self.buf.push(p),
                None => return,
            }
        }
        self.buf.extend_from_within(..);
        let (pos, first) = self.buf.split_at_mut(n);
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
/// Consecutive key combinations almost always carry the *same* key values
/// (the flattened scan side advances one position per many downstream
/// states), so the sink accumulates the current key's states in a run
/// cache and touches the group table only on key changes — one table probe
/// per key run instead of one per chunk state. The cache compares keys as
/// raw block entries ([`raw_entry`]) and decodes a key to [`Value`]s once,
/// when its run starts.
pub(crate) struct GroupBySink<'g> {
    shape: GroupShape<'g>,
    table: GroupTable,
    run: KeyRun,
    combos: Combos,
}

/// Where a grouped sink's inputs live in the chunk (fixed at compile).
struct GroupShape<'g> {
    /// Key slot locations + backing columns (string decode at the sink).
    key_refs: Vec<(VecRef, SlotCol<'g>)>,
    /// Aggregate input locations (`None` = `COUNT(*)`).
    agg_refs: Vec<Option<(VecRef, SlotCol<'g>)>>,
    /// Distinct groups the keys live in, sorted (the only groups whose
    /// positions the sink ever enumerates).
    key_groups: Vec<usize>,
    /// A fresh state per aggregate, cloned at the start of every key run:
    /// `COUNT(DISTINCT)` over a string slot is a code set.
    fresh: Vec<AggState>,
}

/// The run cache: the states accumulated for one key since it was last
/// seen changing.
#[derive(Default)]
struct KeyRun {
    /// Raw entries of the run's key.
    raw: Vec<Option<u64>>,
    /// The run's key, decoded when the run started; `None` = no run.
    key: Option<Vec<Value>>,
    states: Vec<AggState>,
    /// Heap held by the run's states, charged while the run is open; its
    /// flush charges the table only what merging the run added.
    bytes: u64,
}

impl<'g> GroupBySink<'g> {
    fn new(
        pipe: &Pipeline<'g>,
        slots: &[SlotDef],
        keys: &[usize],
        aggs: &[PlanAgg],
    ) -> GroupBySink<'g> {
        let key_refs: Vec<_> = keys.iter().map(|&s| pipe.slot(s)).collect();
        let agg_refs: Vec<_> = aggs.iter().map(|a| a.slot.map(|s| pipe.slot(s))).collect();
        let mut key_groups: Vec<usize> = key_refs.iter().map(|(r, _)| r.group).collect();
        key_groups.sort_unstable();
        key_groups.dedup();
        let fresh = aggs
            .iter()
            .map(|a| match (a.func, a.slot) {
                (AggFunc::Count { distinct: true }, Some(s))
                    if slots[s].dtype == DataType::String =>
                {
                    AggState::DistinctCodes(Default::default())
                }
                _ => AggState::new(a.func),
            })
            .collect();
        GroupBySink {
            shape: GroupShape { key_refs, agg_refs, key_groups, fresh },
            table: GroupTable::new(aggs),
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

    /// Flush the run cache and hand back the completed table.
    fn finish(mut self) -> GroupTable {
        self.run.flush(&mut self.table);
        self.table
    }
}

impl KeyRun {
    /// Fold the key combination whose key-group positions `pos_in`
    /// resolves into the run, first flushing the run into `table` if the
    /// combination's key differs from the run's.
    fn fold(
        &mut self,
        shape: &GroupShape<'_>,
        table: &mut GroupTable,
        chunk: &Chunk,
        mult_nonkey: u64,
        pos_in: impl Fn(usize) -> usize,
    ) {
        let entry = |r: &VecRef| (&chunk.groups[r.group].vectors[r.vec], pos_in(r.group));
        let same = self.key.is_some()
            && shape.key_refs.iter().zip(&self.raw).all(|((r, _), &raw)| {
                let (v, i) = entry(r);
                raw_entry(v, i) == raw
            });
        if !same {
            self.flush(table);
            self.raw.clear();
            let mut key = Vec::with_capacity(shape.key_refs.len());
            for (r, col) in &shape.key_refs {
                let (v, i) = entry(r);
                self.raw.push(raw_entry(v, i));
                key.push(vector_value(v, i, *col));
            }
            self.key = Some(key);
            self.states.extend(shape.fresh.iter().cloned());
        }
        for (state, input) in self.states.iter_mut().zip(&shape.agg_refs) {
            self.bytes += fold_agg(state, input, chunk, &shape.key_groups, mult_nonkey, &pos_in);
        }
    }

    /// Merge the run into the table.
    fn flush(&mut self, table: &mut GroupTable) {
        if let Some(key) = self.key.take() {
            table.merge_group(key, &mut self.states, self.bytes);
        }
        self.bytes = 0;
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
/// [`cmp_rows`], the worst kept row on top. Each candidate is compared
/// with that top straight from the chunk vectors ([`cmp_entry`]), so a row
/// that would not displace it costs one comparison and allocates nothing;
/// only rows entering the heap are materialized. A worker therefore holds
/// O(k) rows whatever the result size, which is safe because the top-k of
/// a union is the top-k of the per-worker top-ks. Without a `LIMIT` every
/// row is kept in arrival order; the finish sorts them when there is an
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
    /// The kept rows: a heap under a limit, arrival order otherwise.
    rows: Vec<Vec<Value>>,
    /// Heap estimate of `rows`, kept incrementally.
    bytes: u64,
    combos: Combos,
}

impl<'p, 'g> TopKSink<'p, 'g> {
    fn new(pipe: &Pipeline<'g>, plan: &'p LogicalPlan, slots: &'p [usize]) -> TopKSink<'p, 'g> {
        let (mut ref_groups, mut cols) = (Vec::new(), Vec::new());
        if plan.limit.is_some() {
            ref_groups = slots.iter().map(|&s| pipe.slot_refs[s].group).collect();
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
            order_by: &plan.order_by,
            limit: plan.limit,
            rows: Vec::new(),
            bytes: 0,
            combos: Combos::default(),
        }
    }

    fn absorb(&mut self, pipe: &Pipeline<'_>) {
        let (chunk, slots) = (&pipe.chunk, self.slots);
        let Some(k) = self.limit else {
            // Every tuple of the state is a row: enumerate the Cartesian
            // product, decoding strings through their dictionaries (late
            // materialization). `rows` grows once, by the tuple count.
            let rows = &mut self.rows;
            let before = rows.len();
            rows.reserve(usize::try_from(chunk.tuple_count()).unwrap_or(0));
            self.combos.for_each(chunk, None, |pos| {
                let value = |&s: &usize| {
                    let (r, sc) = pipe.slot(s);
                    vector_value(&chunk.groups[r.group].vectors[r.vec], pos[r.group], sc)
                };
                rows.push(slots.iter().map(value).collect());
            });
            self.bytes += rows[before..].iter().map(|r| row_bytes(r)).sum::<u64>();
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
        let (cols, order_by, heap, bytes) =
            (&self.cols, self.order_by, &mut self.rows, &mut self.bytes);
        self.combos.for_each(chunk, Some(&self.ref_groups), |pos| {
            let entry = |c: usize| {
                let (r, sc, gi) = cols[c];
                (&chunk.groups[r.group].vectors[r.vec], pos[gi], sc)
            };
            if heap.len() == k && cmp_candidate(&heap[0], order_by, entry).is_ge() {
                return;
            }
            let row: Vec<Value> = (0..slots.len())
                .map(|c| {
                    let (v, i, sc) = entry(c);
                    vector_value(v, i, sc)
                })
                .collect();
            for _ in 0..mult {
                if heap.len() < k {
                    *bytes += row_bytes(&row);
                    heap.push(row.clone());
                    let last = heap.len() - 1;
                    sift_up(heap, last, order_by);
                } else if cmp_rows(&row, &heap[0], order_by).is_lt() {
                    *bytes = *bytes - row_bytes(&heap[0]) + row_bytes(&row);
                    heap[0] = row.clone();
                    sift_down(heap, 0, order_by);
                } else {
                    break;
                }
            }
        });
    }
}

/// [`cmp_rows`]`(candidate, kept, order_by)` with the candidate's column
/// `c` read in place through `entry(c)` — nothing is materialized.
fn cmp_candidate<'a>(
    kept: &[Value],
    order_by: &[(usize, bool)],
    entry: impl Fn(usize) -> (&'a ValueVector, usize, SlotCol<'a>),
) -> std::cmp::Ordering {
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
    std::cmp::Ordering::Equal
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

/// DISTINCT sink: deduplicates projection rows into a canonical-order set.
/// Factorization pays off here too — only the groups actually referenced by
/// the projection are enumerated, so `DISTINCT a.x` over a many-neighbour
/// extension never walks the neighbour lists of unprojected variables.
pub(crate) struct DistinctSink<'g> {
    refs: Vec<(VecRef, SlotCol<'g>)>,
    /// Distinct groups referenced by the projection, sorted.
    ref_groups: Vec<usize>,
    set: std::collections::HashSet<Vec<OrdValue>>,
    /// Heap estimate of `set`, grown on every fresh insertion.
    bytes: u64,
    combos: Combos,
}

impl<'g> DistinctSink<'g> {
    fn new(pipe: &Pipeline<'g>, slots: &[usize]) -> DistinctSink<'g> {
        let refs: Vec<_> = slots.iter().map(|&s| pipe.slot(s)).collect();
        let mut ref_groups: Vec<usize> = refs.iter().map(|(r, _)| r.group).collect();
        ref_groups.sort_unstable();
        ref_groups.dedup();
        DistinctSink {
            refs,
            ref_groups,
            set: std::collections::HashSet::new(),
            bytes: 0,
            combos: Combos::default(),
        }
    }

    fn absorb(&mut self, chunk: &Chunk) {
        if chunk.groups.iter().any(|gr| gr.contribution() == 0) {
            return;
        }
        let (refs, ref_groups, set) = (&self.refs, &self.ref_groups, &mut self.set);
        let mut grew = 0u64;
        self.combos.for_each(chunk, Some(ref_groups), |pos| {
            let row: Vec<OrdValue> = refs
                .iter()
                .map(|(r, col)| {
                    // lint: allow(ref_groups is built from these same refs
                    // in new(), so every r.group is present)
                    let i = pos[ref_groups.iter().position(|&g| g == r.group).expect("ref group")];
                    OrdValue(vector_value(&chunk.groups[r.group].vectors[r.vec], i, *col))
                })
                .collect();
            let row_heap: u64 = row.iter().map(|v| value_bytes(&v.0)).sum();
            if set.insert(row) {
                grew += row_heap + std::mem::size_of::<Vec<OrdValue>>() as u64;
            }
        });
        self.bytes += grew;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfcl_columnar::NullKind;
    use proptest::prelude::*;

    /// A block of `kind` (0 = Int64, 1 = Date, 2 = Double, 3 = Bool,
    /// 4 = dictionary codes of `DICT`) from `(is_null, raw)` entries; raw
    /// doubles include NaN and both zeros.
    fn block(kind: u8, entries: &[(bool, i64)]) -> ValueVector {
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
                vals: raws.map(|r| r.rem_euclid(DICT.len() as i64) as u64).collect(),
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
                AggFunc::Count { distinct: true } if kind == 4 => {
                    AggState::DistinctCodes(Default::default())
                }
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
}
