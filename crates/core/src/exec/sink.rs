//! The sinks a pipeline drains into, over factorized chunk states.
//!
//! The Section 6.2 trick generalized: a chunk state represents the Cartesian
//! product of its list groups, so any aggregate that is a sum over tuples can
//! be computed per *position* with a multiplicity — the product of the other
//! groups' contributions — instead of per tuple. `COUNT(*)` multiplies group
//! contributions without ever enumerating tuples; the grouped sink
//! enumerates only the positions of the groups holding *grouping keys*
//! (usually flat by the time the sink runs); the groups holding aggregated
//! extension lists are folded value-by-value with their multiplicity and are
//! **never** flattened into tuples.

use gfcl_columnar::Column;
use gfcl_common::{Result, Value};

use super::Pipeline;
use crate::agg::{self, cmp_rows, AggState, GroupTable, OrdValue, ScalarAgg};
use crate::chunk::{Chunk, ListGroup, ValueVector, VecRef};
use crate::engine::QueryOutput;
use crate::govern::{row_bytes, value_bytes};
use crate::plan::{LogicalPlan, PlanAgg, PlanReturn};
use crate::pred::SlotCol;

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
            PlanReturn::GroupBy { keys, aggs } => Sink::Grouped(GroupBySink::new(pipe, keys, aggs)),
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
    let vec = &group.vectors[r.vec];
    let mult = chunk.tuple_count_excluding(r.group);
    if group.is_flat() {
        agg.fold(Some(&vector_value(vec, group.cur_idx as usize, col)), mult);
    } else {
        for i in group.iter_selected() {
            agg.fold(Some(&vector_value(vec, i, col)), mult);
        }
    }
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
    aggs: Vec<PlanAgg>,
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
    /// Heap growth of the run not yet folded into the table's estimate
    /// (flushed together with the run itself).
    bytes: u64,
    /// Scratch: the dictionary codes of one list (`COUNT(DISTINCT)`).
    codes: Vec<u64>,
}

impl<'g> GroupBySink<'g> {
    fn new(pipe: &Pipeline<'g>, keys: &[usize], aggs: &[PlanAgg]) -> GroupBySink<'g> {
        let key_refs: Vec<_> = keys.iter().map(|&s| pipe.slot(s)).collect();
        let agg_refs: Vec<_> = aggs.iter().map(|a| a.slot.map(|s| pipe.slot(s))).collect();
        let mut key_groups: Vec<usize> = key_refs.iter().map(|(r, _)| r.group).collect();
        key_groups.sort_unstable();
        key_groups.dedup();
        GroupBySink {
            shape: GroupShape { key_refs, agg_refs, key_groups, aggs: aggs.to_vec() },
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
                mult_nonkey *= c;
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
            self.states.extend(shape.aggs.iter().map(|a| AggState::new(a.func)));
        }
        for (state, input) in self.states.iter_mut().zip(&shape.agg_refs) {
            self.bytes += fold_agg(
                state,
                input,
                chunk,
                &shape.key_groups,
                mult_nonkey,
                &pos_in,
                &mut self.codes,
            );
        }
    }

    /// Merge the run into the table.
    fn flush(&mut self, table: &mut GroupTable) {
        if let Some(key) = self.key.take() {
            table.merge_group(key, &mut self.states);
        }
        table.add_bytes(self.bytes);
        self.bytes = 0;
    }
}

/// Fold one aggregate input of one key combination into `state`.
/// `pos_in` resolves the current position of a *key* group; `mult_nonkey`
/// is the tuple count contributed by all non-key groups; `codes` is
/// scratch. Returns the state's heap growth (see [`AggState::update`]) for
/// memory budgeting.
fn fold_agg(
    state: &mut AggState,
    input: &Option<(VecRef, SlotCol<'_>)>,
    chunk: &Chunk,
    key_groups: &[usize],
    mult_nonkey: u64,
    pos_in: impl Fn(usize) -> usize,
    codes: &mut Vec<u64>,
) -> u64 {
    let Some((r, col)) = input else {
        // COUNT(*): pure multiplicity arithmetic, no values read.
        state.add_count(mult_nonkey);
        return 0;
    };
    let vec = &chunk.groups[r.group].vectors[r.vec];
    if key_groups.contains(&r.group) {
        // The input sits in a key group: one value per combo, weighted by
        // the other groups.
        return state.update(&vector_value(vec, pos_in(r.group), *col), mult_nonkey);
    }
    // The input sits in an extension group: fold its selected values with
    // the multiplicity of every group but itself — never enumerating
    // tuples. (`absorb` returned early on a zero contribution.)
    let gr = &chunk.groups[r.group];
    let excl = mult_nonkey / gr.contribution();
    if gr.is_flat() {
        return state.update(&vector_value(vec, gr.cur_idx as usize, *col), excl);
    }
    match (matches!(state, AggState::Distinct(_)), vec) {
        // COUNT(DISTINCT) over dictionary codes: deduplicate the list's
        // codes, then decode each distinct code once.
        (true, ValueVector::Code { vals, valid }) => {
            codes.clear();
            codes.extend(gr.iter_selected().filter(|&i| valid[i]).map(|i| vals[i]));
            codes.sort_unstable();
            codes.dedup();
            codes
                .iter()
                .map(|&c| state.update(&Value::String(code_str(c, *col).to_owned()), excl))
                .sum()
        }
        _ => gr.iter_selected().map(|i| state.update(&vector_value(vec, i, *col), excl)).sum(),
    }
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
