//! The statistics-driven join orderer and the EXPLAIN renderer.
//!
//! The paper's evaluation hand-picks "the best left-deep plan, which was
//! obvious in most cases" (Section 8.7). A system serving arbitrary queries
//! has to pick that plan itself: a pattern written in an unlucky edge order
//! can blow up intermediate list groups by orders of magnitude. This module
//! closes the gap with a classic textbook design specialized to the
//! list-based processor:
//!
//! * **Cost model** — a plan's cost is the sum of its estimated
//!   intermediate tuple counts. A scan contributes the label's vertex count
//!   (1 for a primary-key seek); each extend multiplies the running
//!   cardinality by the average degree of `(edge label, direction)` from
//!   [`gfcl_storage::Stats`] — which is ≤ 1 for single-cardinality edges,
//!   reflecting their 1:1 `ColumnExtend` — and by the selectivity of every
//!   predicate that becomes evaluable at that point.
//! * **Selectivity** — equality predicates use `1/NDV` from the
//!   per-property statistics, ranges use the integer min/max when known
//!   (else 1/3), string matches use a fixed 0.1, `IN` uses `k/NDV`;
//!   conjunction/disjunction/negation combine the usual way, and every
//!   comparison is discounted by the column's NULL fraction.
//! * **Enumeration** — all connected left-deep orders over every candidate
//!   start node, exhaustively up to [`EXHAUSTIVE_EDGES`] edges (with
//!   branch-and-bound pruning), greedy with one-step lookahead above. The
//!   search keeps one state and applies and undoes each candidate extend
//!   on it, so trying an order allocates nothing.
//! * **Executability** — the LBP's `Filter` operator cannot evaluate a
//!   predicate spanning two *unflat* list groups (see
//!   [`crate::exec`]); candidate orders that would require one are
//!   rejected during enumeration, and `check_executable` verifies hinted
//!   and declaration-order plans at plan time instead of failing
//!   mid-query.
//!
//! The same machinery renders `EXPLAIN` output ([`render_explain`]): the
//! chosen order with per-step cardinality estimates, the physical operator
//! each extend compiles to (`ListExtend` vs `ColumnExtend`) and the flatten
//! points where a factorized group collapses.

use std::fmt::Write as _;

use gfcl_columnar::UIntArray;
use gfcl_common::{DataType, Direction, Error, Result, Value};
use gfcl_storage::{Catalog, PropStats, Stats};

use crate::plan::{
    LogicalPlan, OrderSource, PlanEdge, PlanExpr, PlanNode, PlanReturn, PlanScalar, PlanStep,
    SlotDef, SlotId, SlotSource,
};
use crate::query::{CmpOp, StrOp};

/// Patterns with at most this many edges are ordered by exhaustive
/// enumeration; larger ones fall back to greedy with one-step lookahead.
pub const EXHAUSTIVE_EDGES: usize = 6;

/// Default selectivity of a range predicate when no min/max is known.
const RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity of a string match predicate.
const STR_MATCH_SEL: f64 = 0.1;
/// NDV assumed for a property with no statistics.
const DEFAULT_NDV: f64 = 10.0;
/// Selectivities never drop below this (avoids zero-cost plans).
const MIN_SEL: f64 = 1e-9;

/// One extend: `(edge index, traversal direction, from node, to node)`.
pub(crate) type ExtendSeq = Vec<(usize, Direction, usize, usize)>;

/// The orderer's decision: a start node and a connected extend sequence.
pub(crate) struct Ordering {
    pub start: usize,
    pub seq: ExtendSeq,
}

// ---- Selectivity estimation ----------------------------------------------

/// Statistics of the property behind a slot (`None` when the catalog has no
/// stats).
fn slot_stats<'a>(
    slot: &SlotDef,
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    catalog: &'a Catalog,
) -> Option<&'a PropStats> {
    let stats = catalog.stats()?;
    Some(match slot.source {
        SlotSource::NodeProp { node, prop } => &stats.vertex(nodes[node].label).props[prop],
        SlotSource::EdgeProp { edge, prop } => &stats.edge(edges[edge].label).props[prop],
    })
}

/// Fraction of the `[min, max]` integer domain admitted by `slot op c`.
fn range_fraction(ps: &PropStats, op: CmpOp, c: i64) -> Option<f64> {
    let (min, max) = (ps.min_i64?, ps.max_i64?);
    if max < min {
        return None;
    }
    let span = (max as i128 - min as i128 + 1) as f64;
    let frac = match op {
        CmpOp::Lt => (c as i128 - min as i128) as f64 / span,
        CmpOp::Le => (c as i128 - min as i128 + 1) as f64 / span,
        CmpOp::Gt => (max as i128 - c as i128) as f64 / span,
        CmpOp::Ge => (max as i128 - c as i128 + 1) as f64 / span,
        CmpOp::Eq | CmpOp::Ne => return None,
    };
    Some(frac.clamp(0.0, 1.0))
}

/// Selectivity of `slot op const`; `c` is `None` for a parameter, whose
/// value the cost model never sees (ranges against one take the default).
fn cmp_const_sel(
    op: CmpOp,
    slot: &SlotDef,
    c: Option<&Value>,
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    catalog: &Catalog,
) -> f64 {
    let Some(ps) = slot_stats(slot, nodes, edges, catalog) else {
        return match op {
            CmpOp::Eq => 1.0 / DEFAULT_NDV,
            CmpOp::Ne => 1.0 - 1.0 / DEFAULT_NDV,
            _ => RANGE_SEL,
        };
    };
    let notnull = 1.0 - ps.null_fraction;
    let ndv = (ps.ndv as f64).max(1.0);
    match op {
        CmpOp::Eq => notnull / ndv,
        CmpOp::Ne => notnull * (1.0 - 1.0 / ndv),
        _ => {
            let frac = c
                .and_then(Value::as_i64)
                .and_then(|k| range_fraction(ps, op, k))
                .unwrap_or(RANGE_SEL);
            notnull * frac
        }
    }
}

/// Estimated selectivity of a resolved predicate in `[MIN_SEL, 1]`.
pub(crate) fn selectivity(
    e: &PlanExpr,
    slots: &[SlotDef],
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    catalog: &Catalog,
) -> f64 {
    let sel = match e {
        PlanExpr::Cmp { op, lhs, rhs } => match (lhs, rhs) {
            (PlanScalar::Slot(s), c @ (PlanScalar::Const(_) | PlanScalar::Param(_))) => {
                cmp_const_sel(*op, &slots[*s], c.value(&[]), nodes, edges, catalog)
            }
            (c @ (PlanScalar::Const(_) | PlanScalar::Param(_)), PlanScalar::Slot(s)) => {
                cmp_const_sel(op.flip(), &slots[*s], c.value(&[]), nodes, edges, catalog)
            }
            (PlanScalar::Slot(a), PlanScalar::Slot(b)) => {
                let ndv = |s: &usize| {
                    slot_stats(&slots[*s], nodes, edges, catalog)
                        .map_or(DEFAULT_NDV, |ps| (ps.ndv as f64).max(1.0))
                };
                match op {
                    CmpOp::Eq => 1.0 / ndv(a).max(ndv(b)),
                    CmpOp::Ne => 1.0 - 1.0 / ndv(a).max(ndv(b)),
                    _ => RANGE_SEL,
                }
            }
            _ => 1.0,
        },
        PlanExpr::StrMatch { slot, .. } => {
            let notnull = slot_stats(&slots[*slot], nodes, edges, catalog)
                .map_or(1.0, |ps| 1.0 - ps.null_fraction);
            notnull * STR_MATCH_SEL
        }
        PlanExpr::InSet { slot, values } => {
            let ps = slot_stats(&slots[*slot], nodes, edges, catalog);
            let ndv = ps.map_or(DEFAULT_NDV, |p| (p.ndv as f64).max(1.0));
            let notnull = ps.map_or(1.0, |p| 1.0 - p.null_fraction);
            notnull * (values.len() as f64 / ndv).min(1.0)
        }
        PlanExpr::And(es) => {
            es.iter().map(|e| selectivity(e, slots, nodes, edges, catalog)).product()
        }
        PlanExpr::Or(es) => {
            1.0 - es
                .iter()
                .map(|e| 1.0 - selectivity(e, slots, nodes, edges, catalog))
                .product::<f64>()
        }
        PlanExpr::Not(inner) => 1.0 - selectivity(inner, slots, nodes, edges, catalog),
    };
    sel.clamp(MIN_SEL, 1.0)
}

// ---- Predicate analysis ---------------------------------------------------

/// What the orderer needs to know about the predicates: the selectivity
/// each pattern variable's own predicates multiply in once it is bound, and
/// the predicates that span more than one variable.
pub(crate) struct PredSel {
    /// Product of single-variable predicate selectivities per node / edge.
    node_sel: Vec<f64>,
    edge_sel: Vec<f64>,
    multi: Vec<MultiPred>,
}

/// A predicate spanning more than one pattern variable, applied by the cost
/// model when its last source becomes bound.
struct MultiPred {
    /// Distinct pattern-node indexes referenced, sorted.
    nodes: Vec<usize>,
    /// Distinct pattern-edge indexes referenced, sorted.
    edges: Vec<usize>,
    sel: f64,
}

/// The pattern variable behind a slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Var {
    Node(usize),
    Edge(usize),
}

impl PredSel {
    /// Analyze resolved predicates for the orderer.
    pub(crate) fn new(
        preds: &[PlanExpr],
        slots: &[SlotDef],
        nodes: &[PlanNode],
        edges: &[PlanEdge],
        catalog: &Catalog,
    ) -> PredSel {
        let var = |s: SlotId| match slots[s].source {
            SlotSource::NodeProp { node, .. } => Var::Node(node),
            SlotSource::EdgeProp { edge, .. } => Var::Edge(edge),
        };
        let mut node_sel = vec![1.0; nodes.len()];
        let mut edge_sel = vec![1.0; edges.len()];
        let mut multi = Vec::new();
        for p in preds {
            let sel = selectivity(p, slots, nodes, edges, catalog);
            let mut first = None;
            let mut single = true;
            p.for_each_slot(|s| match first {
                None => first = Some(var(s)),
                Some(f) => single &= f == var(s),
            });
            match first {
                None => {} // constant predicate: irrelevant to ordering
                Some(Var::Node(n)) if single => node_sel[n] *= sel,
                Some(Var::Edge(e)) if single => edge_sel[e] *= sel,
                Some(_) => {
                    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
                    p.for_each_slot(|s| match var(s) {
                        Var::Node(n) => nodes.push(n),
                        Var::Edge(e) => edges.push(e),
                    });
                    nodes.sort_unstable();
                    nodes.dedup();
                    edges.sort_unstable();
                    edges.dedup();
                    multi.push(MultiPred { nodes, edges, sel });
                }
            }
        }
        PredSel { node_sel, edge_sel, multi }
    }
}

// ---- Order enumeration ----------------------------------------------------

/// Shared context of one ordering run.
struct Cost<'a> {
    nodes: &'a [PlanNode],
    edges: &'a [PlanEdge],
    catalog: &'a Catalog,
    stats: &'a Stats,
    preds: &'a PredSel,
    pk_node: Option<usize>,
}

/// The order under construction: the list group each bound variable lives
/// in (mirroring [`crate::exec::compile`]), running cardinality and
/// accumulated cost. The search owns exactly one: it [applies](Cost::apply)
/// an extend to it and [undoes](Cost::undo) the extend on the way back, so
/// trying a candidate order allocates nothing.
struct SimState {
    /// List-group placement of every bound variable — a variable is bound
    /// exactly when it has a group — shared with the hinted-order
    /// executability check so both mirror [`crate::exec`].
    groups: GroupSim,
    /// Indexes of the multi-variable predicates applied so far, in order.
    applied: Vec<usize>,
    card: f64,
    cost: f64,
    seq: ExtendSeq,
}

/// What one [`Cost::apply`] changed beyond the extend it pushed on `seq`.
struct Undo {
    card: f64,
    cost: f64,
    /// `applied.len()` before the extend.
    applied: usize,
    single: bool,
    /// [`GroupSim::extend`]'s return value: the source group was unflat.
    flattened: bool,
}

/// The cheapest complete order found so far.
struct Best {
    cost: f64,
    seq: ExtendSeq,
}

impl Best {
    /// Record `st`'s complete order, reusing the allocation of the last one.
    fn record(best: &mut Option<Best>, st: &SimState) {
        match best {
            Some(b) => {
                b.cost = st.cost;
                b.seq.clone_from(&st.seq);
            }
            None => *best = Some(Best { cost: st.cost, seq: st.seq.clone() }),
        }
    }
}

impl<'a> Cost<'a> {
    /// A state sized for this pattern, before any start is chosen.
    fn state(&self) -> SimState {
        SimState {
            groups: GroupSim::new(self.nodes.len(), self.edges.len()),
            applied: Vec::with_capacity(self.preds.multi.len()),
            card: 0.0,
            cost: 0.0,
            seq: Vec::with_capacity(self.edges.len()),
        }
    }

    /// Reset `st` to the scan of `start`.
    fn start(&self, st: &mut SimState, start: usize) {
        let vcount = self.stats.vertex(self.nodes[start].label).count as f64;
        st.groups.reset();
        st.groups.scan(start);
        st.applied.clear();
        st.card = vcount * self.preds.node_sel[start];
        // A pk seek replaces the scan with a constant-time lookup.
        st.cost = if self.pk_node == Some(start) { 1.0 } else { vcount };
        st.seq.clear();
    }

    /// Is edge `ei` a frontier edge of `st` (not done, exactly one
    /// endpoint bound)?
    fn on_frontier(&self, st: &SimState, ei: usize) -> bool {
        let (g, e) = (&st.groups, &self.edges[ei]);
        !g.edge_bound(ei) && g.node_bound(e.from) != g.node_bound(e.to)
    }

    /// Extend `st` along edge `ei`. Returns `None`, leaving `st` as it
    /// was, when the step is not a valid frontier extension or would make a
    /// multi-variable predicate span two unflat list groups (not
    /// executable by the LBP); otherwise what [`Cost::undo`] needs.
    fn apply(&self, st: &mut SimState, ei: usize) -> Option<Undo> {
        let e = &self.edges[ei];
        let (dir, from, to) = match (st.groups.node_bound(e.from), st.groups.node_bound(e.to)) {
            (true, false) => (Direction::Fwd, e.from, e.to),
            (false, true) => (Direction::Bwd, e.to, e.from),
            _ => return None, // cycle or disconnected
        };
        let single = self.catalog.edge_label(e.label).cardinality.is_single(dir);
        let undo = Undo {
            card: st.card,
            cost: st.cost,
            applied: st.applied.len(),
            single,
            flattened: st.groups.extend(ei, from, to, single),
        };
        st.seq.push((ei, dir, from, to));
        st.card *= self.stats.avg_degree(e.label, dir);
        // The extend materializes its full fan-out before any predicate
        // prunes it: charge the pre-filter cardinality, then discount.
        st.cost += st.card;
        st.card *= self.preds.edge_sel[ei] * self.preds.node_sel[to];
        for (mi, m) in self.preds.multi.iter().enumerate() {
            let g = &st.groups;
            if st.applied.contains(&mi)
                || !m.nodes.iter().all(|&n| g.node_bound(n))
                || !m.edges.iter().all(|&x| g.edge_bound(x))
            {
                continue;
            }
            if g.spans_unflat(|f| {
                m.nodes.iter().for_each(|&n| f(g.group_of_node(n)));
                m.edges.iter().for_each(|&x| f(g.group_of_edge(x)));
            }) {
                self.undo(st, undo);
                return None; // Filter would span two unflat groups
            }
            st.applied.push(mi);
            st.card *= m.sel;
        }
        Some(undo)
    }

    /// Take back the last [`Cost::apply`], which returned `u`.
    fn undo(&self, st: &mut SimState, u: Undo) {
        let Some((ei, _, from, to)) = st.seq.pop() else { return };
        st.groups.retract(ei, from, to, u.single, u.flattened);
        st.applied.truncate(u.applied);
        st.card = u.card;
        st.cost = u.cost;
    }

    /// Exhaustive DFS over connected orders with branch-and-bound pruning.
    fn dfs(&self, st: &mut SimState, best: &mut Option<Best>) {
        if let Some(b) = best {
            if st.cost >= b.cost {
                return;
            }
        }
        if st.seq.len() == self.edges.len() {
            Best::record(best, st);
            return;
        }
        for ei in 0..self.edges.len() {
            if !self.on_frontier(st, ei) {
                continue; // done, not a frontier edge, or closes a cycle
            }
            if let Some(u) = self.apply(st, ei) {
                self.dfs(st, best);
                self.undo(st, u);
            }
        }
    }

    /// Greedy construction with one-step lookahead, for large patterns:
    /// extends `st` (already [started](Cost::start)) to a complete order,
    /// or returns `false` at a dead end.
    fn greedy(&self, st: &mut SimState) -> bool {
        while st.seq.len() < self.edges.len() {
            let mut choice: Option<(f64, usize)> = None;
            for ei in 0..self.edges.len() {
                if !self.on_frontier(st, ei) {
                    continue;
                }
                let Some(u) = self.apply(st, ei) else { continue };
                // Lookahead: the cheapest valid continuation after `ei`.
                let mut look = f64::INFINITY;
                let mut extensible = st.seq.len() == self.edges.len();
                for ej in 0..self.edges.len() {
                    if !self.on_frontier(st, ej) {
                        continue;
                    }
                    if let Some(u2) = self.apply(st, ej) {
                        extensible = true;
                        look = look.min(st.card);
                        self.undo(st, u2);
                    }
                }
                let key = st.card + if look.is_finite() { look } else { 0.0 };
                self.undo(st, u);
                if !extensible {
                    continue; // dead end (executability)
                }
                if choice.is_none_or(|(k, _)| key < k) {
                    choice = Some((key, ei));
                }
            }
            // The chosen extend applied a moment ago, so it applies again.
            let Some((_, ei)) = choice else { return false };
            if self.apply(st, ei).is_none() {
                return false;
            }
        }
        true
    }
}

/// Choose a start node and extend order minimizing the estimated sum of
/// intermediate cardinalities. Returns `None` when the catalog carries no
/// statistics, the pattern has no edges, or no connected executable order
/// exists (cyclic / disconnected patterns — the caller's declaration-order
/// fallback reports those with the established error messages).
pub(crate) fn choose_order(
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    catalog: &Catalog,
    preds: &PredSel,
    pk_node: Option<usize>,
    fixed_start: Option<usize>,
) -> Option<Ordering> {
    let stats = catalog.stats()?;
    if edges.is_empty() {
        return None;
    }
    let cost = Cost { nodes, edges, catalog, stats, preds, pk_node };
    let starts = match fixed_start {
        Some(s) => s..s + 1,
        None => 0..nodes.len(),
    };
    let mut st = cost.state();
    let mut best: Option<Best> = None;
    for start in starts.clone() {
        cost.start(&mut st, start);
        if edges.len() <= EXHAUSTIVE_EDGES {
            cost.dfs(&mut st, &mut best);
        } else if cost.greedy(&mut st) && best.as_ref().is_none_or(|b| st.cost < b.cost) {
            Best::record(&mut best, &st);
        }
    }
    // Greedy cannot backtrack: a pattern whose multi-variable predicates
    // dead-end every one-step-lookahead path from every start would fall
    // back to declaration order — the exact failure mode this module
    // exists to prevent. Rescue moderately sized patterns with the
    // exhaustive search (8! orders per start at most, pruned).
    if best.is_none() && edges.len() > EXHAUSTIVE_EDGES && edges.len() <= EXHAUSTIVE_EDGES + 2 {
        for start in starts.clone() {
            cost.start(&mut st, start);
            cost.dfs(&mut st, &mut best);
        }
    }
    best.map(|b| Ordering {
        start: b.seq.first().map_or(starts.start, |&(_, _, from, _)| from),
        seq: b.seq,
    })
}

// ---- Per-step estimates and plan-time executability -----------------------

/// Estimated cardinality after each plan step (`None` per step when the
/// catalog has no statistics). Scans set the running estimate, extends
/// multiply it by the average degree, filters by their selectivity;
/// property reads carry it through unchanged.
pub(crate) fn estimate_steps(
    steps: &[PlanStep],
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    slots: &[SlotDef],
    catalog: &Catalog,
) -> Vec<Option<f64>> {
    let Some(stats) = catalog.stats() else {
        return vec![None; steps.len()];
    };
    let mut card = 0.0f64;
    steps
        .iter()
        .map(|s| {
            match s {
                PlanStep::ScanAll { node, pushed } => {
                    card = stats.vertex(nodes[*node].label).count as f64;
                    // Pushed predicates prune inside the scan itself.
                    for e in pushed {
                        card *= selectivity(e, slots, nodes, edges, catalog);
                    }
                }
                PlanStep::ScanPk { .. } => card = 1.0,
                PlanStep::Extend { edge_label, dir, .. } => {
                    card *= stats.avg_degree(*edge_label, *dir);
                }
                PlanStep::Filter { expr } => {
                    card *= selectivity(expr, slots, nodes, edges, catalog);
                }
                PlanStep::NodeProp { .. } | PlanStep::EdgeProp { .. } => {}
            }
            Some(card)
        })
        .collect()
}

/// Estimated sink output cardinality (`None` without statistics): 1 for the
/// scalar aggregates, the final match estimate for projections, and
/// `min(Π NDV(key), final estimate)` for grouped returns. This is the
/// sink-aware half of the cost model: a grouped sink's work is bounded by
/// its group count plus the flattened key positions, never by the full
/// Cartesian tuple count that a projection sink would enumerate.
pub(crate) fn estimate_sink(
    ret: &PlanReturn,
    step_cards: &[Option<f64>],
    slots: &[SlotDef],
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    catalog: &Catalog,
) -> Option<f64> {
    let final_card = step_cards.last().copied().flatten()?;
    Some(match ret {
        PlanReturn::CountStar | PlanReturn::Sum(_) | PlanReturn::Min(_) | PlanReturn::Max(_) => 1.0,
        PlanReturn::Props(_) => final_card,
        PlanReturn::GroupBy { keys, .. } => {
            let ndv_product: f64 = keys
                .iter()
                .map(|&s| {
                    slot_stats(&slots[s], nodes, edges, catalog)
                        .map_or(DEFAULT_NDV, |ps| (ps.ndv as f64).max(1.0))
                })
                .product();
            ndv_product.min(final_card).max(1.0)
        }
    })
}

/// Tracks which list group every pattern variable's vectors land in when
/// [`crate::exec::compile`] lowers the plan, and which groups are still
/// unflat. `Extend` over a CSR (`single == false`) compiles to a
/// `ListExtend`, which flattens its source group and opens a new one;
/// single-cardinality extends compile to `ColumnExtend` and stay in place.
pub(crate) struct GroupSim {
    /// The list group of every node, then of every edge; `usize::MAX`
    /// until a scan or an extend places it.
    place: Vec<usize>,
    n_nodes: usize,
    unflat: Vec<bool>,
}

impl GroupSim {
    pub(crate) fn new(n_nodes: usize, n_edges: usize) -> GroupSim {
        // Every extend opens at most one group: size the table once.
        let mut unflat = Vec::with_capacity(n_edges + 1);
        unflat.push(true); // group 0 = the scan group
        let vars = n_nodes + n_edges;
        GroupSim { place: vec![usize::MAX; vars], n_nodes, unflat }
    }

    /// Back to the state of [`GroupSim::new`], keeping the allocations.
    fn reset(&mut self) {
        self.place.fill(usize::MAX);
        self.unflat.clear();
        self.unflat.push(true);
    }

    fn group_of_node(&self, n: usize) -> usize {
        self.place[n]
    }

    fn group_of_edge(&self, e: usize) -> usize {
        self.place[self.n_nodes..][e]
    }

    /// Put node `to` and edge `edge` in group `g`.
    fn put(&mut self, to: usize, edge: usize, g: usize) {
        self.place[to] = g;
        self.place[self.n_nodes..][edge] = g;
    }

    pub(crate) fn scan(&mut self, node: usize) {
        self.place[node] = 0;
    }

    /// Has a scan or an extend placed node `n` yet?
    fn node_bound(&self, n: usize) -> bool {
        self.group_of_node(n) != usize::MAX
    }

    /// Has an extend traversed edge `e` yet?
    fn edge_bound(&self, e: usize) -> bool {
        self.group_of_edge(e) != usize::MAX
    }

    /// Apply an extend; returns `true` when it flattens its source group
    /// (a `ListExtend` whose source was still unflat).
    pub(crate) fn extend(&mut self, edge: usize, from: usize, to: usize, single: bool) -> bool {
        let src = self.group_of_node(from);
        if single {
            self.put(to, edge, src);
            false
        } else {
            let flattens = self.unflat[src];
            self.unflat[src] = false;
            self.unflat.push(true);
            self.put(to, edge, self.unflat.len() - 1);
            flattens
        }
    }

    /// Undo the latest [`GroupSim::extend`] `(edge, from, to, single)`,
    /// which returned `flattened`.
    fn retract(&mut self, edge: usize, from: usize, to: usize, single: bool, flattened: bool) {
        self.put(to, edge, usize::MAX);
        if !single {
            self.unflat.pop();
            let src = self.group_of_node(from);
            self.unflat[src] = flattened;
        }
    }

    /// Group of the variable behind a slot.
    pub(crate) fn group_of_slot(&self, def: &SlotDef) -> usize {
        match def.source {
            SlotSource::NodeProp { node, .. } => self.group_of_node(node),
            SlotSource::EdgeProp { edge, .. } => self.group_of_edge(edge),
        }
    }

    /// Is list group `g` still unflat at this point of the walk?
    pub(crate) fn is_unflat(&self, g: usize) -> bool {
        self.unflat[g]
    }

    /// Do the groups `for_each_group` visits include two distinct *unflat*
    /// ones? The LBP's `Filter` evaluates over at most one unflat group.
    pub(crate) fn spans_unflat(&self, for_each_group: impl FnOnce(&mut dyn FnMut(usize))) -> bool {
        let mut first = None;
        let mut two = false;
        for_each_group(&mut |g| {
            if self.unflat[g] {
                match first {
                    None => first = Some(g),
                    Some(f) => two |= f != g,
                }
            }
        });
        two
    }

    /// [`GroupSim::spans_unflat`] over the slots `expr` reads.
    pub(crate) fn expr_spans_unflat(&self, expr: &PlanExpr, slots: &[SlotDef]) -> bool {
        self.spans_unflat(|f| expr.for_each_slot(|s| f(self.group_of_slot(&slots[s]))))
    }
}

/// Verify that every `Filter` step touches at most one unflat list group —
/// the invariant [`crate::exec`]'s `Filter` operator enforces at runtime.
/// Orders chosen by the optimizer satisfy this by construction; hinted
/// orders are checked here so a bad `edge_order` fails at plan time with
/// [`Error::Plan`] instead of mid-query.
pub(crate) fn check_executable(plan: &LogicalPlan) -> Result<()> {
    let mut sim = GroupSim::new(plan.nodes.len(), plan.edges.len());
    for step in &plan.steps {
        match step {
            PlanStep::ScanAll { node, .. } | PlanStep::ScanPk { node, .. } => sim.scan(*node),
            PlanStep::Extend { edge, from, to, single, .. } => {
                sim.extend(*edge, *from, *to, *single);
            }
            PlanStep::NodeProp { .. } | PlanStep::EdgeProp { .. } => {}
            PlanStep::Filter { expr } => {
                if sim.expr_spans_unflat(expr, &plan.slots) {
                    return Err(Error::Plan(format!(
                        "edge order is not executable: predicate ({}) would span two unflat \
                         list groups, which the list-based processor cannot evaluate; use a \
                         different edge order (e.g. via edge_order hints)",
                        expr_str(expr, &plan.slots)
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Estimated fraction of zone-map blocks a pushed-down predicate lets the
/// scan skip, from the catalog statistics (`None` without statistics).
///
/// Two placement models, chosen by predicate shape: range comparisons
/// assume a *value-clustered* column (timestamps, sequential keys — the
/// classic zone-map win), where the skippable fraction is simply the
/// non-matching fraction of the domain; everything else assumes random
/// placement, where a block of [`gfcl_columnar::ZONE_BLOCK`] rows is
/// skippable only if every row misses: `(1 - sel)^B`.
pub(crate) fn zone_skip_estimate(
    e: &PlanExpr,
    slots: &[SlotDef],
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    catalog: &Catalog,
) -> Option<f64> {
    catalog.stats()?;
    let sel = selectivity(e, slots, nodes, edges, catalog);
    let clustered =
        matches!(e, PlanExpr::Cmp { op: CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge, .. });
    let skip =
        if clustered { 1.0 - sel } else { (1.0 - sel).powi(gfcl_columnar::ZONE_BLOCK as i32) };
    Some(skip.clamp(0.0, 1.0))
}

/// Estimated data pages the scan faults to probe a pushed-down predicate
/// when the graph is opened from disk: the operand columns' value bytes in
/// [`gfcl_columnar::PAGE_SIZE`] pages, scaled by the fraction of blocks the
/// zone maps let the scan skip *before* faulting. Informational (the
/// in-memory path reads zero pages); `None` without statistics.
pub(crate) fn page_read_estimate(
    e: &PlanExpr,
    slots: &[SlotDef],
    nodes: &[PlanNode],
    edges: &[PlanEdge],
    catalog: &Catalog,
) -> Option<u64> {
    let stats = catalog.stats()?;
    let mut pages = 0.0f64;
    for s in e.slots() {
        let def = &slots[s];
        // Pushed predicates are vertex-side by construction.
        let SlotSource::NodeProp { node, prop } = def.source else {
            continue;
        };
        let vs = stats.vertex(nodes[node].label);
        let width = match def.dtype {
            DataType::Int64 | DataType::Date | DataType::Float64 => 8,
            DataType::Bool => 1,
            // Strings are probed through their dictionary codes, stored at
            // the narrowest width that fits the distinct-value count.
            DataType::String => UIntArray::width_for(vs.props[prop].ndv.saturating_sub(1)),
        };
        pages += (vs.count as f64 * width as f64 / gfcl_columnar::PAGE_SIZE as f64).ceil();
    }
    let skip = zone_skip_estimate(e, slots, nodes, edges, catalog).unwrap_or(0.0);
    Some(((pages * (1.0 - skip)).ceil() as u64).max(1))
}

// ---- EXPLAIN rendering ----------------------------------------------------

fn op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn scalar_str(s: &PlanScalar, slots: &[SlotDef]) -> String {
    match s {
        PlanScalar::Slot(i) => slots[*i].name.clone(),
        PlanScalar::Const(v) => v.to_string(),
        PlanScalar::Param(i) => format!("?{i}"),
    }
}

/// Human-readable rendering of a resolved predicate.
pub(crate) fn expr_str(e: &PlanExpr, slots: &[SlotDef]) -> String {
    match e {
        PlanExpr::Cmp { op, lhs, rhs } => {
            format!("{} {} {}", scalar_str(lhs, slots), op_str(*op), scalar_str(rhs, slots))
        }
        PlanExpr::StrMatch { op, slot, pattern } => {
            let kw = match op {
                StrOp::Contains => "CONTAINS",
                StrOp::StartsWith => "STARTS WITH",
                StrOp::EndsWith => "ENDS WITH",
            };
            format!("{} {kw} \"{pattern}\"", slots[*slot].name)
        }
        PlanExpr::InSet { slot, values } => {
            let vals: Vec<String> = values.iter().map(ToString::to_string).collect();
            format!("{} IN ({})", slots[*slot].name, vals.join(", "))
        }
        PlanExpr::And(es) => {
            es.iter().map(|e| format!("({})", expr_str(e, slots))).collect::<Vec<_>>().join(" AND ")
        }
        PlanExpr::Or(es) => {
            es.iter().map(|e| format!("({})", expr_str(e, slots))).collect::<Vec<_>>().join(" OR ")
        }
        PlanExpr::Not(inner) => format!("NOT ({})", expr_str(inner, slots)),
    }
}

/// Compact estimate formatting: one decimal below 10, integral above.
fn fmt_est(x: f64) -> String {
    if x >= 9.95 {
        format!("~{x:.0}")
    } else {
        format!("~{x:.1}")
    }
}

/// Render a plan as EXPLAIN text: order provenance, each step with its
/// physical operator and flatten points, and per-step cardinality
/// estimates when statistics are available.
pub fn render_explain(plan: &LogicalPlan, catalog: &Catalog) -> String {
    let mut out = String::new();
    let source = match plan.order_source {
        OrderSource::Hints => "order: hints",
        OrderSource::Stats => "order: statistics",
        OrderSource::Declaration => "order: declaration",
    };
    let _ = writeln!(
        out,
        "QUERY PLAN  ({} nodes, {} edges; {source})",
        plan.nodes.len(),
        plan.edges.len()
    );
    let mut sim = GroupSim::new(plan.nodes.len(), plan.edges.len());
    for (i, step) in plan.steps.iter().enumerate() {
        let desc = match step {
            PlanStep::ScanAll { node, .. } => {
                sim.scan(*node);
                let n = &plan.nodes[*node];
                format!("SCAN      ({}:{})", n.var, catalog.vertex_label(n.label).name)
            }
            PlanStep::ScanPk { node, key } => {
                sim.scan(*node);
                let n = &plan.nodes[*node];
                let def = catalog.vertex_label(n.label);
                let pk = def.primary_key.map_or("pk", |i| def.properties[i].name.as_str());
                let key = scalar_str(key, &plan.slots);
                format!("SCAN_PK   ({}:{}) {}.{pk} = {key}", n.var, def.name, n.var)
            }
            PlanStep::Extend { edge, edge_label, dir, from, to, single } => {
                let flattens = sim.extend(*edge, *from, *to, *single);
                let label = &catalog.edge_label(*edge_label).name;
                let evar =
                    plan.edges[*edge].var.as_deref().map_or_else(String::new, ToOwned::to_owned);
                let (fv, tv) = (&plan.nodes[*from].var, &plan.nodes[*to].var);
                let arrow = match dir {
                    Direction::Fwd => format!("({fv})-[{evar}:{label}]->({tv})"),
                    Direction::Bwd => format!("({fv})<-[{evar}:{label}]-({tv})"),
                };
                let op = if *single { "ColumnExtend" } else { "ListExtend" };
                let flat = if flattens { format!(", flattens ({fv})") } else { String::new() };
                format!("EXTEND    {arrow}  [{op}{flat}]")
            }
            PlanStep::NodeProp { slot, .. } | PlanStep::EdgeProp { slot, .. } => {
                format!("PROP      {} -> ${slot}", plan.slots[*slot].name)
            }
            PlanStep::Filter { expr } => {
                format!("FILTER    {}", expr_str(expr, &plan.slots))
            }
        };
        let line = match plan.step_cards[i] {
            Some(est) => format!("{:>2}. {desc:<58} est {}", i + 1, fmt_est(est)),
            None => format!("{:>2}. {desc}", i + 1),
        };
        let _ = writeln!(out, "{}", line.trim_end());
        // Pushed-down scan predicates: one sub-line each, with the
        // estimated fraction of zone-map blocks the scan can skip.
        if let PlanStep::ScanAll { pushed, .. } = step {
            for e in pushed {
                let skip = zone_skip_estimate(e, &plan.slots, &plan.nodes, &plan.edges, catalog)
                    .map_or_else(String::new, |s| format!("  [est zone-skip ~{:.0}%]", s * 100.0));
                let io = page_read_estimate(e, &plan.slots, &plan.nodes, &plan.edges, catalog)
                    .map_or_else(String::new, |p| format!("  [~{p} pages read]"));
                let _ = writeln!(out, "      pushed: {}{skip}{io}", expr_str(e, &plan.slots));
            }
        }
    }
    // Grouped sink: which groups hold keys (and must be enumerated when
    // still unflat) vs the unflat groups the aggregates fold by
    // multiplicity without ever flattening.
    if let PlanReturn::GroupBy { keys, .. } = &plan.ret {
        let key_groups: Vec<usize> = {
            let mut g: Vec<usize> =
                keys.iter().map(|&s| sim.group_of_slot(&plan.slots[s])).collect();
            g.sort_unstable();
            g.dedup();
            g
        };
        let enumerated = key_groups.iter().filter(|&&g| sim.unflat[g]).count();
        let folded =
            sim.unflat.iter().enumerate().filter(|(g, &u)| u && !key_groups.contains(g)).count();
        let by = if keys.is_empty() {
            "whole result".to_owned()
        } else {
            keys.iter().map(|&s| plan.slots[s].name.clone()).collect::<Vec<_>>().join(", ")
        };
        let est =
            plan.sink_card.map_or_else(String::new, |c| format!("  est {} groups", fmt_est(c)));
        let _ = writeln!(
            out,
            "    GROUP     BY {by}  [flattens keys only: {enumerated} unflat key group(s) \
             enumerated, {folded} unflat group(s) folded by multiplicity]{est}"
        );
    }
    let ret = match &plan.ret {
        PlanReturn::CountStar => "COUNT(*)".to_owned(),
        PlanReturn::Props(ids) => {
            let cols =
                ids.iter().map(|&s| plan.slots[s].name.clone()).collect::<Vec<_>>().join(", ");
            if plan.distinct {
                format!("DISTINCT {cols}")
            } else {
                cols
            }
        }
        PlanReturn::Sum(s) => format!("SUM({})", plan.slots[*s].name),
        PlanReturn::Min(s) => format!("MIN({})", plan.slots[*s].name),
        PlanReturn::Max(s) => format!("MAX({})", plan.slots[*s].name),
        PlanReturn::GroupBy { .. } => plan.header.join(", "),
    };
    let _ = writeln!(out, "    RETURN    {ret}");
    if !plan.order_by.is_empty() || plan.limit.is_some() {
        let keys = plan
            .order_by
            .iter()
            .map(|&(col, desc)| {
                format!("{} {}", plan.header[col], if desc { "desc" } else { "asc" })
            })
            .collect::<Vec<_>>()
            .join(", ");
        let mut line = String::from("    ");
        if !plan.order_by.is_empty() {
            let _ = write!(line, "ORDER BY  {keys}");
        }
        if let Some(k) = plan.limit {
            if !plan.order_by.is_empty() {
                let _ = write!(line, "  ");
            }
            let _ = write!(line, "LIMIT     {k}");
        }
        let _ = writeln!(out, "{line}");
    }
    // The structural verifier's receipt ([`crate::verify`]): how many
    // invariant checks this plan passed before any engine may compile it.
    match crate::verify::verify_plan(plan, catalog) {
        Ok(report) => {
            let _ = writeln!(out, "    verified: {} invariants", report.checks);
        }
        Err(e) => {
            let _ = writeln!(out, "    NOT VERIFIED: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, PlanStep};
    use crate::query::{col, eq, ge, gt, lit, PatternQuery};
    use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};

    fn catalog_with_stats() -> Catalog {
        ColumnarGraph::build(&RawGraph::example(), StorageConfig::default())
            .unwrap()
            .catalog()
            .clone()
    }

    /// Plan a single-node query and return the selectivity of its filter.
    fn filter_sel(cat: &Catalog, q: &PatternQuery) -> f64 {
        let p = plan(q, cat).unwrap();
        let expr = p
            .steps
            .iter()
            .find_map(|s| match s {
                PlanStep::Filter { expr } => Some(expr.clone()),
                PlanStep::ScanAll { pushed, .. } => pushed.first().cloned(),
                _ => None,
            })
            .expect("query has a filter");
        selectivity(&expr, &p.slots, &p.nodes, &p.edges, cat)
    }

    #[test]
    fn equality_uses_ndv_and_ranges_use_min_max() {
        let cat = catalog_with_stats();
        // PERSON.age has 4 distinct values in [17, 54].
        let eq_q = PatternQuery::builder()
            .node("a", "PERSON")
            .filter(eq(col("a", "age"), lit(45)))
            .returns_count()
            .build();
        assert!((filter_sel(&cat, &eq_q) - 0.25).abs() < 1e-12);
        // age >= 17 covers the whole domain; age > 54 none of it.
        let all = PatternQuery::builder()
            .node("a", "PERSON")
            .filter(ge(col("a", "age"), lit(17)))
            .returns_count()
            .build();
        assert!((filter_sel(&cat, &all) - 1.0).abs() < 1e-12);
        let none = PatternQuery::builder()
            .node("a", "PERSON")
            .filter(gt(col("a", "age"), lit(54)))
            .returns_count()
            .build();
        assert!(filter_sel(&cat, &none) <= MIN_SEL * 1.001);
    }

    #[test]
    fn string_and_slot_slot_predicates_get_default_selectivities() {
        let cat = catalog_with_stats();
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .filter(crate::query::contains("a", "name", "li"))
            .returns_count()
            .build();
        assert!((filter_sel(&cat, &q) - STR_MATCH_SEL).abs() < 1e-12);
        // e2.since > e1.since: a slot-slot range comparison.
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .node("c", "PERSON")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge("e2", "FOLLOWS", "b", "c")
            .filter(gt(col("e2", "since"), col("e1", "since")))
            .returns_count()
            .build();
        assert!((filter_sel(&cat, &q) - RANGE_SEL).abs() < 1e-12);
    }

    #[test]
    fn estimates_multiply_degrees_along_the_plan() {
        let cat = catalog_with_stats();
        // FOLLOWS 1-hop COUNT(*): scan 4 persons, extend by avg degree 2.
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .edge("e", "FOLLOWS", "a", "b")
            .returns_count()
            .build();
        let p = plan(&q, &cat).unwrap();
        assert_eq!(p.step_cards[0], Some(4.0));
        assert_eq!(*p.step_cards.last().unwrap(), Some(8.0));
    }

    #[test]
    fn explain_renders_operators_flatten_points_and_estimates() {
        let cat = catalog_with_stats();
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .node("c", "ORG")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge("e2", "WORKAT", "b", "c")
            .filter(gt(col("a", "age"), lit(50)))
            .returns_count()
            .start_at("a")
            .edge_order(vec![0, 1])
            .build();
        let p = plan(&q, &cat).unwrap();
        let text = render_explain(&p, &cat);
        assert!(text.contains("order: hints"), "{text}");
        assert!(text.contains("SCAN      (a:PERSON)"), "{text}");
        assert!(text.contains("[ListExtend, flattens (a)]"), "{text}");
        assert!(text.contains("[ColumnExtend]"), "{text}");
        assert!(text.contains("pushed: a.age > 50"), "{text}");
        assert!(text.contains("est zone-skip ~"), "{text}");
        assert!(text.contains("pages read]"), "{text}");
        assert!(text.contains("est ~"), "{text}");
        assert!(text.contains("RETURN    COUNT(*)"), "{text}");
    }
}
