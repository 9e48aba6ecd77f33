//! Compiled vectorized predicates.
//!
//! [`PlanExpr`]s are compiled once per query execution into [`CPredG`]s
//! that evaluate directly over columnar data. Two columnar techniques from
//! the paper apply here:
//!
//! * **String predicates run on compressed data**: any predicate comparing
//!   a dictionary-encoded string slot with constants (`=`, `<`, `CONTAINS`,
//!   `STARTS WITH`, `IN`, ...) is pre-evaluated once per *distinct* value
//!   against the column's dictionary, producing a bitmap over codes; the
//!   per-row check is then a single bit probe (Section 5.1).
//! * **Flat/list operand mixing** (Section 6.2): a binary expression's
//!   operands may live in a flattened group (a single value) or in the
//!   unflat target group (a block); evaluation broadcasts flat operands.
//!
//! The compiled form is generic over *where an operand lives*
//! ([`CPredG<L>`]): the `Filter` operator evaluates [`CPred`]s whose
//! operands are chunk-vector locations ([`VecRef`]), while pushed-down scan
//! predicates evaluate [`ScanPred`]s whose operands are storage columns —
//! one compiler, one evaluation semantics, two operand resolutions, so
//! pushdown can never drift from the in-pipeline filter. Scan predicates
//! additionally support **zone-map pruning** ([`ScanPred::prune`]): a
//! per-block verdict from the column's [`gfcl_columnar::ZoneMap`] that lets
//! the scan skip whole blocks without reading a single value.
//!
//! NULL semantics are SQL's three-valued logic: comparisons with NULL are
//! UNKNOWN, and only tuples whose predicate is TRUE survive.

use std::cell::RefCell;

use gfcl_columnar::{Bitmap, Column, Dictionary, PageCursor, ZoneInfo};

use gfcl_common::{DataType, Error, LabelId, Result, Value};
use gfcl_storage::{GraphView, StrExt};

use crate::chunk::{Chunk, ValueVector, VecRef};
use crate::plan::{PlanExpr, PlanScalar, SlotDef, SlotId};
use crate::query::{CmpOp, StrOp};

/// The storage backing of one plan slot: the baseline column (dictionary
/// decode and pre-evaluation) plus, when the graph carries uncommitted
/// mutations, the delta's string extension for values absent from the
/// baseline dictionary. Code spaces concatenate: codes `< dict.len()` are
/// baseline, codes `>= dict.len()` resolve through the extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotCol<'g> {
    pub col: Option<&'g Column>,
    pub ext: Option<&'g StrExt>,
}

impl<'g> SlotCol<'g> {
    /// A slot backed by a baseline column only (the clean-graph case).
    pub fn clean(col: Option<&'g Column>) -> SlotCol<'g> {
        SlotCol { col, ext: None }
    }
}

/// An i64 operand: a located slot or a constant.
#[derive(Debug, Clone, Copy)]
pub enum I64Operand<L> {
    Slot(L),
    Const(i64),
}

/// An f64 operand, possibly promoting an integer slot.
#[derive(Debug, Clone, Copy)]
pub enum F64Operand<L> {
    F64Slot(L),
    I64Slot(L),
    Const(f64),
}

/// A compiled predicate over operand locations `L`.
#[derive(Debug, Clone)]
pub enum CPredG<L> {
    Const(bool),
    /// UNKNOWN for every row (a comparison with a literal NULL).
    Unknown,
    CmpI64 {
        op: CmpOp,
        lhs: I64Operand<L>,
        rhs: I64Operand<L>,
    },
    CmpF64 {
        op: CmpOp,
        lhs: F64Operand<L>,
        rhs: F64Operand<L>,
    },
    BoolEq {
        slot: L,
        expected: bool,
    },
    /// String predicate pre-evaluated over the dictionary: true iff the
    /// row's code is set in the bitmap.
    CodeIn {
        slot: L,
        set: Bitmap,
    },
    I64In {
        slot: L,
        set: Vec<i64>,
    },
    And(Vec<CPredG<L>>),
    Or(Vec<CPredG<L>>),
    Not(Box<CPredG<L>>),
}

/// The in-pipeline compiled predicate: operands are chunk-vector locations.
pub type CPred = CPredG<VecRef>;

/// Operand of a pushed-down scan predicate: a storage column plus the page
/// cursor its row probes step through. A Mixed block's probes walk the
/// column in offset order, so on a paged column they pin each page once;
/// the scan clears the cursors at every morsel claim.
#[derive(Debug, Clone)]
pub struct ScanOperand<'g> {
    pub col: &'g Column,
    cur: RefCell<PageCursor>,
}

impl<'g> ScanOperand<'g> {
    pub fn new(col: &'g Column) -> ScanOperand<'g> {
        ScanOperand { col, cur: RefCell::default() }
    }
}

/// A pushed-down scan predicate: operands are storage columns, evaluated
/// positionally at a vertex offset (and pruned block-wise via zone maps).
pub type ScanPred<'g> = CPredG<ScanOperand<'g>>;

/// Resolves an operand location to a typed value (three-valued: `None` =
/// NULL).
pub trait PredReader<L> {
    fn i64(&self, loc: &L) -> Option<i64>;
    fn f64(&self, loc: &L) -> Option<f64>;
    fn bool(&self, loc: &L) -> Option<bool>;
    fn code(&self, loc: &L) -> Option<u64>;
}

/// Evaluation position: the target group is indexed by `pos`; every other
/// (flat) group contributes the value at its `cur_idx`.
pub struct EvalCtx<'c> {
    pub chunk: &'c Chunk,
    /// Group whose positions are being scanned (`usize::MAX` = all flat).
    pub target: usize,
    pub pos: usize,
}

impl EvalCtx<'_> {
    #[inline]
    fn index_of(&self, r: VecRef) -> usize {
        if r.group == self.target {
            self.pos
        } else {
            let g = &self.chunk.groups[r.group];
            debug_assert!(g.is_flat(), "non-target group must be flattened");
            g.cur_idx as usize
        }
    }
}

impl PredReader<VecRef> for EvalCtx<'_> {
    #[inline]
    fn i64(&self, r: &VecRef) -> Option<i64> {
        let idx = self.index_of(*r);
        match &self.chunk.groups[r.group].vectors[r.vec] {
            ValueVector::I64 { vals, valid, .. } => valid[idx].then(|| vals[idx]),
            _ => None,
        }
    }

    #[inline]
    fn f64(&self, r: &VecRef) -> Option<f64> {
        let idx = self.index_of(*r);
        match &self.chunk.groups[r.group].vectors[r.vec] {
            ValueVector::F64 { vals, valid } => valid[idx].then(|| vals[idx]),
            _ => None,
        }
    }

    #[inline]
    fn bool(&self, r: &VecRef) -> Option<bool> {
        let idx = self.index_of(*r);
        match &self.chunk.groups[r.group].vectors[r.vec] {
            ValueVector::Bool { vals, valid } => valid[idx].then(|| vals[idx]),
            _ => None,
        }
    }

    #[inline]
    fn code(&self, r: &VecRef) -> Option<u64> {
        let idx = self.index_of(*r);
        match &self.chunk.groups[r.group].vectors[r.vec] {
            ValueVector::Code { vals, valid } => valid[idx].then(|| vals[idx]),
            _ => None,
        }
    }
}

/// Positional reader over storage columns: row = the vertex offset `v`,
/// read through each operand's own cursor.
pub struct ScanCtx {
    pub v: usize,
}

impl PredReader<ScanOperand<'_>> for ScanCtx {
    #[inline]
    fn i64(&self, o: &ScanOperand<'_>) -> Option<i64> {
        o.col.get_i64_with(&mut o.cur.borrow_mut(), self.v)
    }

    #[inline]
    fn f64(&self, o: &ScanOperand<'_>) -> Option<f64> {
        o.col.get_f64_with(&mut o.cur.borrow_mut(), self.v)
    }

    #[inline]
    fn bool(&self, o: &ScanOperand<'_>) -> Option<bool> {
        o.col.get_bool_with(&mut o.cur.borrow_mut(), self.v)
    }

    #[inline]
    fn code(&self, o: &ScanOperand<'_>) -> Option<u64> {
        o.col.get_code_with(&mut o.cur.borrow_mut(), self.v)
    }
}

/// Operand of a row-level predicate: a vertex property index plus the
/// dictionary/extension needed to translate string values back into the
/// compiled bitmap's code space, and the page cursor its baseline reads
/// step through (cleared with the scan's at every morsel claim).
#[derive(Debug, Clone)]
pub struct RowOperand<'g> {
    pub prop: usize,
    pub dict: Option<&'g Dictionary>,
    pub ext: Option<&'g StrExt>,
    cur: RefCell<PageCursor>,
}

impl RowOperand<'_> {
    /// This operand's property of the vertex `ctx` reads, through the
    /// operand's cursor.
    fn value(&self, ctx: &RowCtx<'_>) -> Value {
        ctx.view.vertex_value(&mut self.cur.borrow_mut(), ctx.label, ctx.off, self.prop)
    }
}

/// A pushed-down predicate recompiled for row-at-a-time evaluation through
/// a [`GraphView`]: the scan falls back to this for rows the delta touches
/// (updated, inserted, or inside a tombstoned block), where the baseline
/// columns no longer tell the truth.
pub type RowPred<'g> = CPredG<RowOperand<'g>>;

/// Reader evaluating a [`RowPred`] at one vertex of one label.
pub struct RowCtx<'g> {
    pub view: GraphView<'g>,
    pub label: LabelId,
    pub off: u64,
}

impl<'g> PredReader<RowOperand<'g>> for RowCtx<'g> {
    #[inline]
    fn i64(&self, o: &RowOperand<'g>) -> Option<i64> {
        match o.value(self) {
            Value::Int64(v) | Value::Date(v) => Some(v),
            _ => None,
        }
    }

    #[inline]
    fn f64(&self, o: &RowOperand<'g>) -> Option<f64> {
        match o.value(self) {
            Value::Float64(v) => Some(v),
            _ => None,
        }
    }

    #[inline]
    fn bool(&self, o: &RowOperand<'g>) -> Option<bool> {
        match o.value(self) {
            Value::Bool(v) => Some(v),
            _ => None,
        }
    }

    #[inline]
    fn code(&self, o: &RowOperand<'g>) -> Option<u64> {
        match o.value(self) {
            Value::String(s) => o
                .dict
                .and_then(|d| d.code_of(&s))
                .map(u64::from)
                .or_else(|| o.ext.and_then(|e| e.code_of(&s))),
            _ => None,
        }
    }
}

impl<'g> RowPred<'g> {
    /// TRUE-only evaluation at one `(label, off)` vertex of `view`.
    #[inline]
    pub fn holds_row(&self, view: GraphView<'g>, label: LabelId, off: u64) -> bool {
        self.eval_with(&RowCtx { view, label, off }) == Some(true)
    }

    /// Drop every operand's page pin (see [`ScanPred::clear_cursors`]).
    pub fn clear_cursors(&self) {
        self.for_each_operand(&mut |o| o.cur.borrow_mut().clear());
    }
}

#[inline]
fn cmp_holds<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

impl<L> CPredG<L> {
    /// Call `f` on every operand the predicate touches — the scan uses this
    /// to skip-account a pruned block's pages and to drop the cursors, the
    /// filter to find the list group it evaluates over.
    pub fn for_each_operand(&self, f: &mut impl FnMut(&L)) {
        match self {
            CPredG::Const(_) | CPredG::Unknown => {}
            CPredG::CmpI64 { lhs, rhs, .. } => {
                for o in [lhs, rhs] {
                    if let I64Operand::Slot(c) = o {
                        f(c);
                    }
                }
            }
            CPredG::CmpF64 { lhs, rhs, .. } => {
                for o in [lhs, rhs] {
                    match o {
                        F64Operand::F64Slot(c) | F64Operand::I64Slot(c) => f(c),
                        F64Operand::Const(_) => {}
                    }
                }
            }
            CPredG::BoolEq { slot, .. }
            | CPredG::CodeIn { slot, .. }
            | CPredG::I64In { slot, .. } => f(slot),
            CPredG::And(es) | CPredG::Or(es) => es.iter().for_each(|e| e.for_each_operand(f)),
            CPredG::Not(e) => e.for_each_operand(f),
        }
    }

    /// Three-valued evaluation at one position. `None` = UNKNOWN.
    pub fn eval_with<R: PredReader<L>>(&self, r: &R) -> Option<bool> {
        match self {
            CPredG::Const(b) => Some(*b),
            CPredG::Unknown => None,
            CPredG::CmpI64 { op, lhs, rhs } => {
                let a = match lhs {
                    I64Operand::Slot(l) => r.i64(l)?,
                    I64Operand::Const(k) => *k,
                };
                let b = match rhs {
                    I64Operand::Slot(l) => r.i64(l)?,
                    I64Operand::Const(k) => *k,
                };
                Some(cmp_holds(*op, a, b))
            }
            CPredG::CmpF64 { op, lhs, rhs } => {
                let read = |o: &F64Operand<L>| -> Option<f64> {
                    match o {
                        F64Operand::F64Slot(l) => r.f64(l),
                        F64Operand::I64Slot(l) => r.i64(l).map(|v| v as f64),
                        F64Operand::Const(k) => Some(*k),
                    }
                };
                Some(cmp_holds(*op, read(lhs)?, read(rhs)?))
            }
            CPredG::BoolEq { slot, expected } => Some(r.bool(slot)? == *expected),
            CPredG::CodeIn { slot, set } => {
                // A code past the bitmap cannot be in the set. (Delta string
                // extensions grow the code space; predicates compiled before
                // the extension existed stay sound.)
                let c = r.code(slot)? as usize;
                Some(c < set.len() && set.get(c))
            }
            CPredG::I64In { slot, set } => {
                let v = r.i64(slot)?;
                Some(set.binary_search(&v).is_ok())
            }
            CPredG::And(es) => {
                let mut unknown = false;
                for e in es {
                    match e.eval_with(r) {
                        Some(false) => return Some(false),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
            CPredG::Or(es) => {
                let mut unknown = false;
                for e in es {
                    match e.eval_with(r) {
                        Some(true) => return Some(true),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(false)
                }
            }
            CPredG::Not(e) => e.eval_with(r).map(|b| !b),
        }
    }
}

impl CPred {
    /// Three-valued evaluation at one chunk position. `None` = UNKNOWN.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Option<bool> {
        self.eval_with(ctx)
    }

    /// TRUE-only convenience: UNKNOWN filters the tuple out.
    #[inline]
    pub fn holds(&self, ctx: &EvalCtx<'_>) -> bool {
        self.eval(ctx) == Some(true)
    }
}

// ---- Zone-map pruning ------------------------------------------------------

/// What a zone map can prove about one block under a scan predicate, in
/// terms of `holds` (TRUE-only) semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockVerdict {
    /// Every row in the block satisfies the predicate (no row is NULL on
    /// any input): the whole block passes without evaluation.
    AllTrue,
    /// No row in the block can satisfy the predicate: skip the block.
    AllFalse,
    /// The summary is inconclusive: evaluate row by row.
    Mixed,
}

impl BlockVerdict {
    /// Conjunction of two verdicts (`holds` of `a AND b`).
    pub fn and(self, other: BlockVerdict) -> BlockVerdict {
        use BlockVerdict::*;
        match (self, other) {
            (AllFalse, _) | (_, AllFalse) => AllFalse,
            (AllTrue, AllTrue) => AllTrue,
            _ => Mixed,
        }
    }
}

/// Zone entry of `col`'s block `b`, when a zone map exists and the block is
/// in range.
fn zone_entry(col: &Column, b: usize) -> Option<&gfcl_columnar::ZoneEntry> {
    let zm = col.zone_map()?;
    (b < zm.n_blocks()).then(|| zm.block(b))
}

/// `(every value satisfies, no value satisfies)` for `value op k` over a
/// domain `[min, max]` — the single truth table shared by the integer and
/// float pruners, so their semantics cannot drift apart. With a NaN
/// endpoint or constant every comparison below is false, and both flags
/// come back false (= inconclusive), which is the conservative answer.
fn ordered_flags<T: PartialOrd + Copy>(op: CmpOp, min: T, max: T, k: T) -> (bool, bool) {
    match op {
        CmpOp::Eq => (min >= k && max <= k, k < min || k > max),
        CmpOp::Ne => (k < min || k > max, min >= k && max <= k),
        CmpOp::Lt => (max < k, min >= k),
        CmpOp::Le => (max <= k, min > k),
        CmpOp::Gt => (min > k, max <= k),
        CmpOp::Ge => (min >= k, max < k),
    }
}

/// Verdict of `col[block] op k` over an integer domain `[min, max]`.
fn ordered_verdict<T: PartialOrd + Copy>(
    op: CmpOp,
    min: T,
    max: T,
    k: T,
    has_nulls: bool,
) -> BlockVerdict {
    let (all_t, all_f) = ordered_flags(op, min, max, k);
    if all_f {
        BlockVerdict::AllFalse
    } else if all_t && !has_nulls {
        BlockVerdict::AllTrue
    } else {
        BlockVerdict::Mixed
    }
}

fn prune_i64(col: &Column, b: usize, op: CmpOp, k: i64) -> BlockVerdict {
    let Some(e) = zone_entry(col, b) else { return BlockVerdict::Mixed };
    if e.all_null() {
        return BlockVerdict::AllFalse;
    }
    match e.info {
        ZoneInfo::I64 { min, max } => ordered_verdict(op, min, max, k, e.has_nulls()),
        _ => BlockVerdict::Mixed,
    }
}

/// `col[block] op k` for a float comparison; `col` may be an integer column
/// promoted to f64.
fn prune_f64(col: &Column, b: usize, op: CmpOp, k: f64, int_col: bool) -> BlockVerdict {
    let Some(e) = zone_entry(col, b) else { return BlockVerdict::Mixed };
    if e.all_null() {
        return BlockVerdict::AllFalse;
    }
    let (min, max, has_nan) = match e.info {
        ZoneInfo::I64 { min, max } if int_col => (min as f64, max as f64, false),
        ZoneInfo::F64 { min, max, has_nan } if !int_col => (min, max, has_nan),
        _ => return BlockVerdict::Mixed,
    };
    // Verdict over the non-NaN domain (vacuously both when empty)...
    let (mut all_t, mut all_f) =
        if min <= max { ordered_flags(op, min, max, k) } else { (true, true) };
    // ...adjusted for NaN rows: a NaN value fails every ordered comparison
    // and `=` but satisfies `<>` — against ANY constant, NaN included
    // (IEEE 754: `NaN != x` is true for every x).
    if has_nan {
        if op == CmpOp::Ne {
            all_f = false;
        } else {
            all_t = false;
        }
    }
    if all_f {
        BlockVerdict::AllFalse
    } else if all_t && !e.has_nulls() {
        BlockVerdict::AllTrue
    } else {
        BlockVerdict::Mixed
    }
}

impl<'g> ScanPred<'g> {
    /// Evaluate at vertex offset `v` (three-valued).
    #[inline]
    pub fn eval_at(&self, v: usize) -> Option<bool> {
        self.eval_with(&ScanCtx { v })
    }

    /// TRUE-only evaluation at vertex offset `v`.
    #[inline]
    pub fn holds_at(&self, v: usize) -> bool {
        self.eval_at(v) == Some(true)
    }

    /// Drop every operand's page pin (the scan calls this at each morsel
    /// claim, so a pin never outlives a morsel).
    pub fn clear_cursors(&self) {
        self.for_each_operand(&mut |o| o.cur.borrow_mut().clear());
    }

    /// Consult the operand columns' zone maps for a verdict over zone block
    /// `b` (positions `[b * ZONE_BLOCK, (b+1) * ZONE_BLOCK)`). Conservative:
    /// any missing zone map or inconclusive summary yields
    /// [`BlockVerdict::Mixed`].
    pub fn prune(&self, b: usize) -> BlockVerdict {
        use BlockVerdict::*;
        match self {
            CPredG::Const(true) => AllTrue,
            CPredG::Const(false) | CPredG::Unknown => AllFalse,
            CPredG::CmpI64 { op, lhs, rhs } => match (lhs, rhs) {
                (I64Operand::Slot(c), I64Operand::Const(k)) => prune_i64(c.col, b, *op, *k),
                (I64Operand::Const(k), I64Operand::Slot(c)) => prune_i64(c.col, b, op.flip(), *k),
                (I64Operand::Const(a), I64Operand::Const(k)) => {
                    if cmp_holds(*op, *a, *k) {
                        AllTrue
                    } else {
                        AllFalse
                    }
                }
                (I64Operand::Slot(_), I64Operand::Slot(_)) => Mixed,
            },
            CPredG::CmpF64 { op, lhs, rhs } => {
                let side = |o: &F64Operand<ScanOperand<'g>>| match o {
                    F64Operand::F64Slot(c) => Some((c.col, false)),
                    F64Operand::I64Slot(c) => Some((c.col, true)),
                    F64Operand::Const(_) => None,
                };
                match (side(lhs), side(rhs)) {
                    (Some((c, int_col)), None) => {
                        let F64Operand::Const(k) = rhs else { unreachable!() };
                        prune_f64(c, b, *op, *k, int_col)
                    }
                    (None, Some((c, int_col))) => {
                        let F64Operand::Const(k) = lhs else { unreachable!() };
                        prune_f64(c, b, op.flip(), *k, int_col)
                    }
                    _ => Mixed,
                }
            }
            CPredG::BoolEq { slot, expected } => {
                let Some(e) = zone_entry(slot.col, b) else { return Mixed };
                if e.all_null() {
                    return AllFalse;
                }
                match e.info {
                    ZoneInfo::Bool { any_true, any_false } => {
                        let (hit, miss) =
                            if *expected { (any_true, any_false) } else { (any_false, any_true) };
                        if !hit {
                            AllFalse
                        } else if !miss && !e.has_nulls() {
                            AllTrue
                        } else {
                            Mixed
                        }
                    }
                    _ => Mixed,
                }
            }
            CPredG::CodeIn { slot, set } => {
                let Some(e) = zone_entry(slot.col, b) else { return Mixed };
                if e.all_null() {
                    return AllFalse;
                }
                match &e.info {
                    ZoneInfo::Codes { present } => {
                        let mut any_hit = false;
                        let mut any_miss = false;
                        for c in present.iter_ones() {
                            if c < set.len() && set.get(c) {
                                any_hit = true;
                            } else {
                                any_miss = true;
                            }
                        }
                        if !any_hit {
                            AllFalse
                        } else if !any_miss && !e.has_nulls() {
                            AllTrue
                        } else {
                            Mixed
                        }
                    }
                    _ => Mixed,
                }
            }
            CPredG::I64In { slot, set } => {
                let Some(e) = zone_entry(slot.col, b) else { return Mixed };
                if e.all_null() {
                    return AllFalse;
                }
                match e.info {
                    ZoneInfo::I64 { min, max } => {
                        if set.iter().all(|&v| v < min || v > max) {
                            AllFalse
                        } else if min == max && set.binary_search(&min).is_ok() && !e.has_nulls() {
                            AllTrue
                        } else {
                            Mixed
                        }
                    }
                    _ => Mixed,
                }
            }
            CPredG::And(es) => {
                let mut v = AllTrue;
                for e in es {
                    v = v.and(e.prune(b));
                    if v == AllFalse {
                        return AllFalse;
                    }
                }
                v
            }
            CPredG::Or(es) => {
                let mut all_false = true;
                for e in es {
                    match e.prune(b) {
                        AllTrue => return AllTrue,
                        AllFalse => {}
                        Mixed => all_false = false,
                    }
                }
                if all_false {
                    AllFalse
                } else {
                    Mixed
                }
            }
            // NOT over an AllTrue block is uniformly false. The converse
            // does NOT hold: AllFalse covers UNKNOWN rows, whose negation
            // is still UNKNOWN, so only Mixed is safe there.
            CPredG::Not(e) => match e.prune(b) {
                AllTrue => AllFalse,
                _ => Mixed,
            },
        }
    }
}

// ---- Compilation -----------------------------------------------------------

/// Compile a resolved plan expression for the `Filter` operator.
/// `slot_refs[slot]` locates each slot's vector; `col_of(slot)` is the
/// storage column it reads (for dictionary pre-evaluation). Parameter `i`
/// compiles as the constant `params[i]`.
pub fn compile_pred<'g>(
    expr: &PlanExpr,
    slot_defs: &[SlotDef],
    slot_refs: &[VecRef],
    col_of: impl Fn(SlotId) -> SlotCol<'g>,
    params: &[Value],
) -> Result<CPred> {
    let c = Compiler { slot_defs, col_of, params, loc_of: |s: SlotId| slot_refs[s] };
    c.compile(expr)
}

/// Compile a pushed-down scan predicate: every slot resolves directly to
/// its vertex-property column (`col_of(slot)`, without a column for slots
/// that are not properties of the scanned node — an internal planner
/// error).
pub fn compile_scan_pred<'g>(
    expr: &PlanExpr,
    slot_defs: &[SlotDef],
    col_of: impl Fn(SlotId) -> SlotCol<'g> + Copy,
    params: &[Value],
) -> Result<ScanPred<'g>> {
    if let Some(s) = expr.slots().into_iter().find(|&s| col_of(s).col.is_none()) {
        return Err(foreign_slot(s, slot_defs));
    }
    let loc_of = |s: SlotId| ScanOperand::new(col_of(s).col.expect("checked above"));
    Compiler { slot_defs, col_of, params, loc_of }.compile(expr)
}

/// Recompile a pushed-down scan predicate for row-at-a-time evaluation
/// through a [`GraphView`]: `prop_of(slot)` is the scanned label's property
/// index behind each slot (`None` for foreign slots, which pushed
/// predicates never reference). The bitmap code spaces are identical to
/// [`compile_scan_pred`]'s, so the two forms cannot disagree on a row.
pub fn compile_row_pred<'g>(
    expr: &PlanExpr,
    slot_defs: &[SlotDef],
    prop_of: impl Fn(SlotId) -> Option<usize>,
    col_of: impl Fn(SlotId) -> SlotCol<'g> + Copy,
    params: &[Value],
) -> Result<RowPred<'g>> {
    if let Some(s) = expr.slots().into_iter().find(|&s| prop_of(s).is_none()) {
        return Err(foreign_slot(s, slot_defs));
    }
    let c = Compiler {
        slot_defs,
        col_of,
        params,
        loc_of: |s: SlotId| RowOperand {
            prop: prop_of(s).expect("checked above"),
            dict: col_of(s).col.and_then(Column::dictionary),
            ext: col_of(s).ext,
            cur: RefCell::default(),
        },
    };
    c.compile(expr)
}

/// A pushed-down predicate reads `slot`, which the scanned node does not own.
fn foreign_slot(slot: SlotId, slot_defs: &[SlotDef]) -> Error {
    Error::Plan(format!(
        "pushed-down predicate references slot {slot} ({}), which is not a property of the \
         scanned node",
        slot_defs[slot].name
    ))
}

struct Compiler<'a, L, F: Fn(SlotId) -> L, C> {
    slot_defs: &'a [SlotDef],
    /// Backing storage column (dictionary pre-evaluation) of each slot,
    /// plus any delta string extension growing its code space.
    col_of: C,
    /// Values of the plan's parameters, by index.
    params: &'a [Value],
    loc_of: F,
}

/// A comparison operand with any parameter resolved to its value.
enum Operand<'v> {
    Slot(SlotId),
    Const(&'v Value),
}

impl<'g, L, F: Fn(SlotId) -> L, C: Fn(SlotId) -> SlotCol<'g>> Compiler<'_, L, F, C> {
    fn compile(&self, e: &PlanExpr) -> Result<CPredG<L>> {
        match e {
            PlanExpr::And(es) => {
                Ok(CPredG::And(es.iter().map(|e| self.compile(e)).collect::<Result<_>>()?))
            }
            PlanExpr::Or(es) => {
                Ok(CPredG::Or(es.iter().map(|e| self.compile(e)).collect::<Result<_>>()?))
            }
            PlanExpr::Not(inner) => Ok(CPredG::Not(Box::new(self.compile(inner)?))),
            PlanExpr::StrMatch { op, slot, pattern } => {
                let set = match op {
                    StrOp::Contains => {
                        self.codes_matching(*slot, |s| s.contains(pattern.as_str()))?
                    }
                    StrOp::StartsWith => {
                        self.codes_matching(*slot, |s| s.starts_with(pattern.as_str()))?
                    }
                    StrOp::EndsWith => {
                        self.codes_matching(*slot, |s| s.ends_with(pattern.as_str()))?
                    }
                };
                Ok(CPredG::CodeIn { slot: (self.loc_of)(*slot), set })
            }
            PlanExpr::InSet { slot, values } => match self.slot_defs[*slot].dtype {
                DataType::String => {
                    let needles: Vec<&str> = values.iter().filter_map(Value::as_str).collect();
                    let set = self.codes_matching(*slot, |s| needles.contains(&s))?;
                    Ok(CPredG::CodeIn { slot: (self.loc_of)(*slot), set })
                }
                DataType::Int64 | DataType::Date => {
                    let mut set: Vec<i64> = values.iter().filter_map(Value::as_i64).collect();
                    set.sort_unstable();
                    set.dedup();
                    Ok(CPredG::I64In { slot: (self.loc_of)(*slot), set })
                }
                t => Err(Error::TypeMismatch {
                    expected: "STRING or INT64 for IN".into(),
                    found: t.to_string(),
                }),
            },
            PlanExpr::Cmp { op, lhs, rhs } => self.compile_cmp(*op, lhs, rhs),
        }
    }

    fn operand<'v>(&'v self, s: &'v PlanScalar) -> Result<Operand<'v>> {
        match s {
            PlanScalar::Slot(i) => Ok(Operand::Slot(*i)),
            _ => s.value(self.params).map(Operand::Const).ok_or_else(|| {
                Error::Plan(format!(
                    "predicate reads {s:?}, but {} parameter value(s) were supplied",
                    self.params.len()
                ))
            }),
        }
    }

    fn compile_cmp(&self, op: CmpOp, lhs: &PlanScalar, rhs: &PlanScalar) -> Result<CPredG<L>> {
        use Operand::*;
        let (lhs, rhs) = (self.operand(lhs)?, self.operand(rhs)?);
        let stype = |s: &Operand<'_>| -> Option<DataType> {
            match s {
                Slot(i) => Some(self.slot_defs[*i].dtype),
                Const(v) => v.data_type(),
            }
        };
        let lt = stype(&lhs);
        let rt = stype(&rhs);
        // NULL constant: comparison is always UNKNOWN.
        if lt.is_none() || rt.is_none() {
            return Ok(CPredG::Unknown);
        }
        let (lt, rt) = (lt.unwrap(), rt.unwrap());

        // String comparisons become dictionary bitmaps.
        if lt == DataType::String || rt == DataType::String {
            return match (lhs, rhs) {
                (Slot(s), Const(c)) => self.string_cmp(s, op, c),
                (Const(c), Slot(s)) => self.string_cmp(s, op.flip(), c),
                (Slot(_), Slot(_)) => Err(Error::Plan(
                    "string comparisons between two variables are not supported \
                     (dictionaries are per-column)"
                        .into(),
                )),
                (Const(a), Const(b)) => {
                    Ok(CPredG::Const(a.compare(b).map(|o| cmp_holds_ord(op, o)) == Some(true)))
                }
            };
        }

        // Bool equality.
        if lt == DataType::Bool || rt == DataType::Bool {
            return match (op, lhs, rhs) {
                (CmpOp::Eq | CmpOp::Ne, Slot(s), Const(c))
                | (CmpOp::Eq | CmpOp::Ne, Const(c), Slot(s)) => {
                    let expected = c.as_bool().ok_or_else(|| Error::TypeMismatch {
                        expected: "BOOL".into(),
                        found: "non-bool".into(),
                    })?;
                    let p = CPredG::BoolEq { slot: (self.loc_of)(s), expected };
                    Ok(if op == CmpOp::Ne { CPredG::Not(Box::new(p)) } else { p })
                }
                _ => Err(Error::Plan("unsupported boolean comparison".into())),
            };
        }

        // Float if either side is a float; else integer/date.
        let is_float = lt == DataType::Float64 || rt == DataType::Float64;
        if is_float {
            let f_operand = |s: &Operand<'_>| -> Result<F64Operand<L>> {
                Ok(match s {
                    Slot(i) => match self.slot_defs[*i].dtype {
                        DataType::Float64 => F64Operand::F64Slot((self.loc_of)(*i)),
                        _ => F64Operand::I64Slot((self.loc_of)(*i)),
                    },
                    Const(v) => F64Operand::Const(v.as_f64().ok_or_else(|| {
                        Error::TypeMismatch { expected: "numeric".into(), found: v.to_string() }
                    })?),
                })
            };
            return Ok(CPredG::CmpF64 { op, lhs: f_operand(&lhs)?, rhs: f_operand(&rhs)? });
        }
        let i_operand = |s: &Operand<'_>| -> Result<I64Operand<L>> {
            Ok(match s {
                Slot(i) => I64Operand::Slot((self.loc_of)(*i)),
                Const(v) => I64Operand::Const(v.as_i64().ok_or_else(|| Error::TypeMismatch {
                    expected: "INT64/DATE".into(),
                    found: v.to_string(),
                })?),
            })
        };
        Ok(CPredG::CmpI64 { op, lhs: i_operand(&lhs)?, rhs: i_operand(&rhs)? })
    }

    fn string_cmp(&self, slot: usize, op: CmpOp, konst: &Value) -> Result<CPredG<L>> {
        let needle = konst.as_str().ok_or_else(|| Error::TypeMismatch {
            expected: "STRING".into(),
            found: konst.to_string(),
        })?;
        let set = self.codes_matching(slot, |s| cmp_holds_ord(op, s.cmp(needle)))?;
        Ok(CPredG::CodeIn { slot: (self.loc_of)(slot), set })
    }

    fn dict_of(&self, slot: usize) -> Result<&'g Dictionary> {
        (self.col_of)(slot).col.and_then(Column::dictionary).ok_or_else(|| Error::TypeMismatch {
            expected: "STRING column".into(),
            found: self.slot_defs[slot].dtype.to_string(),
        })
    }

    /// Codes of `slot` whose strings satisfy `f`: the baseline dictionary's
    /// codes, extended past `dict.len()` with any delta-appended strings so
    /// the bitmap covers every code a merged scan can produce.
    fn codes_matching(&self, slot: usize, f: impl Fn(&str) -> bool) -> Result<Bitmap> {
        let dict = self.dict_of(slot)?;
        Ok(match (self.col_of)(slot).ext {
            Some(ext) if !ext.is_empty() => Bitmap::from_fn(ext.code_end() as usize, |c| {
                if c < dict.len() {
                    f(dict.decode(c as u64))
                } else {
                    f(ext.decode(c as u64))
                }
            }),
            _ => dict.matching_codes(f),
        })
    }
}

fn cmp_holds_ord(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{Chunk, ListGroup, ValueVector};
    use gfcl_columnar::NullKind;
    use gfcl_columnar::ZONE_BLOCK;

    fn chunk_with(vals: Vec<i64>, valid: Vec<bool>) -> Chunk {
        let mut g = ListGroup::new(1);
        g.reset(vals.len());
        g.vectors[0] = ValueVector::I64 { vals, valid, date: false };
        Chunk { groups: vec![g], morsel: 0 }
    }

    #[test]
    fn i64_comparison_with_nulls() {
        let chunk = chunk_with(vec![5, 10, 0], vec![true, true, false]);
        let p = CPred::CmpI64 {
            op: CmpOp::Gt,
            lhs: I64Operand::Slot(VecRef { group: 0, vec: 0 }),
            rhs: I64Operand::Const(6),
        };
        let at = |pos| p.eval(&EvalCtx { chunk: &chunk, target: 0, pos });
        assert_eq!(at(0), Some(false));
        assert_eq!(at(1), Some(true));
        assert_eq!(at(2), None, "NULL comparison is UNKNOWN");
        assert!(!p.holds(&EvalCtx { chunk: &chunk, target: 0, pos: 2 }));
    }

    #[test]
    fn three_valued_and_or() {
        let chunk = chunk_with(vec![0], vec![false]); // NULL slot
        let r = VecRef { group: 0, vec: 0 };
        let unknown =
            CPred::CmpI64 { op: CmpOp::Eq, lhs: I64Operand::Slot(r), rhs: I64Operand::Const(0) };
        let t = CPred::Const(true);
        let f = CPred::Const(false);
        let ctx = EvalCtx { chunk: &chunk, target: 0, pos: 0 };
        assert_eq!(CPred::And(vec![unknown.clone(), f.clone()]).eval(&ctx), Some(false));
        assert_eq!(CPred::And(vec![unknown.clone(), t.clone()]).eval(&ctx), None);
        assert_eq!(CPred::Or(vec![unknown.clone(), t]).eval(&ctx), Some(true));
        assert_eq!(CPred::Or(vec![unknown.clone(), f]).eval(&ctx), None);
        assert_eq!(CPred::Not(Box::new(unknown)).eval(&ctx), None);
        // A comparison against a literal NULL is UNKNOWN — and so is its
        // negation (it used to compile to a constant FALSE, whose negation
        // wrongly kept every row).
        assert_eq!(CPred::Not(Box::new(CPred::Unknown)).eval(&ctx), None);
    }

    #[test]
    fn flat_group_broadcast() {
        // Group 0 flat at idx 1, group 1 is the target.
        let mut g0 = ListGroup::new(1);
        g0.reset(3);
        g0.vectors[0] =
            ValueVector::I64 { vals: vec![100, 200, 300], valid: vec![true; 3], date: false };
        g0.cur_idx = 1;
        let mut g1 = ListGroup::new(1);
        g1.reset(2);
        g1.vectors[0] =
            ValueVector::I64 { vals: vec![150, 250], valid: vec![true; 2], date: false };
        let chunk = Chunk { groups: vec![g0, g1], morsel: 0 };
        // g1.val > g0.val (flat broadcast of 200)
        let p = CPred::CmpI64 {
            op: CmpOp::Gt,
            lhs: I64Operand::Slot(VecRef { group: 1, vec: 0 }),
            rhs: I64Operand::Slot(VecRef { group: 0, vec: 0 }),
        };
        assert_eq!(p.eval(&EvalCtx { chunk: &chunk, target: 1, pos: 0 }), Some(false));
        assert_eq!(p.eval(&EvalCtx { chunk: &chunk, target: 1, pos: 1 }), Some(true));
    }

    #[test]
    fn code_in_bitmap() {
        let mut g = ListGroup::new(1);
        g.reset(3);
        g.vectors[0] = ValueVector::Code { vals: vec![0, 1, 2], valid: vec![true, true, false] };
        let chunk = Chunk { groups: vec![g], morsel: 0 };
        let set = Bitmap::from_bools(&[true, false, true]);
        let p = CPred::CodeIn { slot: VecRef { group: 0, vec: 0 }, set };
        let at = |pos| p.eval(&EvalCtx { chunk: &chunk, target: 0, pos });
        assert_eq!(at(0), Some(true));
        assert_eq!(at(1), Some(false));
        assert_eq!(at(2), None);
    }

    /// Column of three zone blocks: [0, B), [B, 2B) all-NULL, then a short
    /// all-42 tail.
    fn zoned_column() -> Column {
        let mut values: Vec<Option<i64>> = (0..ZONE_BLOCK as i64).map(Some).collect();
        values.extend(std::iter::repeat_n(None, ZONE_BLOCK));
        values.extend(std::iter::repeat_n(Some(42i64), 10));
        let mut col = Column::from_i64(DataType::Int64, &values, NullKind::jacobson_default());
        col.build_zone_map();
        col
    }

    #[test]
    fn scan_pred_prunes_i64_blocks() {
        let col = zoned_column();
        let p: ScanPred<'_> = CPredG::CmpI64 {
            op: CmpOp::Ge,
            lhs: I64Operand::Slot(ScanOperand::new(&col)),
            rhs: I64Operand::Const(ZONE_BLOCK as i64),
        };
        // Block 0 holds 0..B: nothing >= B. Block 1 is all-NULL. Block 2
        // holds only 42 < B... wait, 42 < B, so AllFalse there too.
        assert_eq!(p.prune(0), BlockVerdict::AllFalse);
        assert_eq!(p.prune(1), BlockVerdict::AllFalse, "all-NULL block never matches");
        assert_eq!(p.prune(2), BlockVerdict::AllFalse);
        // A predicate satisfied by every row of a NULL-free block.
        let p: ScanPred<'_> = CPredG::CmpI64 {
            op: CmpOp::Ge,
            lhs: I64Operand::Slot(ScanOperand::new(&col)),
            rhs: I64Operand::Const(0),
        };
        assert_eq!(p.prune(0), BlockVerdict::AllTrue);
        assert_eq!(p.prune(1), BlockVerdict::AllFalse);
        assert_eq!(p.prune(2), BlockVerdict::AllTrue, "single-value block");
        // Straddling the min/max: inconclusive.
        let p: ScanPred<'_> = CPredG::CmpI64 {
            op: CmpOp::Lt,
            lhs: I64Operand::Slot(ScanOperand::new(&col)),
            rhs: I64Operand::Const(10),
        };
        assert_eq!(p.prune(0), BlockVerdict::Mixed);
        // Equality on the single-value tail block.
        let p: ScanPred<'_> = CPredG::CmpI64 {
            op: CmpOp::Eq,
            lhs: I64Operand::Slot(ScanOperand::new(&col)),
            rhs: I64Operand::Const(42),
        };
        assert_eq!(p.prune(2), BlockVerdict::AllTrue);
        let p: ScanPred<'_> = CPredG::I64In { slot: ScanOperand::new(&col), set: vec![-5, 42] };
        assert_eq!(p.prune(0), BlockVerdict::Mixed, "42 falls inside [0, B)");
        assert_eq!(p.prune(2), BlockVerdict::AllTrue);
        let p: ScanPred<'_> = CPredG::I64In { slot: ScanOperand::new(&col), set: vec![-5] };
        assert_eq!(p.prune(0), BlockVerdict::AllFalse);
    }

    #[test]
    fn scan_pred_eval_matches_column_reads() {
        let col = zoned_column();
        let p: ScanPred<'_> = CPredG::CmpI64 {
            op: CmpOp::Lt,
            lhs: I64Operand::Slot(ScanOperand::new(&col)),
            rhs: I64Operand::Const(5),
        };
        assert_eq!(p.eval_at(3), Some(true));
        assert_eq!(p.eval_at(7), Some(false));
        assert_eq!(p.eval_at(ZONE_BLOCK + 1), None, "NULL row is UNKNOWN");
        assert!(!p.holds_at(ZONE_BLOCK + 1));
    }

    #[test]
    fn nan_blocks_are_never_all_true_for_ordered_ops() {
        let values = vec![Some(1.0f64), Some(f64::NAN), Some(3.0)];
        let mut col = Column::from_f64(&values, NullKind::Uncompressed);
        col.build_zone_map();
        let lt: ScanPred<'_> = CPredG::CmpF64 {
            op: CmpOp::Lt,
            lhs: F64Operand::F64Slot(ScanOperand::new(&col)),
            rhs: F64Operand::Const(10.0),
        };
        // Every non-NaN value is < 10, but the NaN row is not.
        assert_eq!(lt.prune(0), BlockVerdict::Mixed);
        assert_eq!(lt.eval_at(1), Some(false), "NaN fails ordered comparisons");
        // <> matches NaN rows, so AllFalse must not fire either way.
        let ne: ScanPred<'_> = CPredG::CmpF64 {
            op: CmpOp::Ne,
            lhs: F64Operand::F64Slot(ScanOperand::new(&col)),
            rhs: F64Operand::Const(7.0),
        };
        assert_eq!(ne.prune(0), BlockVerdict::AllTrue, "all values differ from 7, NaN included");
        let eq_outside: ScanPred<'_> = CPredG::CmpF64 {
            op: CmpOp::Eq,
            lhs: F64Operand::F64Slot(ScanOperand::new(&col)),
            rhs: F64Operand::Const(99.0),
        };
        assert_eq!(eq_outside.prune(0), BlockVerdict::AllFalse);
    }

    #[test]
    fn nan_constant_and_all_nan_blocks() {
        // Regression: `col <> NaN` is TRUE for every row (IEEE 754:
        // `x != NaN` always holds), including over an all-NaN block — the
        // pruner must never report AllFalse for it.
        let mut all_nan =
            Column::from_f64(&[Some(f64::NAN), Some(f64::NAN)], NullKind::Uncompressed);
        all_nan.build_zone_map();
        fn ne_nan(c: &Column) -> ScanPred<'_> {
            CPredG::CmpF64 {
                op: CmpOp::Ne,
                lhs: F64Operand::F64Slot(ScanOperand::new(c)),
                rhs: F64Operand::Const(f64::NAN),
            }
        }
        assert_eq!(ne_nan(&all_nan).eval_at(0), Some(true));
        assert_eq!(ne_nan(&all_nan).prune(0), BlockVerdict::AllTrue);
        let mut mixed = Column::from_f64(&[Some(1.0), Some(f64::NAN)], NullKind::Uncompressed);
        mixed.build_zone_map();
        assert_ne!(ne_nan(&mixed).prune(0), BlockVerdict::AllFalse);
        // Other comparisons with a NaN constant are false for every row;
        // the pruner may only say Mixed (never AllTrue).
        let lt_nan: ScanPred<'_> = CPredG::CmpF64 {
            op: CmpOp::Lt,
            lhs: F64Operand::F64Slot(ScanOperand::new(&mixed)),
            rhs: F64Operand::Const(f64::NAN),
        };
        assert_eq!(lt_nan.eval_at(0), Some(false));
        assert_ne!(lt_nan.prune(0), BlockVerdict::AllTrue);
    }

    #[test]
    fn verdict_combinators() {
        use BlockVerdict::*;
        assert_eq!(AllTrue.and(AllTrue), AllTrue);
        assert_eq!(AllTrue.and(Mixed), Mixed);
        assert_eq!(Mixed.and(AllFalse), AllFalse);
        // NOT: only AllTrue inverts (AllFalse may hide UNKNOWN rows).
        let col = zoned_column();
        let inner: ScanPred<'_> = CPredG::CmpI64 {
            op: CmpOp::Ge,
            lhs: I64Operand::Slot(ScanOperand::new(&col)),
            rhs: I64Operand::Const(0),
        };
        assert_eq!(inner.prune(0), AllTrue);
        let not = CPredG::Not(Box::new(inner));
        assert_eq!(not.prune(0), AllFalse);
        // NOT over the all-NULL block: rows are UNKNOWN, negation is too.
        assert_eq!(not.prune(1), Mixed);
    }
}
