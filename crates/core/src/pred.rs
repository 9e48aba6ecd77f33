//! Compiled vectorized predicates.
//!
//! [`PlanExpr`]s are compiled once per query execution into [`CPred`]s
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
//! One compiler ([`compile_pred`]) and one operand resolution: every
//! operand is a block of a [`ListGroup`] ([`VecRef`]). The `Filter`
//! operator evaluates over the chunk's vectors; a scan with pushed-down
//! predicates first reads each operand column into a block of its own, a
//! zone block at a time, and evaluates over that — so pushdown can never
//! drift from the in-pipeline filter. Scan predicates additionally support
//! **zone-map pruning** ([`CPred::prune`]): a per-block verdict from the
//! operand columns' [`gfcl_columnar::ZoneMap`]s that lets the scan skip
//! whole blocks without reading a single value.
//!
//! NULL semantics are SQL's three-valued logic: comparisons with NULL are
//! UNKNOWN, and only tuples whose predicate is TRUE survive.

use gfcl_columnar::{Bitmap, Column, Dictionary, ZoneInfo};

use gfcl_common::{DataType, Error, Result, Value};
use gfcl_storage::StrExt;

use crate::chunk::{ListGroup, ValueVector, VecRef};
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

/// An i64 operand: a block or a constant.
#[derive(Debug, Clone, Copy)]
pub enum I64Operand {
    Slot(VecRef),
    Const(i64),
}

/// An f64 operand, possibly promoting an integer block.
#[derive(Debug, Clone, Copy)]
pub enum F64Operand {
    F64Slot(VecRef),
    I64Slot(VecRef),
    Const(f64),
}

/// A compiled predicate over blocks of list groups.
#[derive(Debug, Clone)]
pub enum CPred {
    Const(bool),
    /// UNKNOWN for every row (a comparison with a literal NULL).
    Unknown,
    CmpI64 {
        op: CmpOp,
        lhs: I64Operand,
        rhs: I64Operand,
    },
    CmpF64 {
        op: CmpOp,
        lhs: F64Operand,
        rhs: F64Operand,
    },
    BoolEq {
        slot: VecRef,
        expected: bool,
    },
    /// String predicate pre-evaluated over the dictionary: true iff the
    /// row's code is set in the bitmap.
    CodeIn {
        slot: VecRef,
        set: Bitmap,
    },
    I64In {
        slot: VecRef,
        set: Vec<i64>,
    },
    And(Vec<CPred>),
    Or(Vec<CPred>),
    Not(Box<CPred>),
}

/// Evaluation position: the target group is indexed by `pos`; every other
/// (flat) group contributes the value at its `cur_idx`.
pub struct EvalCtx<'c> {
    pub groups: &'c [ListGroup],
    /// Group whose positions are being scanned (`usize::MAX` = all flat).
    pub target: usize,
    pub pos: usize,
}

impl EvalCtx<'_> {
    /// The vector `r` names and the index of this position in it.
    #[inline]
    fn at(&self, r: VecRef) -> (&ValueVector, usize) {
        let g = &self.groups[r.group];
        let idx = if r.group == self.target {
            self.pos
        } else {
            debug_assert!(g.is_flat(), "non-target group must be flattened");
            g.cur_idx as usize
        };
        (&g.vectors[r.vec], idx)
    }

    #[inline]
    fn i64(&self, r: VecRef) -> Option<i64> {
        match self.at(r) {
            (ValueVector::I64 { vals, valid, .. }, i) => valid[i].then(|| vals[i]),
            _ => None,
        }
    }

    #[inline]
    fn f64(&self, r: VecRef) -> Option<f64> {
        match self.at(r) {
            (ValueVector::F64 { vals, valid }, i) => valid[i].then(|| vals[i]),
            _ => None,
        }
    }

    #[inline]
    fn bool(&self, r: VecRef) -> Option<bool> {
        match self.at(r) {
            (ValueVector::Bool { vals, valid }, i) => valid[i].then(|| vals[i]),
            _ => None,
        }
    }

    #[inline]
    fn code(&self, r: VecRef) -> Option<u64> {
        match self.at(r) {
            (ValueVector::Code { vals, valid }, i) => valid[i].then(|| vals[i]),
            _ => None,
        }
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

impl CPred {
    /// Call `f` on every operand the predicate touches — the scan uses this
    /// to skip-account a pruned block's pages, the filter to find the list
    /// group it evaluates over.
    pub fn for_each_operand(&self, f: &mut impl FnMut(VecRef)) {
        match self {
            CPred::Const(_) | CPred::Unknown => {}
            CPred::CmpI64 { lhs, rhs, .. } => {
                for o in [lhs, rhs] {
                    if let I64Operand::Slot(r) = o {
                        f(*r);
                    }
                }
            }
            CPred::CmpF64 { lhs, rhs, .. } => {
                for o in [lhs, rhs] {
                    match o {
                        F64Operand::F64Slot(r) | F64Operand::I64Slot(r) => f(*r),
                        F64Operand::Const(_) => {}
                    }
                }
            }
            CPred::BoolEq { slot, .. } | CPred::CodeIn { slot, .. } | CPred::I64In { slot, .. } => {
                f(*slot)
            }
            CPred::And(es) | CPred::Or(es) => es.iter().for_each(|e| e.for_each_operand(f)),
            CPred::Not(e) => e.for_each_operand(f),
        }
    }

    /// Three-valued evaluation at one position. `None` = UNKNOWN.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Option<bool> {
        match self {
            CPred::Const(b) => Some(*b),
            CPred::Unknown => None,
            CPred::CmpI64 { op, lhs, rhs } => {
                let read = |o: &I64Operand| match o {
                    I64Operand::Slot(r) => ctx.i64(*r),
                    I64Operand::Const(k) => Some(*k),
                };
                Some(cmp_holds(*op, read(lhs)?, read(rhs)?))
            }
            CPred::CmpF64 { op, lhs, rhs } => {
                let read = |o: &F64Operand| match o {
                    F64Operand::F64Slot(r) => ctx.f64(*r),
                    F64Operand::I64Slot(r) => ctx.i64(*r).map(|v| v as f64),
                    F64Operand::Const(k) => Some(*k),
                };
                Some(cmp_holds(*op, read(lhs)?, read(rhs)?))
            }
            CPred::BoolEq { slot, expected } => Some(ctx.bool(*slot)? == *expected),
            CPred::CodeIn { slot, set } => {
                // A code past the bitmap cannot be in the set. (Delta string
                // extensions grow the code space; predicates compiled before
                // the extension existed stay sound.)
                let c = ctx.code(*slot)? as usize;
                Some(c < set.len() && set.get(c))
            }
            CPred::I64In { slot, set } => {
                let v = ctx.i64(*slot)?;
                Some(set.binary_search(&v).is_ok())
            }
            CPred::And(es) => {
                let mut unknown = false;
                for e in es {
                    match e.eval(ctx) {
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
            CPred::Or(es) => {
                let mut unknown = false;
                for e in es {
                    match e.eval(ctx) {
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
            CPred::Not(e) => e.eval(ctx).map(|b| !b),
        }
    }

    /// TRUE-only convenience: UNKNOWN filters the tuple out.
    #[inline]
    pub fn holds(&self, ctx: &EvalCtx<'_>) -> bool {
        self.eval(ctx) == Some(true)
    }

    /// AND the predicate into `rows`, the selection over the positions of
    /// `groups[target]`: a selected position stays selected only where the
    /// predicate is TRUE, and an unselected one is never evaluated. The one
    /// block evaluation `Filter` and the pushed-down scan share.
    pub fn select(&self, groups: &[ListGroup], target: usize, rows: &mut [bool]) {
        for (pos, keep) in rows.iter_mut().enumerate() {
            *keep = *keep && self.holds(&EvalCtx { groups, target, pos });
        }
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

impl CPred {
    /// Consult the operand columns' zone maps for a verdict over zone block
    /// `b` (positions `[b * ZONE_BLOCK, (b+1) * ZONE_BLOCK)`); operand
    /// `VecRef { vec: k, .. }` reads column `cols[k]`. Conservative: any
    /// missing zone map or inconclusive summary yields
    /// [`BlockVerdict::Mixed`].
    pub fn prune(&self, cols: &[&Column], b: usize) -> BlockVerdict {
        use BlockVerdict::*;
        match self {
            CPred::Const(true) => AllTrue,
            CPred::Const(false) | CPred::Unknown => AllFalse,
            CPred::CmpI64 { op, lhs, rhs } => match (lhs, rhs) {
                (I64Operand::Slot(c), I64Operand::Const(k)) => prune_i64(cols[c.vec], b, *op, *k),
                (I64Operand::Const(k), I64Operand::Slot(c)) => {
                    prune_i64(cols[c.vec], b, op.flip(), *k)
                }
                (I64Operand::Const(a), I64Operand::Const(k)) => {
                    if cmp_holds(*op, *a, *k) {
                        AllTrue
                    } else {
                        AllFalse
                    }
                }
                (I64Operand::Slot(_), I64Operand::Slot(_)) => Mixed,
            },
            CPred::CmpF64 { op, lhs, rhs } => {
                let side = |o: &F64Operand| match o {
                    F64Operand::F64Slot(c) => Some((cols[c.vec], false)),
                    F64Operand::I64Slot(c) => Some((cols[c.vec], true)),
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
            CPred::BoolEq { slot, expected } => {
                let Some(e) = zone_entry(cols[slot.vec], b) else { return Mixed };
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
            CPred::CodeIn { slot, set } => {
                let Some(e) = zone_entry(cols[slot.vec], b) else { return Mixed };
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
            CPred::I64In { slot, set } => {
                let Some(e) = zone_entry(cols[slot.vec], b) else { return Mixed };
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
            CPred::And(es) => {
                let mut v = AllTrue;
                for e in es {
                    v = v.and(e.prune(cols, b));
                    if v == AllFalse {
                        return AllFalse;
                    }
                }
                v
            }
            CPred::Or(es) => {
                let mut all_false = true;
                for e in es {
                    match e.prune(cols, b) {
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
            CPred::Not(e) => match e.prune(cols, b) {
                AllTrue => AllFalse,
                _ => Mixed,
            },
        }
    }
}

// ---- Compilation -----------------------------------------------------------

/// Compile a resolved plan expression. `slot_refs[slot]` locates each
/// slot's block — a chunk vector for the `Filter` operator, a vector of the
/// operand block for a pushed-down scan; `col_of(slot)` is the storage
/// column it reads (for dictionary pre-evaluation). Parameter `i` compiles
/// as the constant `params[i]`.
pub fn compile_pred<'g>(
    expr: &PlanExpr,
    slot_defs: &[SlotDef],
    slot_refs: &[VecRef],
    col_of: impl Fn(SlotId) -> SlotCol<'g>,
    params: &[Value],
) -> Result<CPred> {
    Compiler { slot_defs, slot_refs, col_of, params }.compile(expr)
}

struct Compiler<'a, C> {
    slot_defs: &'a [SlotDef],
    /// Block of each slot.
    slot_refs: &'a [VecRef],
    /// Backing storage column (dictionary pre-evaluation) of each slot,
    /// plus any delta string extension growing its code space.
    col_of: C,
    /// Values of the plan's parameters, by index.
    params: &'a [Value],
}

/// A comparison operand with any parameter resolved to its value.
enum Operand<'v> {
    Slot(SlotId),
    Const(&'v Value),
}

impl<'g, C: Fn(SlotId) -> SlotCol<'g>> Compiler<'_, C> {
    fn compile(&self, e: &PlanExpr) -> Result<CPred> {
        match e {
            PlanExpr::And(es) => {
                Ok(CPred::And(es.iter().map(|e| self.compile(e)).collect::<Result<_>>()?))
            }
            PlanExpr::Or(es) => {
                Ok(CPred::Or(es.iter().map(|e| self.compile(e)).collect::<Result<_>>()?))
            }
            PlanExpr::Not(inner) => Ok(CPred::Not(Box::new(self.compile(inner)?))),
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
                Ok(CPred::CodeIn { slot: self.slot_refs[*slot], set })
            }
            PlanExpr::InSet { slot, values } => match self.slot_defs[*slot].dtype {
                DataType::String => {
                    let needles: Vec<&str> = values.iter().filter_map(Value::as_str).collect();
                    let set = self.codes_matching(*slot, |s| needles.contains(&s))?;
                    Ok(CPred::CodeIn { slot: self.slot_refs[*slot], set })
                }
                DataType::Int64 | DataType::Date => {
                    let mut set: Vec<i64> = values.iter().filter_map(Value::as_i64).collect();
                    set.sort_unstable();
                    set.dedup();
                    Ok(CPred::I64In { slot: self.slot_refs[*slot], set })
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

    fn compile_cmp(&self, op: CmpOp, lhs: &PlanScalar, rhs: &PlanScalar) -> Result<CPred> {
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
            return Ok(CPred::Unknown);
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
                    Ok(CPred::Const(a.compare(b).map(|o| cmp_holds_ord(op, o)) == Some(true)))
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
                    let p = CPred::BoolEq { slot: self.slot_refs[s], expected };
                    Ok(if op == CmpOp::Ne { CPred::Not(Box::new(p)) } else { p })
                }
                _ => Err(Error::Plan("unsupported boolean comparison".into())),
            };
        }

        // Float if either side is a float; else integer/date.
        let is_float = lt == DataType::Float64 || rt == DataType::Float64;
        if is_float {
            let f_operand = |s: &Operand<'_>| -> Result<F64Operand> {
                Ok(match s {
                    Slot(i) => match self.slot_defs[*i].dtype {
                        DataType::Float64 => F64Operand::F64Slot(self.slot_refs[*i]),
                        _ => F64Operand::I64Slot(self.slot_refs[*i]),
                    },
                    Const(v) => F64Operand::Const(v.as_f64().ok_or_else(|| {
                        Error::TypeMismatch { expected: "numeric".into(), found: v.to_string() }
                    })?),
                })
            };
            return Ok(CPred::CmpF64 { op, lhs: f_operand(&lhs)?, rhs: f_operand(&rhs)? });
        }
        let i_operand = |s: &Operand<'_>| -> Result<I64Operand> {
            Ok(match s {
                Slot(i) => I64Operand::Slot(self.slot_refs[*i]),
                Const(v) => I64Operand::Const(v.as_i64().ok_or_else(|| Error::TypeMismatch {
                    expected: "INT64/DATE".into(),
                    found: v.to_string(),
                })?),
            })
        };
        Ok(CPred::CmpI64 { op, lhs: i_operand(&lhs)?, rhs: i_operand(&rhs)? })
    }

    fn string_cmp(&self, slot: usize, op: CmpOp, konst: &Value) -> Result<CPred> {
        let needle = konst.as_str().ok_or_else(|| Error::TypeMismatch {
            expected: "STRING".into(),
            found: konst.to_string(),
        })?;
        let set = self.codes_matching(slot, |s| cmp_holds_ord(op, s.cmp(needle)))?;
        Ok(CPred::CodeIn { slot: self.slot_refs[slot], set })
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

    /// Operand 0 of a scan's operand block: what a pushed predicate over one
    /// column compiles its slot to.
    const OPERAND: VecRef = VecRef { group: 0, vec: 0 };

    #[test]
    fn i64_comparison_with_nulls() {
        let chunk = chunk_with(vec![5, 10, 0], vec![true, true, false]);
        let p = CPred::CmpI64 {
            op: CmpOp::Gt,
            lhs: I64Operand::Slot(OPERAND),
            rhs: I64Operand::Const(6),
        };
        let at = |pos| p.eval(&EvalCtx { groups: &chunk.groups, target: 0, pos });
        assert_eq!(at(0), Some(false));
        assert_eq!(at(1), Some(true));
        assert_eq!(at(2), None, "NULL comparison is UNKNOWN");
        assert!(!p.holds(&EvalCtx { groups: &chunk.groups, target: 0, pos: 2 }));
    }

    #[test]
    fn three_valued_and_or() {
        let chunk = chunk_with(vec![0], vec![false]); // NULL slot
        let unknown = CPred::CmpI64 {
            op: CmpOp::Eq,
            lhs: I64Operand::Slot(OPERAND),
            rhs: I64Operand::Const(0),
        };
        let t = CPred::Const(true);
        let f = CPred::Const(false);
        let ctx = EvalCtx { groups: &chunk.groups, target: 0, pos: 0 };
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
        let groups = [g0, g1];
        // g1.val > g0.val (flat broadcast of 200)
        let p = CPred::CmpI64 {
            op: CmpOp::Gt,
            lhs: I64Operand::Slot(VecRef { group: 1, vec: 0 }),
            rhs: I64Operand::Slot(VecRef { group: 0, vec: 0 }),
        };
        assert_eq!(p.eval(&EvalCtx { groups: &groups, target: 1, pos: 0 }), Some(false));
        assert_eq!(p.eval(&EvalCtx { groups: &groups, target: 1, pos: 1 }), Some(true));
    }

    #[test]
    fn code_in_bitmap() {
        let mut g = ListGroup::new(1);
        g.reset(3);
        g.vectors[0] = ValueVector::Code { vals: vec![0, 1, 2], valid: vec![true, true, false] };
        let groups = [g];
        let set = Bitmap::from_bools(&[true, false, true]);
        let p = CPred::CodeIn { slot: OPERAND, set };
        let at = |pos| p.eval(&EvalCtx { groups: &groups, target: 0, pos });
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

    fn cmp_i64(op: CmpOp, k: i64) -> CPred {
        CPred::CmpI64 { op, lhs: I64Operand::Slot(OPERAND), rhs: I64Operand::Const(k) }
    }

    fn cmp_f64(op: CmpOp, k: f64) -> CPred {
        CPred::CmpF64 { op, lhs: F64Operand::F64Slot(OPERAND), rhs: F64Operand::Const(k) }
    }

    #[test]
    fn scan_pred_prunes_i64_blocks() {
        let col = zoned_column();
        let cols = [&col];
        let p = cmp_i64(CmpOp::Ge, ZONE_BLOCK as i64);
        // Block 0 holds 0..B: nothing >= B. Block 1 is all-NULL. Block 2
        // holds only 42 < B, so AllFalse there too.
        assert_eq!(p.prune(&cols, 0), BlockVerdict::AllFalse);
        assert_eq!(p.prune(&cols, 1), BlockVerdict::AllFalse, "all-NULL block never matches");
        assert_eq!(p.prune(&cols, 2), BlockVerdict::AllFalse);
        // A predicate satisfied by every row of a NULL-free block.
        let p = cmp_i64(CmpOp::Ge, 0);
        assert_eq!(p.prune(&cols, 0), BlockVerdict::AllTrue);
        assert_eq!(p.prune(&cols, 1), BlockVerdict::AllFalse);
        assert_eq!(p.prune(&cols, 2), BlockVerdict::AllTrue, "single-value block");
        // Straddling the min/max: inconclusive.
        assert_eq!(cmp_i64(CmpOp::Lt, 10).prune(&cols, 0), BlockVerdict::Mixed);
        // Equality on the single-value tail block.
        assert_eq!(cmp_i64(CmpOp::Eq, 42).prune(&cols, 2), BlockVerdict::AllTrue);
        let p = CPred::I64In { slot: OPERAND, set: vec![-5, 42] };
        assert_eq!(p.prune(&cols, 0), BlockVerdict::Mixed, "42 falls inside [0, B)");
        assert_eq!(p.prune(&cols, 2), BlockVerdict::AllTrue);
        let p = CPred::I64In { slot: OPERAND, set: vec![-5] };
        assert_eq!(p.prune(&cols, 0), BlockVerdict::AllFalse);
    }

    /// The operand block a scan reads for rows `[start, end)` of `col`:
    /// one range read.
    fn range_block(col: &Column, start: usize, end: usize) -> ListGroup {
        let mut cur = gfcl_columnar::PageCursor::new();
        let mut block = ListGroup::new(1);
        block.vectors[0] = if col.dtype() == DataType::Float64 {
            let (mut vals, mut valid) = (Vec::new(), Vec::new());
            col.read_f64_range(&mut cur, start, end, &mut vals, &mut valid);
            ValueVector::F64 { vals, valid }
        } else {
            let (mut vals, mut valid) = (Vec::new(), Vec::new());
            col.read_i64_range(&mut cur, start, end, &mut vals, &mut valid);
            ValueVector::I64 { vals, valid, date: false }
        };
        block
    }

    /// `p` at position `pos` of an operand block (three-valued).
    fn eval_at(p: &CPred, block: &ListGroup, pos: usize) -> Option<bool> {
        p.eval(&EvalCtx { groups: std::slice::from_ref(block), target: 0, pos })
    }

    /// The rows of `[start, end)` of `col` the scan keeps under `p`: the
    /// operand block read, every row selected, the predicate ANDed in.
    fn scan_rows(p: &CPred, col: &Column, start: usize, end: usize) -> Vec<bool> {
        let block = range_block(col, start, end);
        let mut rows = vec![true; end - start];
        p.select(std::slice::from_ref(&block), 0, &mut rows);
        rows
    }

    #[test]
    fn scan_pred_eval_matches_column_reads() {
        let col = zoned_column();
        let p = cmp_i64(CmpOp::Lt, 5);
        // Zone block by zone block, as the scan reads them.
        let rows: Vec<bool> = (0..col.len())
            .step_by(ZONE_BLOCK)
            .flat_map(|s| scan_rows(&p, &col, s, (s + ZONE_BLOCK).min(col.len())))
            .collect();
        assert_eq!(rows.len(), col.len());
        for (v, &kept) in rows.iter().enumerate() {
            assert_eq!(kept, col.get_i64(v).is_some_and(|x| x < 5), "row {v}");
        }
        let block = range_block(&col, 0, col.len());
        assert_eq!(eval_at(&p, &block, 3), Some(true));
        assert_eq!(eval_at(&p, &block, 7), Some(false));
        assert_eq!(eval_at(&p, &block, ZONE_BLOCK + 1), None, "NULL row is UNKNOWN");
        assert!(!rows[ZONE_BLOCK + 1]);
        // A row the selection already dropped stays dropped, even where the
        // predicate holds.
        let mut rows = vec![false, true];
        p.select(std::slice::from_ref(&block), 0, &mut rows);
        assert_eq!(rows, [false, true]);
    }

    #[test]
    fn nan_blocks_are_never_all_true_for_ordered_ops() {
        let values = vec![Some(1.0f64), Some(f64::NAN), Some(3.0)];
        let mut col = Column::from_f64(&values, NullKind::Uncompressed);
        col.build_zone_map();
        let cols = [&col];
        let lt = cmp_f64(CmpOp::Lt, 10.0);
        // Every non-NaN value is < 10, but the NaN row is not.
        assert_eq!(lt.prune(&cols, 0), BlockVerdict::Mixed);
        let block = range_block(&col, 0, col.len());
        assert_eq!(eval_at(&lt, &block, 1), Some(false), "NaN fails ordered comparisons");
        assert_eq!(scan_rows(&lt, &col, 0, col.len()), [true, false, true]);
        // <> matches NaN rows, so AllFalse must not fire either way.
        let ne = cmp_f64(CmpOp::Ne, 7.0);
        assert_eq!(
            ne.prune(&cols, 0),
            BlockVerdict::AllTrue,
            "all values differ from 7, NaN included"
        );
        let eq_outside = cmp_f64(CmpOp::Eq, 99.0);
        assert_eq!(eq_outside.prune(&cols, 0), BlockVerdict::AllFalse);
    }

    #[test]
    fn nan_constant_and_all_nan_blocks() {
        // Regression: `col <> NaN` is TRUE for every row (IEEE 754:
        // `x != NaN` always holds), including over an all-NaN block — the
        // pruner must never report AllFalse for it.
        let mut all_nan =
            Column::from_f64(&[Some(f64::NAN), Some(f64::NAN)], NullKind::Uncompressed);
        all_nan.build_zone_map();
        let ne_nan = cmp_f64(CmpOp::Ne, f64::NAN);
        assert_eq!(eval_at(&ne_nan, &range_block(&all_nan, 0, 2), 0), Some(true));
        assert_eq!(ne_nan.prune(&[&all_nan], 0), BlockVerdict::AllTrue);
        let mut mixed = Column::from_f64(&[Some(1.0), Some(f64::NAN)], NullKind::Uncompressed);
        mixed.build_zone_map();
        assert_ne!(ne_nan.prune(&[&mixed], 0), BlockVerdict::AllFalse);
        // Other comparisons with a NaN constant are false for every row;
        // the pruner may only say Mixed (never AllTrue).
        let lt_nan = cmp_f64(CmpOp::Lt, f64::NAN);
        assert_eq!(eval_at(&lt_nan, &range_block(&mixed, 0, 2), 0), Some(false));
        assert_ne!(lt_nan.prune(&[&mixed], 0), BlockVerdict::AllTrue);
    }

    #[test]
    fn verdict_combinators() {
        use BlockVerdict::*;
        assert_eq!(AllTrue.and(AllTrue), AllTrue);
        assert_eq!(AllTrue.and(Mixed), Mixed);
        assert_eq!(Mixed.and(AllFalse), AllFalse);
        // NOT: only AllTrue inverts (AllFalse may hide UNKNOWN rows).
        let col = zoned_column();
        let cols = [&col];
        let inner = cmp_i64(CmpOp::Ge, 0);
        assert_eq!(inner.prune(&cols, 0), AllTrue);
        let not = CPred::Not(Box::new(inner));
        assert_eq!(not.prune(&cols, 0), AllFalse);
        // NOT over the all-NULL block: rows are UNKNOWN, negation is too.
        assert_eq!(not.prune(&cols, 1), Mixed);
    }
}
