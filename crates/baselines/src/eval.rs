//! Value-at-a-time predicate evaluation for the baseline engines.
//!
//! Unlike the LBP's compiled predicates (which probe dictionary-code
//! bitmaps), the Volcano and relational baselines evaluate expressions over
//! materialized [`Value`]s — including real string comparisons — exactly as
//! a row-oriented interpreter would. Three-valued logic matches the LBP.

use gfcl_common::Value;
use gfcl_core::plan::{PlanExpr, PlanScalar, SlotDef, SlotId, SlotSource};
use gfcl_core::query::{CmpOp, StrOp};

/// `slot -> property index` of pattern node `node`, for resolving
/// pushed-down scan predicates against storage (`usize::MAX` for slots of
/// other variables, which pushed predicates never touch). Shared by the
/// Volcano and relational scans so their slot resolution cannot diverge.
pub fn scan_prop_map(slots: &[SlotDef], node: usize) -> Vec<usize> {
    slots
        .iter()
        .map(|def| match def.source {
            SlotSource::NodeProp { node: n, prop } if n == node => prop,
            _ => usize::MAX,
        })
        .collect()
}

/// Evaluate `expr` with slot values provided by `slot`. `None` = UNKNOWN.
pub fn eval_expr(expr: &PlanExpr, slot: &impl Fn(SlotId) -> Value) -> Option<bool> {
    match expr {
        PlanExpr::Cmp { op, lhs, rhs } => {
            let a = scalar(lhs, slot);
            let b = scalar(rhs, slot);
            let ord = a.compare(&b)?;
            Some(cmp_holds(*op, ord))
        }
        PlanExpr::StrMatch { op, slot: s, pattern } => {
            let v = slot(*s);
            let text = v.as_str()?;
            Some(match op {
                StrOp::Contains => text.contains(pattern.as_str()),
                StrOp::StartsWith => text.starts_with(pattern.as_str()),
                StrOp::EndsWith => text.ends_with(pattern.as_str()),
            })
        }
        PlanExpr::InSet { slot: s, values } => {
            let v = slot(*s);
            if v.is_null() {
                return None;
            }
            Some(values.iter().any(|k| v.compare(k) == Some(std::cmp::Ordering::Equal)))
        }
        PlanExpr::And(es) => {
            let mut unknown = false;
            for e in es {
                match eval_expr(e, slot) {
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
        PlanExpr::Or(es) => {
            let mut unknown = false;
            for e in es {
                match eval_expr(e, slot) {
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
        PlanExpr::Not(e) => eval_expr(e, slot).map(|b| !b),
    }
}

/// TRUE-only convenience.
pub fn holds(expr: &PlanExpr, slot: &impl Fn(SlotId) -> Value) -> bool {
    eval_expr(expr, slot) == Some(true)
}

/// The baselines run literal-inlined plans only (`require_literals` is
/// checked before any row is read), so a parameter never reaches here.
fn scalar(s: &PlanScalar, slot: &impl Fn(SlotId) -> Value) -> Value {
    match s {
        PlanScalar::Slot(i) => slot(*i),
        PlanScalar::Const(c) => c.clone(),
        PlanScalar::Param(_) => Value::Null,
    }
}

fn cmp_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
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

    fn slots(vals: Vec<Value>) -> impl Fn(SlotId) -> Value {
        move |i| vals[i].clone()
    }

    #[test]
    fn cmp_and_strings() {
        let s = slots(vec![Value::Int64(5), Value::String("production company".into())]);
        let gt = PlanExpr::Cmp {
            op: CmpOp::Gt,
            lhs: PlanScalar::Slot(0),
            rhs: PlanScalar::Const(Value::Int64(3)),
        };
        assert_eq!(eval_expr(&gt, &s), Some(true));
        let m = PlanExpr::StrMatch { op: StrOp::Contains, slot: 1, pattern: "duction".into() };
        assert_eq!(eval_expr(&m, &s), Some(true));
        let m = PlanExpr::StrMatch { op: StrOp::StartsWith, slot: 1, pattern: "company".into() };
        assert_eq!(eval_expr(&m, &s), Some(false));
    }

    #[test]
    fn null_propagates_as_unknown() {
        let s = slots(vec![Value::Null]);
        let e = PlanExpr::Cmp {
            op: CmpOp::Eq,
            lhs: PlanScalar::Slot(0),
            rhs: PlanScalar::Const(Value::Int64(0)),
        };
        assert_eq!(eval_expr(&e, &s), None);
        assert!(!holds(&e, &s));
        let in_set = PlanExpr::InSet { slot: 0, values: vec![Value::Int64(1)] };
        assert_eq!(eval_expr(&in_set, &s), None);
    }

    #[test]
    fn in_set_compares_values() {
        let s = slots(vec![Value::String("follows".into())]);
        let e = PlanExpr::InSet {
            slot: 0,
            values: vec![Value::String("follows".into()), Value::String("featured".into())],
        };
        assert_eq!(eval_expr(&e, &s), Some(true));
    }
}
