//! Mutation suite for the plan verifier: seed structurally-corrupted
//! plans and assert each one is rejected with a structured `Error::Plan`
//! naming the violated rule.
//!
//! Every mutation starts from a plan the optimizer actually emitted (so
//! the baseline verifies clean), applies exactly one corruption of the
//! kind a planner or optimizer bug would introduce, and checks the
//! verifier's `[rule]` tag plus a distinctive fragment of the message.
//! Together with `verifier_conformance.rs` in the workloads crate (every
//! emitted plan accepted) this pins the verifier from both sides.

use gfcl_common::{DataType, Error, Value};
use gfcl_core::plan::{LogicalPlan, PlanExpr, PlanScalar, PlanStep};
use gfcl_core::query::{and, col, eq, gt, lit, PatternQuery, Scalar};
use gfcl_core::{plan_query, plan_template, verify_plan};
use gfcl_storage::{Catalog, ColumnarGraph, RawGraph, StorageConfig};

fn catalog() -> Catalog {
    ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap().catalog().clone()
}

/// `MATCH (a:PERSON)-[:FOLLOWS]->(b:PERSON) WHERE a.age > 30 AND
/// b.age > 25 RETURN a.name, b.name` — exercises a pushed scan predicate,
/// a list extend, property reads, a post-extend filter and a projection.
fn base_plan(cat: &Catalog) -> LogicalPlan {
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .filter(and(vec![gt(col("a", "age"), lit(30)), gt(col("b", "age"), lit(25))]))
        .returns(&[("a", "name"), ("b", "name")])
        .build();
    plan_query(&q, cat).expect("base query plans")
}

/// Two list extends from the scanned node: the groups of `b` and `c` are
/// both unflat when the final filter runs. The filter itself touches only
/// `b` (legal); the unflat-span mutation widens it to span both groups.
fn two_branch_plan(cat: &Catalog) -> LogicalPlan {
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .node("c", "PERSON")
        .edge("e1", "FOLLOWS", "a", "b")
        .edge("e2", "FOLLOWS", "a", "c")
        .start_at("a")
        .filter(gt(col("b", "age"), lit(25)))
        .returns_sum("c", "age")
        .build();
    plan_query(&q, cat).expect("two-branch query plans")
}

/// A plan whose predicate (`a.age > 30` over the scanned node only) the
/// planner pushed into the scan step.
fn pushed_plan(cat: &Catalog) -> LogicalPlan {
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .start_at("a")
        .filter(gt(col("a", "age"), lit(30)))
        .returns_count()
        .build();
    let p = plan_query(&q, cat).expect("pushable query plans");
    match &p.steps[0] {
        PlanStep::ScanAll { pushed, .. } if !pushed.is_empty() => p,
        s => panic!("expected a scan with pushed predicates, got {s:?}"),
    }
}

/// Index of the named slot in the plan's slot table.
fn slot_named(p: &LogicalPlan, name: &str) -> usize {
    p.slots.iter().position(|s| s.name == name).unwrap_or_else(|| panic!("no slot {name}"))
}

/// Apply `mutate` to a fresh base plan and assert the verifier rejects it
/// with the expected rule tag and message fragment.
#[track_caller]
fn assert_rejected(
    plan: LogicalPlan,
    cat: &Catalog,
    mutate: impl FnOnce(&mut LogicalPlan),
    rule: &str,
    fragment: &str,
) {
    let mut p = plan;
    verify_plan(&p, cat).expect("uncorrupted plan must verify");
    mutate(&mut p);
    match verify_plan(&p, cat) {
        Ok(r) => panic!("corrupted plan passed {} checks; expected [{rule}]", r.checks),
        Err(Error::Plan(msg)) => {
            assert!(msg.contains(&format!("[{rule}]")), "expected rule [{rule}], got: {msg}");
            assert!(msg.contains(fragment), "expected fragment {fragment:?} in: {msg}");
        }
        Err(e) => panic!("expected Error::Plan, got {e:?}"),
    }
}

/// Position of the first `Filter` step at or after `from`.
fn filter_at(p: &LogicalPlan, from: usize) -> usize {
    (from..p.steps.len())
        .find(|&i| matches!(p.steps[i], PlanStep::Filter { .. }))
        .expect("plan has a filter step")
}

#[test]
fn rejects_dropped_property_definition() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            // Drop the NodeProp step feeding the post-extend filter: the
            // filter then reads a slot nothing fills.
            let f = filter_at(p, 0);
            let slot = match &p.steps[f] {
                PlanStep::Filter { expr } => expr.slots()[0],
                _ => unreachable!(),
            };
            let def = p
                .steps
                .iter()
                .position(|s| matches!(s, PlanStep::NodeProp { slot: sl, .. } if *sl == slot))
                .expect("filter slot has a defining step");
            p.steps.remove(def);
            p.step_cards.remove(def);
        },
        "def-before-use",
        "before any property step fills it",
    );
}

#[test]
fn rejects_slot_dtype_desync() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| p.slots[0].dtype = DataType::Bool,
        "slot-schema",
        "declared Bool",
    );
}

#[test]
fn rejects_filter_spanning_two_unflat_groups() {
    let cat = catalog();
    assert_rejected(
        two_branch_plan(&cat),
        &cat,
        |p| {
            // Widen the b-only filter to also constrain c.age and move it
            // to the end of the plan (after c.age is filled): the
            // combined predicate spans the two unflat branch groups.
            let c_age = slot_named(p, "c.age");
            let f = filter_at(p, 0);
            let orig = match p.steps.remove(f) {
                PlanStep::Filter { expr } => expr,
                _ => unreachable!(),
            };
            let card = p.step_cards.remove(f);
            p.steps.push(PlanStep::Filter {
                expr: PlanExpr::And(vec![
                    orig,
                    PlanExpr::Cmp {
                        op: gfcl_core::query::CmpOp::Gt,
                        lhs: PlanScalar::Slot(c_age),
                        rhs: PlanScalar::Const(Value::Int64(0)),
                    },
                ]),
            });
            p.step_cards.push(card);
        },
        "unflat-span",
        "spans 2 unflat list groups",
    );
}

#[test]
fn rejects_pushed_predicate_on_non_scan_node() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            // Push a predicate over b (not the scanned a) into the scan.
            let b_age = slot_named(p, "b.age");
            match &mut p.steps[0] {
                PlanStep::ScanAll { pushed, .. } => pushed.push(PlanExpr::Cmp {
                    op: gfcl_core::query::CmpOp::Gt,
                    lhs: PlanScalar::Slot(b_age),
                    rhs: PlanScalar::Const(Value::Int64(25)),
                }),
                _ => unreachable!(),
            }
        },
        "pushed-scan-only",
        "properties of the scanned node",
    );
}

#[test]
fn rejects_slot_to_slot_pushed_predicate() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            // A pushed predicate comparing two slots — both of the
            // scanned node, but only comparisons against constants are
            // pushed.
            let a_age = slot_named(p, "a.age");
            match &mut p.steps[0] {
                PlanStep::ScanAll { pushed, .. } => {
                    pushed.push(PlanExpr::Cmp {
                        op: gfcl_core::query::CmpOp::Lt,
                        lhs: PlanScalar::Slot(a_age),
                        rhs: PlanScalar::Slot(a_age),
                    });
                }
                _ => unreachable!(),
            }
        },
        "pushed-scan-only",
        "against constants only",
    );
}

#[test]
fn rejects_step_cards_length_mismatch() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            p.step_cards.pop();
        },
        "card-bookkeeping",
        "must stay parallel",
    );
}

#[test]
fn rejects_non_finite_estimate() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| p.step_cards[0] = Some(f64::NAN),
        "card-bookkeeping",
        "estimate",
    );
}

#[test]
fn rejects_out_of_range_predicate_slot() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            let f = filter_at(p, 0);
            p.steps[f] = PlanStep::Filter {
                expr: PlanExpr::Cmp {
                    op: gfcl_core::query::CmpOp::Gt,
                    lhs: PlanScalar::Slot(99),
                    rhs: PlanScalar::Const(Value::Int64(0)),
                },
            };
        },
        "index-range",
        "slot $99 exceeds the slot table",
    );
}

#[test]
fn rejects_extend_from_unbound_node() {
    let cat = catalog();
    // Three-node chain a->b->c: swapping the two extends makes the first
    // one traverse from the still-unbound b.
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .node("c", "PERSON")
        .edge("e1", "FOLLOWS", "a", "b")
        .edge("e2", "FOLLOWS", "b", "c")
        .edge_order(vec![0, 1])
        .returns_count()
        .build();
    let plan = plan_query(&q, &cat).expect("chain query plans");
    assert_rejected(
        plan,
        &cat,
        |p| {
            let extends: Vec<usize> = (0..p.steps.len())
                .filter(|&i| matches!(p.steps[i], PlanStep::Extend { .. }))
                .collect();
            assert_eq!(extends.len(), 2);
            p.steps.swap(extends[0], extends[1]);
        },
        "def-before-use",
        "extends from unbound node",
    );
}

#[test]
fn rejects_second_scan() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            let scan = p.steps[0].clone();
            let card = p.step_cards[0];
            p.steps.push(scan);
            p.step_cards.push(card);
        },
        "scan-first",
        "exactly one scan group",
    );
}

#[test]
fn rejects_out_of_range_order_by_column() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| p.order_by = vec![(99, false)],
        "sink-shape",
        "ORDER BY column 99 is out of range",
    );
}

#[test]
fn rejects_single_flag_contradicting_catalog() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            for s in &mut p.steps {
                if let PlanStep::Extend { single, .. } = s {
                    *single = !*single;
                }
            }
        },
        "extend-schema",
        "contradicts catalog",
    );
}

#[test]
fn rejects_header_arity_mismatch() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| p.header = p.header.iter().cloned().chain(["phantom".to_owned()]).collect(),
        "sink-shape",
        "header has 3 columns",
    );
}

#[test]
fn rejects_incomparable_comparison_types() {
    let cat = catalog();
    assert_rejected(
        pushed_plan(&cat),
        &cat,
        |p| {
            // Turn the planner-pushed `a.age > 30` into `a.age > true`.
            match &mut p.steps[0] {
                PlanStep::ScanAll { pushed, .. } => match &mut pushed[0] {
                    PlanExpr::Cmp { rhs, .. } => *rhs = PlanScalar::Const(Value::Bool(true)),
                    _ => unreachable!(),
                },
                _ => unreachable!(),
            }
        },
        "expr-type",
        "incomparable types",
    );
}

#[test]
fn rejects_edge_endpoint_outside_node_table() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| p.edges[0].to = 99,
        "index-range",
        "exceed the node table",
    );
}

#[test]
fn rejects_unmarked_projection_slot() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            for s in &mut p.slots {
                s.for_return = false;
            }
        },
        "sink-shape",
        "not marked for_return",
    );
}

#[test]
fn rejects_doubly_filled_slot() {
    let cat = catalog();
    assert_rejected(
        base_plan(&cat),
        &cat,
        |p| {
            let def = p
                .steps
                .iter()
                .position(|s| matches!(s, PlanStep::NodeProp { .. }))
                .expect("plan reads a node property");
            let dup = p.steps[def].clone();
            let card = p.step_cards[def];
            p.steps.insert(def + 1, dup);
            p.step_cards.insert(def + 1, card);
        },
        "def-before-use",
        "filled twice",
    );
}

/// A template plan: `MATCH (a:PERSON)-[e:FOLLOWS]->(b:PERSON) WHERE
/// b.name = ?0 RETURN count(*)`, parameter 0 a string.
fn template_plan(cat: &Catalog) -> LogicalPlan {
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .node("b", "PERSON")
        .edge("e", "FOLLOWS", "a", "b")
        .filter(eq(col("b", "name"), Scalar::Param(0)))
        .returns_count()
        .build();
    plan_template(&q, cat, &[DataType::String]).expect("template plans")
}

/// The first parameter operand of any predicate, pushed or filtered.
fn first_param(p: &mut LogicalPlan) -> &mut PlanScalar {
    fn find(e: &mut PlanExpr) -> Option<&mut PlanScalar> {
        match e {
            PlanExpr::Cmp { lhs, rhs, .. } => {
                [lhs, rhs].into_iter().find(|s| matches!(s, PlanScalar::Param(_)))
            }
            PlanExpr::And(es) | PlanExpr::Or(es) => es.iter_mut().find_map(find),
            PlanExpr::Not(inner) => find(inner),
            PlanExpr::StrMatch { .. } | PlanExpr::InSet { .. } => None,
        }
    }
    p.steps
        .iter_mut()
        .find_map(|s| match s {
            PlanStep::Filter { expr } => find(expr),
            PlanStep::ScanAll { pushed, .. } => pushed.iter_mut().find_map(find),
            _ => None,
        })
        .expect("the template compares against a parameter")
}

#[test]
fn rejects_parameter_index_past_the_template() {
    let cat = catalog();
    assert_rejected(
        template_plan(&cat),
        &cat,
        |p| *first_param(p) = PlanScalar::Param(3),
        "index-range",
        "parameter ?3 exceeds the template's 1 parameter(s)",
    );
}

#[test]
fn rejects_parameter_of_the_wrong_type() {
    let cat = catalog();
    assert_rejected(
        template_plan(&cat),
        &cat,
        |p| p.params[0] = DataType::Int64,
        "expr-type",
        "incomparable types String and Int64",
    );
}

#[test]
fn rejects_primary_key_seek_by_a_non_integer_parameter() {
    let mut cat = catalog();
    cat.set_primary_key(0, "age").unwrap();
    let q = PatternQuery::builder()
        .node("a", "PERSON")
        .filter(eq(col("a", "age"), Scalar::Param(0)))
        .returns_count()
        .build();
    let plan = plan_template(&q, &cat, &[DataType::Int64]).expect("template plans");
    assert!(matches!(plan.steps[0], PlanStep::ScanPk { key: PlanScalar::Param(0), .. }));
    assert_rejected(
        plan,
        &cat,
        |p| p.params[0] = DataType::String,
        "expr-type",
        "seeks by parameter ?0 of type String",
    );
}

/// LDBC IC05 — forums of friends-of-friends joined recently, and their
/// posts: the planner does not count its tail `co` extend, because the
/// sink returns `f.title` from that extend's source group.
#[test]
fn rejects_counting_an_extend_whose_source_the_sink_reads() {
    let raw = gfcl_datagen::generate_social(gfcl_datagen::SocialParams::scale(40));
    let cat = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap().catalog().clone();
    let q = PatternQuery::builder()
        .node("p1", "Person")
        .node("p2", "Person")
        .node("p3", "Person")
        .node("f", "Forum")
        .node("pst", "Post")
        .edge("k1", "knows", "p1", "p2")
        .edge("k2", "knows", "p2", "p3")
        .edge("hm", "hasMember", "f", "p3")
        .edge("co", "containerOf", "f", "pst")
        .filter(eq(col("p1", "id"), lit(20i64)))
        .filter(gt(col("hm", "date"), gfcl_core::query::lit_date(1_267_302_820)))
        .returns(&[("f", "title")])
        .build();
    let plan = plan_query(&q, &cat).expect("IC05 plans");
    let co = plan
        .steps
        .iter()
        .position(|s| matches!(s, PlanStep::Extend { edge: 3, counted: false, .. }))
        .expect("IC05 extends along co, uncounted");
    assert_rejected(
        plan,
        &cat,
        |p| {
            if let PlanStep::Extend { counted, .. } = &mut p.steps[co] {
                *counted = true;
            }
        },
        "counted-extend",
        "sink reads slot",
    );
}
