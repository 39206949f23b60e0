//! Transformation rules over the logical algebra (§3.1–3.2).
//!
//! "Transformation rules rewrite logical expressions to equivalent logical
//! expressions."  The DISCO-specific rules push operators through the
//! `submit` boundary onto wrappers; they are only applied when the
//! wrapper's capability set accepts the resulting expression ("the
//! transformation rule consults the wrapper interface with a call to the
//! submit-functionality method").
//!
//! Every rule is a pure function `&LogicalExpr -> Option<LogicalExpr>`
//! returning `Some(rewritten)` when it applies.  The optimizer composes
//! them into alternative plans and costs each alternative.

use crate::capability::CapabilitySet;
use crate::implementation::{bound_vars, referenced_vars};
use crate::logical::LogicalExpr;
use crate::scalar::ScalarExpr;

/// Looks up the capability set of a wrapper by name.
pub trait CapabilityLookup {
    /// The capabilities of `wrapper`, or `None` if unknown (treated as
    /// `get`-only).
    fn capabilities(&self, wrapper: &str) -> Option<CapabilitySet>;
}

impl CapabilityLookup for std::collections::BTreeMap<String, CapabilitySet> {
    fn capabilities(&self, wrapper: &str) -> Option<CapabilitySet> {
        self.get(wrapper).cloned()
    }
}

fn caps_of(lookup: &dyn CapabilityLookup, wrapper: &str) -> CapabilitySet {
    lookup
        .capabilities(wrapper)
        .unwrap_or_else(CapabilitySet::get_only)
}

/// R1 — push a filter into a `submit` when the wrapper supports it:
/// `select(p, submit(r, e))  →  submit(r, select(p, e))`.
#[must_use]
pub fn push_filter_into_submit(
    expr: &LogicalExpr,
    lookup: &dyn CapabilityLookup,
) -> Option<LogicalExpr> {
    let LogicalExpr::Filter { input, predicate } = expr else {
        return None;
    };
    let LogicalExpr::Submit {
        repository,
        wrapper,
        extent,
        expr: inner,
    } = input.as_ref()
    else {
        return None;
    };
    let pushed = LogicalExpr::Filter {
        input: inner.clone(),
        predicate: predicate.clone(),
    };
    let caps = caps_of(lookup, wrapper);
    if caps.accepts_named(&pushed, wrapper).is_err() {
        return None;
    }
    Some(LogicalExpr::Submit {
        repository: repository.clone(),
        wrapper: wrapper.clone(),
        extent: extent.clone(),
        expr: Box::new(pushed),
    })
}

/// R2 — push a projection into a `submit` when the wrapper supports it:
/// `project(a…, submit(r, e))  →  submit(r, project(a…, e))`.
#[must_use]
pub fn push_project_into_submit(
    expr: &LogicalExpr,
    lookup: &dyn CapabilityLookup,
) -> Option<LogicalExpr> {
    let LogicalExpr::Project { input, columns } = expr else {
        return None;
    };
    let LogicalExpr::Submit {
        repository,
        wrapper,
        extent,
        expr: inner,
    } = input.as_ref()
    else {
        return None;
    };
    let pushed = LogicalExpr::Project {
        input: inner.clone(),
        columns: columns.clone(),
    };
    let caps = caps_of(lookup, wrapper);
    if caps.accepts_named(&pushed, wrapper).is_err() {
        return None;
    }
    Some(LogicalExpr::Submit {
        repository: repository.clone(),
        wrapper: wrapper.clone(),
        extent: extent.clone(),
        expr: Box::new(pushed),
    })
}

/// R3 — merge two submits to the *same* repository and wrapper into one
/// source-side join (the §3.2 employee/manager example):
/// `join(submit(r,e1), submit(r,e2), on) → submit(r, join(e1, e2, on))`.
#[must_use]
pub fn push_join_into_submit(
    expr: &LogicalExpr,
    lookup: &dyn CapabilityLookup,
) -> Option<LogicalExpr> {
    let LogicalExpr::SourceJoin { left, right, on } = expr else {
        return None;
    };
    let LogicalExpr::Submit {
        repository: lr,
        wrapper: lw,
        extent: le,
        expr: linner,
    } = left.as_ref()
    else {
        return None;
    };
    let LogicalExpr::Submit {
        repository: rr,
        wrapper: rw,
        expr: rinner,
        ..
    } = right.as_ref()
    else {
        return None;
    };
    if lr != rr || lw != rw {
        // The submit operator has RPC semantics: it cannot accept data from
        // another data source, so cross-source joins stay at the mediator.
        return None;
    }
    let pushed = LogicalExpr::SourceJoin {
        left: linner.clone(),
        right: rinner.clone(),
        on: on.clone(),
    };
    let caps = caps_of(lookup, lw);
    if caps.accepts_named(&pushed, lw).is_err() {
        return None;
    }
    Some(LogicalExpr::Submit {
        repository: lr.clone(),
        wrapper: lw.clone(),
        extent: le.clone(),
        expr: Box::new(pushed),
    })
}

/// R4 — distribute `bind` over `union`:
/// `bind(x, union(e1,…)) → union(bind(x,e1),…)`.
#[must_use]
pub fn distribute_bind_over_union(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Bind { var, input } = expr else {
        return None;
    };
    let LogicalExpr::Union(items) = input.as_ref() else {
        return None;
    };
    Some(LogicalExpr::Union(
        items
            .iter()
            .map(|item| LogicalExpr::Bind {
                var: var.clone(),
                input: Box::new(item.clone()),
            })
            .collect(),
    ))
}

/// R5 — distribute a filter over `union`:
/// `select(p, union(e1,…)) → union(select(p,e1),…)`.
#[must_use]
pub fn distribute_filter_over_union(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Filter { input, predicate } = expr else {
        return None;
    };
    let LogicalExpr::Union(items) = input.as_ref() else {
        return None;
    };
    Some(LogicalExpr::Union(
        items
            .iter()
            .map(|item| LogicalExpr::Filter {
                input: Box::new(item.clone()),
                predicate: predicate.clone(),
            })
            .collect(),
    ))
}

/// R6 — distribute a projection (plain or generalized) over `union`.
#[must_use]
pub fn distribute_project_over_union(expr: &LogicalExpr) -> Option<LogicalExpr> {
    match expr {
        LogicalExpr::Project { input, columns } => {
            let LogicalExpr::Union(items) = input.as_ref() else {
                return None;
            };
            Some(LogicalExpr::Union(
                items
                    .iter()
                    .map(|item| LogicalExpr::Project {
                        input: Box::new(item.clone()),
                        columns: columns.clone(),
                    })
                    .collect(),
            ))
        }
        LogicalExpr::MapProject { input, projection } => {
            let LogicalExpr::Union(items) = input.as_ref() else {
                return None;
            };
            Some(LogicalExpr::Union(
                items
                    .iter()
                    .map(|item| LogicalExpr::MapProject {
                        input: Box::new(item.clone()),
                        projection: projection.clone(),
                    })
                    .collect(),
            ))
        }
        _ => None,
    }
}

/// R7 — push a filter through a `bind` when its predicate only references
/// the bound variable:
/// `select(x.a > k, bind(x, e)) → bind(x, select(a > k, e))`.
///
/// The predicate is rewritten from environment form (`Var("x").a`) to
/// source form (`Attr("a")`).
#[must_use]
pub fn push_filter_through_bind(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Filter { input, predicate } = expr else {
        return None;
    };
    let LogicalExpr::Bind { var, input: inner } = input.as_ref() else {
        return None;
    };
    let rewritten = rewrite_env_predicate(predicate, var)?;
    if !rewritten.is_pushable() {
        return None;
    }
    Some(LogicalExpr::Bind {
        var: var.clone(),
        input: Box::new(LogicalExpr::Filter {
            input: inner.clone(),
            predicate: rewritten,
        }),
    })
}

/// R8 — swap a filter below a plain projection when the predicate only
/// uses projected columns:
/// `select(p, project(a…, e)) → project(a…, select(p, e))`.
#[must_use]
pub fn push_filter_below_project(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Filter { input, predicate } = expr else {
        return None;
    };
    let LogicalExpr::Project {
        input: inner,
        columns,
    } = input.as_ref()
    else {
        return None;
    };
    if !predicate
        .referenced_attrs()
        .iter()
        .all(|a| columns.contains(a))
    {
        return None;
    }
    Some(LogicalExpr::Project {
        input: Box::new(LogicalExpr::Filter {
            input: inner.clone(),
            predicate: predicate.clone(),
        }),
        columns: columns.clone(),
    })
}

/// R9 — swap a plain projection below a filter when the predicate only
/// uses projected columns:
/// `project(a…, select(p, e)) → select(p, project(a…, e))`.
///
/// This is the inverse of [`push_filter_below_project`] and is therefore
/// *not* part of [`normalize`]; the optimizer applies it when a wrapper can
/// accept projections but not selections, so that the projection can still
/// reach the `submit`.
#[must_use]
pub fn push_project_below_filter(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Project { input, columns } = expr else {
        return None;
    };
    let LogicalExpr::Filter {
        input: inner,
        predicate,
    } = input.as_ref()
    else {
        return None;
    };
    if !predicate
        .referenced_attrs()
        .iter()
        .all(|a| columns.contains(a))
    {
        return None;
    }
    Some(LogicalExpr::Filter {
        input: Box::new(LogicalExpr::Project {
            input: inner.clone(),
            columns: columns.clone(),
        }),
        predicate: predicate.clone(),
    })
}

/// R10 — flatten nested unions and drop empty data branches:
/// `union(union(a,b), data(), c) → union(a, b, c)`.
#[must_use]
pub fn simplify_union(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Union(items) = expr else {
        return None;
    };
    let mut flat = Vec::new();
    let mut changed = false;
    for item in items {
        match item {
            LogicalExpr::Union(nested) => {
                changed = true;
                flat.extend(nested.iter().cloned());
            }
            LogicalExpr::Data(bag) if bag.is_empty() && items.len() > 1 => {
                changed = true;
            }
            other => flat.push(other.clone()),
        }
    }
    if !changed {
        return None;
    }
    Some(match flat.len() {
        0 => LogicalExpr::Data(disco_value::Bag::new()),
        1 => flat.into_iter().next().expect("one item"),
        _ => LogicalExpr::Union(flat),
    })
}

/// R11 — split a mediator join's predicate into its conjuncts and move
/// each conjunct whose variables are all bound by one input onto that
/// input: `join(l, r, p_l and p_r and p_lr) → join(select(p_l, l),
/// select(p_r, r), p_lr)`.
///
/// A single-variable conjunct moves only when it passes the test a
/// single-variable query's where clause passes ([`rewrite_env_predicate`]
/// and [`ScalarExpr::is_pushable`]), so R5 and R7 then carry it down to
/// each `submit`, where R1 offers it to the wrapper.  A conjunct over
/// several variables of one input lands on a nested join and R12 folds
/// it into that join's predicate.  Conjuncts with an aggregate (a
/// correlated sub-query) or a call, and conjuncts that mention no
/// variable, stay where they are; so do the cross-side conjuncts, which
/// the implementation rules turn into hash keys and residuals.
#[must_use]
pub fn push_conjuncts_below_join(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Join {
        left,
        right,
        predicate: Some(predicate),
    } = expr
    else {
        return None;
    };
    let left_vars = bound_vars(left);
    let right_vars = bound_vars(right);
    let (mut to_left, mut to_right, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    for conjunct in predicate.conjuncts() {
        let vars = referenced_vars(conjunct);
        let movable = !vars.is_empty()
            && !conjunct.has_agg_or_call()
            && match vars.as_slice() {
                [var] => rewrite_env_predicate(conjunct, var).is_some_and(|p| p.is_pushable()),
                _ => true,
            };
        let within = |side: &[String], other: &[String]| {
            vars.iter().all(|v| side.contains(v) && !other.contains(v))
        };
        if movable && within(&left_vars, &right_vars) {
            to_left.push(conjunct.clone());
        } else if movable && within(&right_vars, &left_vars) {
            to_right.push(conjunct.clone());
        } else {
            kept.push(conjunct.clone());
        }
    }
    if to_left.is_empty() && to_right.is_empty() {
        return None;
    }
    let filtered = |input: &LogicalExpr, conjuncts: Vec<ScalarExpr>| {
        ScalarExpr::conjunction(conjuncts)
            .map_or_else(|| input.clone(), |p| input.clone().filter(p))
    };
    Some(LogicalExpr::Join {
        left: Box::new(filtered(left, to_left)),
        right: Box::new(filtered(right, to_right)),
        predicate: ScalarExpr::conjunction(kept),
    })
}

/// R12 — R11's companion: fold a filter over a mediator join into the
/// join's predicate, `select(p, join(l, r, q)) → join(l, r, q and p)`, so
/// R11 can split it further.  This carries the where clause of a
/// left-deep 3+-variable query, which the compiler attaches to the
/// outermost join, down to the inner joins and from there into each
/// `submit`.
#[must_use]
pub fn merge_filter_into_join(expr: &LogicalExpr) -> Option<LogicalExpr> {
    let LogicalExpr::Filter { input, predicate } = expr else {
        return None;
    };
    let LogicalExpr::Join {
        left,
        right,
        predicate: existing,
    } = input.as_ref()
    else {
        return None;
    };
    Some(LogicalExpr::Join {
        left: left.clone(),
        right: right.clone(),
        predicate: ScalarExpr::conjunction(existing.iter().cloned().chain([predicate.clone()])),
    })
}

/// Rewrites an environment-form predicate over a single variable into
/// source form: `Var(var).field → Attr(field)`.  Returns `None` when the
/// predicate mentions any other variable, a bare `Var`, an aggregate or a
/// call.
#[must_use]
pub fn rewrite_env_predicate(predicate: &ScalarExpr, var: &str) -> Option<ScalarExpr> {
    match predicate {
        ScalarExpr::Const(v) => Some(ScalarExpr::Const(v.clone())),
        ScalarExpr::Attr(a) => Some(ScalarExpr::Attr(a.clone())),
        ScalarExpr::Field(base, field) => match base.as_ref() {
            ScalarExpr::Var(v) if v == var => Some(ScalarExpr::Attr(field.clone())),
            _ => None,
        },
        ScalarExpr::Var(_) => None,
        ScalarExpr::Binary { op, left, right } => Some(ScalarExpr::Binary {
            op: *op,
            left: Box::new(rewrite_env_predicate(left, var)?),
            right: Box::new(rewrite_env_predicate(right, var)?),
        }),
        ScalarExpr::Not(inner) => Some(ScalarExpr::Not(Box::new(rewrite_env_predicate(
            inner, var,
        )?))),
        ScalarExpr::StructLit(_) | ScalarExpr::Agg(..) | ScalarExpr::Call(..) => None,
    }
}

/// Applies every *capability-independent* simplification rule bottom-up to
/// a fixpoint (distribution over unions, filter/bind commutation, join
/// predicate splitting, union flattening).  Capability-dependent
/// pushdowns are applied separately by the optimizer so that it can cost
/// alternatives.
#[must_use]
pub fn normalize(expr: &LogicalExpr) -> LogicalExpr {
    let mut current = expr.clone();
    for _ in 0..64 {
        let next = current.rewrite_bottom_up(&|e| {
            distribute_bind_over_union(e)
                .or_else(|| distribute_filter_over_union(e))
                .or_else(|| distribute_project_over_union(e))
                .or_else(|| push_filter_through_bind(e))
                .or_else(|| push_filter_below_project(e))
                .or_else(|| push_conjuncts_below_join(e))
                .or_else(|| merge_filter_into_join(e))
                .or_else(|| simplify_union(e))
        });
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// Applies the capability-dependent pushdown rules (R1–R3) bottom-up to a
/// fixpoint, consulting `lookup` before each push.
#[must_use]
pub fn push_to_wrappers(expr: &LogicalExpr, lookup: &dyn CapabilityLookup) -> LogicalExpr {
    let mut current = expr.clone();
    for _ in 0..64 {
        let next = current.rewrite_bottom_up(&|e| {
            push_filter_into_submit(e, lookup)
                .or_else(|| push_project_into_submit(e, lookup))
                .or_else(|| push_join_into_submit(e, lookup))
                .or_else(|| {
                    // A projection blocked by a non-pushable filter may
                    // still reach the wrapper by commuting below it first.
                    let swapped = push_project_below_filter(e)?;
                    let rewritten =
                        swapped.rewrite_bottom_up(&|inner| push_project_into_submit(inner, lookup));
                    (rewritten != swapped).then_some(rewritten)
                })
        });
        if next == current {
            break;
        }
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::OperatorKind;
    use crate::scalar::ScalarOp;
    use std::collections::BTreeMap;

    fn lookup_with(wrapper: &str, caps: CapabilitySet) -> BTreeMap<String, CapabilitySet> {
        let mut m = BTreeMap::new();
        m.insert(wrapper.to_owned(), caps);
        m
    }

    fn salary_gt_10_env() -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::constant(10i64),
        )
    }

    fn salary_gt_10_src() -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        )
    }

    #[test]
    fn filter_pushes_into_capable_submit_only() {
        let expr = LogicalExpr::get("person0")
            .submit("r0", "w_full", "person0")
            .filter(salary_gt_10_src());
        let full = lookup_with("w_full", CapabilitySet::full());
        let rewritten = push_filter_into_submit(&expr, &full).unwrap();
        assert_eq!(
            rewritten.to_string(),
            "submit(r0, select((salary > 10), get(person0)))"
        );
        let get_only = lookup_with("w_full", CapabilitySet::get_only());
        assert!(push_filter_into_submit(&expr, &get_only).is_none());
        // Unknown wrappers default to get-only.
        let empty: BTreeMap<String, CapabilitySet> = BTreeMap::new();
        assert!(push_filter_into_submit(&expr, &empty).is_none());
    }

    #[test]
    fn project_pushes_into_capable_submit() {
        let expr = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .project(["name"]);
        let caps = lookup_with(
            "w0",
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
        );
        let rewritten = push_project_into_submit(&expr, &caps).unwrap();
        assert_eq!(
            rewritten.to_string(),
            "submit(r0, project(name, get(person0)))"
        );
    }

    #[test]
    fn join_pushes_only_for_same_repository() {
        let join_same = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
            right: Box::new(LogicalExpr::get("manager0").submit("r0", "w0", "manager0")),
            on: vec![("dept".into(), "dept".into())],
        };
        let caps = lookup_with("w0", CapabilitySet::full());
        let rewritten = push_join_into_submit(&join_same, &caps).unwrap();
        assert_eq!(
            rewritten.to_string(),
            "submit(r0, join(get(employee0), get(manager0), dept=dept))"
        );
        // Different repositories: semijoin-style shipping is impossible,
        // the join stays at the mediator.
        let join_cross = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
            right: Box::new(LogicalExpr::get("manager1").submit("r1", "w0", "manager1")),
            on: vec![("dept".into(), "dept".into())],
        };
        assert!(push_join_into_submit(&join_cross, &caps).is_none());
    }

    #[test]
    fn union_distribution_rules() {
        let union = LogicalExpr::Union(vec![
            LogicalExpr::get("person0").submit("r0", "w0", "person0"),
            LogicalExpr::get("person1").submit("r1", "w0", "person1"),
        ]);
        let bound = LogicalExpr::Bind {
            var: "x".into(),
            input: Box::new(union),
        };
        let distributed = distribute_bind_over_union(&bound).unwrap();
        match &distributed {
            LogicalExpr::Union(items) => {
                assert_eq!(items.len(), 2);
                assert!(items.iter().all(|i| matches!(i, LogicalExpr::Bind { .. })));
            }
            other => panic!("unexpected {other:?}"),
        }
        let filtered = LogicalExpr::Filter {
            input: Box::new(distributed.clone()),
            predicate: salary_gt_10_env(),
        };
        assert!(distribute_filter_over_union(&filtered).is_some());
        let mapped = LogicalExpr::MapProject {
            input: Box::new(distributed),
            projection: ScalarExpr::var_field("x", "name"),
        };
        assert!(distribute_project_over_union(&mapped).is_some());
    }

    #[test]
    fn filter_pushes_through_bind_with_attr_rewrite() {
        let expr = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .bind("x")
            .filter(salary_gt_10_env());
        let rewritten = push_filter_through_bind(&expr).unwrap();
        match &rewritten {
            LogicalExpr::Bind { var, input } => {
                assert_eq!(var, "x");
                match input.as_ref() {
                    LogicalExpr::Filter { predicate, .. } => {
                        assert_eq!(predicate.referenced_attrs(), vec!["salary"]);
                        assert!(predicate.is_pushable());
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn filter_referencing_two_vars_does_not_push_through_bind() {
        let two_var_pred = ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        );
        let expr = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .bind("x")
            .filter(two_var_pred);
        assert!(push_filter_through_bind(&expr).is_none());
    }

    #[test]
    fn filter_below_project_requires_column_subset() {
        let ok = LogicalExpr::get("person0")
            .project(["name", "salary"])
            .filter(salary_gt_10_src());
        assert!(push_filter_below_project(&ok).is_some());
        let missing = LogicalExpr::get("person0")
            .project(["name"])
            .filter(salary_gt_10_src());
        assert!(push_filter_below_project(&missing).is_none());
    }

    #[test]
    fn union_simplification() {
        let nested = LogicalExpr::Union(vec![
            LogicalExpr::Union(vec![LogicalExpr::get("a"), LogicalExpr::get("b")]),
            LogicalExpr::Data(disco_value::Bag::new()),
            LogicalExpr::get("c"),
        ]);
        let simplified = simplify_union(&nested).unwrap();
        match simplified {
            LogicalExpr::Union(items) => assert_eq!(items.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        // Already-flat unions are left alone.
        let flat = LogicalExpr::Union(vec![LogicalExpr::get("a"), LogicalExpr::get("b")]);
        assert!(simplify_union(&flat).is_none());
    }

    #[test]
    fn normalize_produces_per_source_pipelines() {
        // The compiled shape of the paper's intro query over two sources:
        // map(x.name, select(x.salary>10, bind(x, union(submit, submit)))).
        let compiled = LogicalExpr::Bind {
            var: "x".into(),
            input: Box::new(LogicalExpr::Union(vec![
                LogicalExpr::get("person0").submit("r0", "w0", "person0"),
                LogicalExpr::get("person1").submit("r1", "w0", "person1"),
            ])),
        }
        .filter(salary_gt_10_env())
        .map_project(ScalarExpr::var_field("x", "name"));
        let normalized = normalize(&compiled);
        // After normalization the union is outermost and each branch has a
        // source-form filter below its bind.
        match &normalized {
            LogicalExpr::Union(items) => {
                assert_eq!(items.len(), 2);
                for item in items {
                    let text = item.to_string();
                    assert!(text.contains("select((salary > 10)"), "branch: {text}");
                    assert!(text.starts_with("map("), "branch: {text}");
                }
            }
            other => panic!("expected union at top, got {other}"),
        }
    }

    fn person_union(var: &str) -> LogicalExpr {
        LogicalExpr::Union(vec![
            LogicalExpr::get("person0").submit("r0", "w0", "person0"),
            LogicalExpr::get("person1").submit("r1", "w0", "person1"),
        ])
        .bind(var)
    }

    fn cmp(op: ScalarOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(op, left, right)
    }

    fn and_all(conjuncts: Vec<ScalarExpr>) -> ScalarExpr {
        ScalarExpr::conjunction(conjuncts).unwrap()
    }

    fn join(left: LogicalExpr, right: LogicalExpr, predicate: ScalarExpr) -> LogicalExpr {
        LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: Some(predicate),
        }
    }

    #[test]
    fn join_predicate_splits_into_single_side_filters() {
        let names = cmp(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "name"),
            ScalarExpr::var_field("y", "name"),
        );
        let x_salary = cmp(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::constant(3i64),
        );
        let y_salary = cmp(
            ScalarOp::Eq,
            ScalarExpr::var_field("y", "salary"),
            ScalarExpr::constant(7i64),
        );
        let expr = join(
            person_union("x"),
            person_union("y"),
            and_all(vec![names.clone(), x_salary.clone(), y_salary.clone()]),
        );
        let Some(LogicalExpr::Join {
            left,
            right,
            predicate,
        }) = push_conjuncts_below_join(&expr)
        else {
            panic!("R11 should apply");
        };
        assert_eq!(predicate, Some(names));
        assert_eq!(*left, person_union("x").filter(x_salary));
        assert_eq!(*right, person_union("y").filter(y_salary));
        // Only cross-side conjuncts left: nothing more to move.
        let settled = LogicalExpr::Join {
            left,
            right,
            predicate,
        };
        assert!(push_conjuncts_below_join(&settled).is_none());
        // After normalization each filter sits, in source form, right
        // above its submit.
        let text = normalize(&expr).to_string();
        for pushed in [
            "select((salary = 3), submit(r0",
            "select((salary = 3), submit(r1",
            "select((salary = 7), submit(r0",
            "select((salary = 7), submit(r1",
        ] {
            assert!(text.contains(pushed), "{pushed} missing from {text}");
        }
    }

    #[test]
    fn conjuncts_that_cannot_move_stay_on_the_join() {
        let cross_or = cmp(
            ScalarOp::Or,
            cmp(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::constant(1i64),
            ),
            cmp(
                ScalarOp::Eq,
                ScalarExpr::var_field("y", "salary"),
                ScalarExpr::constant(2i64),
            ),
        );
        let constant_only = cmp(
            ScalarOp::Lt,
            ScalarExpr::constant(1i64),
            ScalarExpr::constant(2i64),
        );
        let call = ScalarExpr::Call("coalesce".into(), vec![ScalarExpr::var_field("x", "ok")]);
        let correlated = cmp(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::Agg(
                crate::scalar::AggKind::Count,
                Box::new(person_union("z").filter(cmp(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("z", "name"),
                    ScalarExpr::var_field("y", "name"),
                ))),
            ),
        );
        let whole_var = cmp(
            ScalarOp::Eq,
            ScalarExpr::Var("x".into()),
            ScalarExpr::constant(1i64),
        );
        for conjunct in [cross_or, constant_only, call, correlated, whole_var] {
            let expr = join(person_union("x"), person_union("y"), conjunct.clone());
            assert!(
                push_conjuncts_below_join(&expr).is_none(),
                "{conjunct} must stay on the join"
            );
        }
    }

    #[test]
    fn three_variable_where_clause_reaches_every_binding() {
        // Left-deep, where clause on the outermost join.
        let inner = LogicalExpr::Join {
            left: Box::new(person_union("x")),
            right: Box::new(person_union("y")),
            predicate: None,
        };
        let names = cmp(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "name"),
            ScalarExpr::var_field("y", "name"),
        );
        let ids = cmp(
            ScalarOp::Eq,
            ScalarExpr::var_field("y", "id"),
            ScalarExpr::var_field("z", "id"),
        );
        let salary = |var: &str, k: i64| {
            cmp(
                ScalarOp::Gt,
                ScalarExpr::var_field(var, "salary"),
                ScalarExpr::constant(k),
            )
        };
        let expr = join(
            inner,
            person_union("z"),
            and_all(vec![
                names.clone(),
                ids.clone(),
                salary("x", 1),
                salary("y", 2),
                salary("z", 3),
            ]),
        );
        let normalized = normalize(&expr);
        let LogicalExpr::Join {
            left, predicate, ..
        } = &normalized
        else {
            panic!("expected a join at the top: {normalized}");
        };
        assert_eq!(predicate.as_ref(), Some(&ids));
        let LogicalExpr::Join {
            predicate: inner_predicate,
            ..
        } = left.as_ref()
        else {
            panic!("expected the inner join on the left: {left}");
        };
        assert_eq!(inner_predicate.as_ref(), Some(&names));
        let text = normalized.to_string();
        for k in 1..=3 {
            assert_eq!(
                text.matches(&format!("select((salary > {k}), submit("))
                    .count(),
                2,
                "salary > {k} on both sources of its binding: {text}"
            );
        }
    }

    #[test]
    fn filter_over_join_merges_into_its_predicate() {
        let pred = cmp(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "name"),
            ScalarExpr::var_field("y", "name"),
        );
        let bare = LogicalExpr::Join {
            left: Box::new(person_union("x")),
            right: Box::new(person_union("y")),
            predicate: None,
        };
        let merged = merge_filter_into_join(&bare.clone().filter(pred.clone())).unwrap();
        assert_eq!(
            merged,
            join(person_union("x"), person_union("y"), pred.clone())
        );
        let extra = salary_gt_10_env();
        let twice = merge_filter_into_join(&merged.filter(extra.clone())).unwrap();
        assert_eq!(
            twice,
            join(
                person_union("x"),
                person_union("y"),
                and_all(vec![pred, extra])
            )
        );
        assert!(merge_filter_into_join(&person_union("x").filter(salary_gt_10_env())).is_none());
    }

    #[test]
    fn push_to_wrappers_respects_per_wrapper_capabilities() {
        // person0's wrapper supports select+project+compose; person1's only get.
        let mut lookup = BTreeMap::new();
        lookup.insert(
            "w_full".to_owned(),
            CapabilitySet::new([
                OperatorKind::Get,
                OperatorKind::Select,
                OperatorKind::Project,
            ])
            .with_composition(true),
        );
        lookup.insert("w_min".to_owned(), CapabilitySet::get_only());
        let plan = LogicalExpr::Union(vec![
            LogicalExpr::get("person0")
                .submit("r0", "w_full", "person0")
                .filter(salary_gt_10_src())
                .project(["name"]),
            LogicalExpr::get("person1")
                .submit("r1", "w_min", "person1")
                .filter(salary_gt_10_src())
                .project(["name"]),
        ]);
        let pushed = push_to_wrappers(&plan, &lookup);
        let text = pushed.to_string();
        assert!(
            text.contains("submit(r0, project(name, select((salary > 10), get(person0))))"),
            "full wrapper branch should be fully pushed: {text}"
        );
        assert!(
            text.contains("project(name, select((salary > 10), submit(r1, get(person1))))"),
            "get-only wrapper branch should stay at the mediator: {text}"
        );
    }
}
