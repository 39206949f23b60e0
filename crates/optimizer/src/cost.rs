//! The cost model (§3.1, §3.3).
//!
//! "Each expression has an associated estimated cost.  The expression with
//! the lowest estimated cost is then executed by the run time system."
//! Costs of `exec` calls come from the self-calibrating
//! [`CalibrationStore`]; mediator-side algorithms are costed with simple
//! per-row constants.  For a repository that has never answered a call
//! the defaults (time 0, data 1) make source-side work free, so "the
//! optimizer will choose plans where the maximum amount of computation is
//! done at the data source" — exactly the paper's intended bias.  Once a
//! repository has answered calls, a shape it has not answered is
//! estimated from the repository's recent calls: never free, and with the
//! same selectivity per predicate whether the predicate runs inside the
//! `submit` or at the mediator.

use std::sync::Arc;

use disco_algebra::PhysicalExpr;

use crate::calibration::{CalibrationStore, MatchKind};

/// Tunable constants of the mediator-side cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost of processing one row in a mediator-side operator, in ms.
    pub mediator_per_row_ms: f64,
    /// Estimated selectivity of a filter predicate.
    pub filter_selectivity: f64,
    /// Estimated selectivity of a join predicate.
    pub join_selectivity: f64,
    /// Estimated fraction of duplicates removed by `distinct`.
    pub distinct_ratio: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            mediator_per_row_ms: 0.01,
            filter_selectivity: 0.33,
            join_selectivity: 0.1,
            distinct_ratio: 0.8,
        }
    }
}

/// The estimated cost of a (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated total time in milliseconds.
    pub time_ms: f64,
    /// Estimated output cardinality.
    pub rows: f64,
}

impl PlanCost {
    /// A zero cost (empty input).
    #[must_use]
    pub fn zero() -> Self {
        PlanCost {
            time_ms: 0.0,
            rows: 0.0,
        }
    }
}

/// The cost model: a calibration store plus mediator constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    store: Arc<CalibrationStore>,
    params: CostParams,
}

impl CostModel {
    /// Creates a cost model backed by `store`.
    #[must_use]
    pub fn new(store: Arc<CalibrationStore>) -> Self {
        CostModel {
            store,
            params: CostParams::default(),
        }
    }

    /// Overrides the mediator constants.
    #[must_use]
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// The calibration store backing `exec` estimates.
    #[must_use]
    pub fn store(&self) -> &Arc<CalibrationStore> {
        &self.store
    }

    /// The mediator constants.
    #[must_use]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Estimates the cost of a physical plan.
    #[must_use]
    pub fn cost(&self, plan: &PhysicalExpr) -> PlanCost {
        let p = &self.params;
        match plan {
            PhysicalExpr::Exec {
                repository,
                logical,
                ..
            } => {
                let est = self.store.estimate(repository, logical);
                if est.source != MatchKind::Default {
                    return PlanCost {
                        time_ms: est.time_ms,
                        rows: est.rows,
                    };
                }
                // A shape this repository has never answered.  Estimate
                // it from the repository's other calls; only a repository
                // with none gets the paper's defaults, which make source
                // work free and put one row in each base collection.
                let profile = self
                    .store
                    .repository_profile(repository, p.filter_selectivity);
                let base_rows = profile.map_or(1.0, |pr| pr.base_rows);
                let rows = self.unobserved_rows(repository, logical, base_rows);
                let time_ms = profile.map_or(0.0, |pr| pr.per_call_ms + pr.per_row_ms * rows);
                PlanCost {
                    // `est.time_ms` carries the repository's degradation
                    // penalty.
                    time_ms: est.time_ms + time_ms,
                    rows,
                }
            }
            PhysicalExpr::MemScan(bag) => PlanCost {
                time_ms: 0.0,
                #[allow(clippy::cast_precision_loss)]
                rows: bag.len() as f64,
            },
            PhysicalExpr::FilterOp { input, .. } => {
                let c = self.cost(input);
                PlanCost {
                    time_ms: c.time_ms + c.rows * p.mediator_per_row_ms,
                    rows: c.rows * p.filter_selectivity,
                }
            }
            PhysicalExpr::ProjectOp { input, .. }
            | PhysicalExpr::MapOp { input, .. }
            | PhysicalExpr::BindOp { input, .. } => {
                let c = self.cost(input);
                PlanCost {
                    time_ms: c.time_ms + c.rows * p.mediator_per_row_ms,
                    rows: c.rows,
                }
            }
            PhysicalExpr::NestedLoopJoin { left, right, .. }
            | PhysicalExpr::MergeTuplesJoin { left, right, .. } => {
                let l = self.cost(left);
                let r = self.cost(right);
                PlanCost {
                    time_ms: l.time_ms + r.time_ms + l.rows * r.rows * p.mediator_per_row_ms,
                    rows: (l.rows * r.rows * p.join_selectivity).max(1.0),
                }
            }
            PhysicalExpr::HashJoin { left, right, .. } => {
                let l = self.cost(left);
                let r = self.cost(right);
                PlanCost {
                    time_ms: l.time_ms + r.time_ms + (l.rows + r.rows) * p.mediator_per_row_ms,
                    rows: (l.rows * r.rows * p.join_selectivity).max(1.0),
                }
            }
            PhysicalExpr::MkUnion(items) => {
                let mut total = PlanCost::zero();
                for item in items {
                    let c = self.cost(item);
                    total.time_ms += c.time_ms;
                    total.rows += c.rows;
                }
                total
            }
            PhysicalExpr::MkFlatten(inner) => {
                let c = self.cost(inner);
                PlanCost {
                    time_ms: c.time_ms + c.rows * p.mediator_per_row_ms,
                    rows: c.rows,
                }
            }
            PhysicalExpr::MkDistinct(inner) => {
                let c = self.cost(inner);
                PlanCost {
                    time_ms: c.time_ms + c.rows * p.mediator_per_row_ms,
                    rows: (c.rows * p.distinct_ratio).max(1.0),
                }
            }
            PhysicalExpr::MkAggregate { input, .. } => {
                let c = self.cost(input);
                PlanCost {
                    time_ms: c.time_ms + c.rows * p.mediator_per_row_ms,
                    rows: 1.0,
                }
            }
        }
    }

    /// Estimated output cardinality of an expression shipped to
    /// `repository`: its observed rows when the repository has answered
    /// it before, [`CostModel::unobserved_rows`] otherwise.
    fn exec_rows(&self, repository: &str, logical: &disco_algebra::LogicalExpr, base: f64) -> f64 {
        let est = self.store.estimate(repository, logical);
        if est.source == MatchKind::Default {
            self.unobserved_rows(repository, logical, base)
        } else {
            est.rows
        }
    }

    /// Estimated output cardinality of an expression `repository` has not
    /// answered.  A sub-expression it has answered contributes its
    /// observed rows, a collection never seen contributes `base` rows, and
    /// every selection on top applies the same `filter_selectivity` a
    /// mediator-side filter applies, so a predicate gets the same estimate
    /// inside the `submit` as above it.
    fn unobserved_rows(
        &self,
        repository: &str,
        logical: &disco_algebra::LogicalExpr,
        base: f64,
    ) -> f64 {
        use disco_algebra::LogicalExpr as L;
        let p = &self.params;
        match logical {
            L::Get { .. } => base,
            L::Filter { input, .. } => {
                self.exec_rows(repository, input, base) * p.filter_selectivity
            }
            L::Project { input, .. } => self.exec_rows(repository, input, base),
            L::SourceJoin { left, right, .. } => (self.exec_rows(repository, left, base)
                * self.exec_rows(repository, right, base)
                * p.join_selectivity)
                .max(1.0),
            other => other
                .children()
                .iter()
                .map(|c| self.exec_rows(repository, c, base))
                .sum::<f64>()
                .max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};

    fn filter_pred() -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        )
    }

    #[test]
    fn defaults_make_pushed_plans_cheaper() {
        // With no calibration data, the pushed plan (filter inside exec)
        // costs less than the mediator-side plan (filter over exec),
        // because source work is free and source output defaults to 1 row.
        let store = Arc::new(CalibrationStore::new());
        let model = CostModel::new(store);
        let pushed = lower(
            &LogicalExpr::get("person0")
                .filter(filter_pred())
                .submit("r0", "w0", "person0"),
        )
        .unwrap();
        let mediator = lower(
            &LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .filter(filter_pred()),
        )
        .unwrap();
        let pushed_cost = model.cost(&pushed);
        let mediator_cost = model.cost(&mediator);
        assert!(pushed_cost.time_ms <= mediator_cost.time_ms);
    }

    #[test]
    fn a_predicate_estimates_the_same_rows_inside_and_above_the_submit() {
        let store = Arc::new(CalibrationStore::new());
        let model = CostModel::new(Arc::clone(&store));
        let pushed = lower(
            &LogicalExpr::get("person0")
                .filter(filter_pred())
                .submit("r0", "w0", "person0"),
        )
        .unwrap();
        let mediator = lower(
            &LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .filter(filter_pred()),
        )
        .unwrap();
        // Unobserved repository, observed `get`, and a repository that has
        // only answered other shapes.
        let other = LogicalExpr::get("person9").project(["name"]);
        for record in [None, Some(LogicalExpr::get("person0")), Some(other)] {
            store.clear();
            if let Some(shape) = record {
                store.record("r0", &shape, 4.0, 2000);
            }
            let (p, m) = (model.cost(&pushed), model.cost(&mediator));
            assert!((p.rows - m.rows).abs() < 1e-9, "{p:?} vs {m:?}");
            assert!(p.time_ms <= m.time_ms, "{p:?} vs {m:?}");
        }
    }

    #[test]
    fn calibrated_estimates_flow_into_plan_costs() {
        let store = Arc::new(CalibrationStore::new());
        let model = CostModel::new(Arc::clone(&store));
        let shipped = LogicalExpr::get("person0");
        store.record("r0", &shipped, 25.0, 1000);
        let plan = lower(
            &LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .filter(filter_pred()),
        )
        .unwrap();
        let cost = model.cost(&plan);
        assert!(cost.time_ms >= 25.0, "exec time dominates: {cost:?}");
        assert!(cost.rows > 100.0, "filter selectivity applied to 1000 rows");
    }

    #[test]
    fn hash_join_is_cheaper_than_nested_loop_on_large_inputs() {
        let store = Arc::new(CalibrationStore::new());
        // Teach the store that both sources return 1000 rows.
        store.record("r0", &LogicalExpr::get("a"), 1.0, 1000);
        store.record("r1", &LogicalExpr::get("b"), 1.0, 1000);
        let model = CostModel::new(Arc::clone(&store));
        let left = LogicalExpr::get("a").submit("r0", "w0", "a").bind("x");
        let right = LogicalExpr::get("b").submit("r1", "w0", "b").bind("y");
        let equi = ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        );
        let hash = lower(&LogicalExpr::Join {
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
            predicate: Some(equi),
        })
        .unwrap();
        let nl = lower(&LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Lt,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        })
        .unwrap();
        assert!(model.cost(&hash).time_ms < model.cost(&nl).time_ms);
    }

    #[test]
    fn union_and_aggregate_costs_accumulate() {
        let store = Arc::new(CalibrationStore::new());
        store.record("r0", &LogicalExpr::get("a"), 2.0, 10);
        store.record("r1", &LogicalExpr::get("b"), 3.0, 20);
        let model = CostModel::new(Arc::clone(&store));
        let plan = lower(&LogicalExpr::Aggregate {
            func: disco_algebra::AggKind::Count,
            input: Box::new(LogicalExpr::Union(vec![
                LogicalExpr::get("a").submit("r0", "w0", "a"),
                LogicalExpr::get("b").submit("r1", "w0", "b"),
            ])),
        })
        .unwrap();
        let cost = model.cost(&plan);
        assert!(cost.time_ms >= 5.0);
        assert!((cost.rows - 1.0).abs() < f64::EPSILON);
    }
}
