//! Rule-based plan optimizer.
//!
//! The rule that matters for the paper is **predicate push-down below
//! joins** (Fig 1): a conjunct whose columns all come from one join input
//! moves below the join, shrinking the join's input. Supporting rules
//! split AND chains into individual conjuncts, merge adjacent filters,
//! and drop trivial ones. Rules run to a fixed point.

use crate::moveraround::MoveAround;
use crate::plan::Plan;
use sia_expr::{Pred, Schema};
use std::collections::BTreeSet;

/// How far the optimizer moves predicates. The local rules always run;
/// the unoptimized plan (`Database::plan`) is the reference without them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OptimizerConfig {
    /// Plan-wide predicate move-around mode (runs as a pre-pass before
    /// the local rules; see [`crate::moveraround`]).
    pub move_around: MoveAround,
}

/// Resolve the output columns of a plan (schema oracle for push-down
/// decisions). `table_schema` maps a table name to its column names.
fn output_columns(plan: &Plan, table_schema: &impl Fn(&str) -> Vec<String>) -> BTreeSet<String> {
    match plan {
        Plan::Scan { table } => table_schema(table).into_iter().collect(),
        Plan::Filter { input, .. } => output_columns(input, table_schema),
        Plan::HashJoin { left, right, .. } => {
            let mut s = output_columns(left, table_schema);
            s.extend(output_columns(right, table_schema));
            s
        }
        Plan::Project { columns, .. } => columns.iter().cloned().collect(),
    }
}

/// Optimize a plan to a fixed point. The local rules have no switches:
/// `config`'s move-around pass runs before them (in
/// `Database::optimized_plan`), and callers hand the one config they
/// built for the whole pipeline.
pub fn optimize(
    plan: Plan,
    table_schema: &impl Fn(&str) -> Vec<String>,
    _config: OptimizerConfig,
) -> Plan {
    let mut current = plan;
    for _ in 0..64 {
        let next = pass(current.clone(), table_schema);
        if next == current {
            return next;
        }
        current = next;
    }
    current
}

fn pass(plan: Plan, table_schema: &impl Fn(&str) -> Vec<String>) -> Plan {
    match plan {
        Plan::Scan { .. } => plan,
        Plan::Project { columns, input } => Plan::Project {
            columns,
            input: Box::new(pass(*input, table_schema)),
        },
        Plan::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => Plan::HashJoin {
            left: Box::new(pass(*left, table_schema)),
            right: Box::new(pass(*right, table_schema)),
            left_key,
            right_key,
        },
        Plan::Filter { pred, input } => {
            let input = pass(*input, table_schema);
            // MergeFilters: Filter(p, Filter(q, x)) → Filter(p ∧ q, x).
            let (pred, input) = match input {
                Plan::Filter {
                    pred: inner,
                    input: deeper,
                } => (pred.and(inner), *deeper),
                other => (pred, other),
            };
            if pred.is_true() {
                return input;
            }
            // PushFilterThroughJoin: route conjuncts to the side that
            // provides all of their columns.
            if let Plan::HashJoin {
                left,
                right,
                left_key,
                right_key,
            } = input
            {
                let left_cols = output_columns(&left, table_schema);
                let right_cols = output_columns(&right, table_schema);
                let mut left_preds = Vec::new();
                let mut right_preds = Vec::new();
                let mut keep = Vec::new();
                for conj in pred.conjuncts() {
                    let cols: BTreeSet<String> = conj.columns().into_iter().collect();
                    if !cols.is_empty() && cols.is_subset(&left_cols) {
                        left_preds.push(conj.clone());
                    } else if !cols.is_empty() && cols.is_subset(&right_cols) {
                        right_preds.push(conj.clone());
                    } else {
                        keep.push(conj.clone());
                    }
                }
                if !left_preds.is_empty() || !right_preds.is_empty() {
                    let new_left = left.filter(Pred::and_all(left_preds));
                    let new_right = right.filter(Pred::and_all(right_preds));
                    let joined = new_left.hash_join(new_right, left_key, right_key);
                    return pass(joined.filter(Pred::and_all(keep)), table_schema);
                }
                return Plan::Filter {
                    pred,
                    input: Box::new(Plan::HashJoin {
                        left,
                        right,
                        left_key,
                        right_key,
                    }),
                };
            }
            Plan::Filter {
                pred,
                input: Box::new(input),
            }
        }
    }
}

/// Helper: column names of a [`Schema`].
pub fn schema_columns(schema: &Schema) -> Vec<String> {
    schema.columns().iter().map(|c| c.name.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{col, lit};

    fn schemas(name: &str) -> Vec<String> {
        match name {
            "lineitem" => vec!["l_orderkey".into(), "l_shipdate".into()],
            "orders" => vec!["o_orderkey".into(), "o_orderdate".into()],
            _ => vec![],
        }
    }

    #[test]
    fn pushes_single_table_conjuncts() {
        let plan = Plan::scan("lineitem")
            .hash_join(Plan::scan("orders"), "l_orderkey", "o_orderkey")
            .filter(
                col("l_shipdate")
                    .lt(lit(100))
                    .and(col("o_orderdate").lt(lit(0)))
                    .and(col("l_shipdate").sub(col("o_orderdate")).lt(lit(20))),
            );
        let opt = optimize(plan, &schemas, OptimizerConfig::default());
        // Two conjuncts pushed below the join; the cross-table one stays.
        assert_eq!(opt.filters_below_joins(), 2, "plan:\n{opt}");
        let s = opt.to_string();
        assert!(s.contains("Filter (l_shipdate - o_orderdate < 20)"));
    }

    #[test]
    fn merges_adjacent_filters() {
        let plan = Plan::scan("lineitem")
            .filter(col("l_shipdate").lt(lit(100)))
            .filter(col("l_orderkey").gt(lit(0)));
        let opt = optimize(plan, &schemas, OptimizerConfig::default());
        match &opt {
            Plan::Filter { pred, input } => {
                assert_eq!(pred.conjuncts().len(), 2);
                assert!(matches!(**input, Plan::Scan { .. }));
            }
            other => panic!("expected single merged filter, got {other}"),
        }
    }

    #[test]
    fn fixed_point_reached() {
        let plan = Plan::scan("lineitem")
            .hash_join(Plan::scan("orders"), "l_orderkey", "o_orderkey")
            .filter(col("l_shipdate").lt(lit(100)));
        let opt1 = optimize(plan, &schemas, OptimizerConfig::default());
        let opt2 = optimize(opt1.clone(), &schemas, OptimizerConfig::default());
        assert_eq!(opt1, opt2);
    }
}
