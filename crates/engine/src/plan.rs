//! Logical query plans and EXPLAIN rendering.

use sia_expr::Pred;
use std::fmt;

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan.
    Scan {
        /// Table name (resolved against the database at execution).
        table: String,
    },
    /// Row filter.
    Filter {
        /// Predicate (WHERE semantics: NULL rejects).
        pred: Pred,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Hash equi-join.
    HashJoin {
        /// Build side.
        left: Box<Plan>,
        /// Probe side.
        right: Box<Plan>,
        /// Join key column on the left.
        left_key: String,
        /// Join key column on the right.
        right_key: String,
    },
    /// Column projection.
    Project {
        /// Output column names.
        columns: Vec<String>,
        /// Input plan.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
        }
    }

    /// Filter builder (TRUE predicates are dropped).
    pub fn filter(self, pred: Pred) -> Plan {
        if pred.is_true() {
            return self;
        }
        Plan::Filter {
            pred,
            input: Box::new(self),
        }
    }

    /// Hash-join builder.
    pub fn hash_join(
        self,
        right: Plan,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_key: left_key.into(),
            right_key: right_key.into(),
        }
    }

    /// Projection builder.
    pub fn project(self, columns: Vec<String>) -> Plan {
        Plan::Project {
            columns,
            input: Box::new(self),
        }
    }

    /// Child plans.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::Filter { input, .. } | Plan::Project { input, .. } => vec![input],
            Plan::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Count of filter nodes *below* join nodes (push-down witness for
    /// tests and EXPLAIN assertions).
    pub fn filters_below_joins(&self) -> usize {
        fn go(p: &Plan, below_join: bool) -> usize {
            match p {
                Plan::Scan { .. } => 0,
                Plan::Filter { input, .. } => usize::from(below_join) + go(input, below_join),
                Plan::Project { input, .. } => go(input, below_join),
                Plan::HashJoin { left, right, .. } => go(left, true) + go(right, true),
            }
        }
        go(self, false)
    }

    /// This node's EXPLAIN line, without indentation or children.
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { table } => format!("SeqScan on {table}"),
            Plan::Filter { pred, .. } => format!("Filter ({pred})"),
            Plan::HashJoin {
                left_key,
                right_key,
                ..
            } => format!("HashJoin ({left_key} = {right_key})"),
            Plan::Project { columns, .. } => format!("Project ({})", columns.join(", ")),
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        writeln!(f, "{}{}", "  ".repeat(indent), self.label())?;
        self.children()
            .into_iter()
            .try_for_each(|child| child.fmt_indent(f, indent + 1))
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{col, lit};

    #[test]
    fn builders_and_display() {
        let p = Plan::scan("lineitem")
            .filter(col("l_shipdate").lt(lit(100)))
            .hash_join(Plan::scan("orders"), "l_orderkey", "o_orderkey")
            .filter(col("o_orderdate").lt(lit(0)));
        let s = p.to_string();
        assert!(s.contains("HashJoin (l_orderkey = o_orderkey)"));
        assert!(s.contains("SeqScan on lineitem"));
        assert!(s.contains("Filter (l_shipdate < 100)"));
    }

    #[test]
    fn true_filter_dropped() {
        let p = Plan::scan("t").filter(Pred::true_());
        assert_eq!(p, Plan::scan("t"));
    }

    #[test]
    fn filters_below_joins_counts() {
        let pushed =
            Plan::scan("a")
                .filter(col("x").lt(lit(1)))
                .hash_join(Plan::scan("b"), "k", "k");
        assert_eq!(pushed.filters_below_joins(), 1);
        let unpushed = Plan::scan("a")
            .hash_join(Plan::scan("b"), "k", "k")
            .filter(col("x").lt(lit(1)));
        assert_eq!(unpushed.filters_below_joins(), 0);
    }
}
