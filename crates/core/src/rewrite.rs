//! End-to-end query rewriting: find the filter predicate of a query,
//! synthesize a valid reduction onto one table's columns, and inject it
//! back into the WHERE clause (Fig 1 / Fig 5's outer loop).

use crate::synth::{SynthesisError, SynthesisResult, Synthesizer};
use sia_expr::{Catalog, CmpOp, Expr, Pred};
use sia_sql::Query;
use std::collections::BTreeSet;

/// Result of a rewrite attempt.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten query (original plus synthesized conjunct), when a
    /// non-trivial predicate was found.
    pub rewritten: Option<Query>,
    /// The synthesized predicate.
    pub synthesized: Option<Pred>,
    /// The columns the synthesis targeted.
    pub target_columns: Vec<String>,
    /// Full synthesis statistics.
    pub synthesis: SynthesisResult,
}

/// Why the query could not be rewritten.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The query has no WHERE clause or no non-join conjunct.
    NoPredicate,
    /// The target table contributes no column to the filter predicate.
    NoTargetColumns(String),
    /// Synthesis failed.
    Synthesis(SynthesisError),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::NoPredicate => write!(f, "query has no rewritable predicate"),
            RewriteError::NoTargetColumns(t) => {
                write!(f, "table {t:?} contributes no columns to the predicate")
            }
            RewriteError::Synthesis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<SynthesisError> for RewriteError {
    fn from(e: SynthesisError) -> Self {
        RewriteError::Synthesis(e)
    }
}

/// True iff the conjunct is a join condition: an equality between single
/// columns of two *different* tables.
pub fn is_join_conjunct(p: &Pred, catalog: &Catalog) -> bool {
    let Pred::Cmp {
        op: CmpOp::Eq,
        lhs: Expr::Column(a),
        rhs: Expr::Column(b),
    } = p
    else {
        return false;
    };
    match (catalog.resolve(a), catalog.resolve(b)) {
        (Ok((ta, _)), Ok((tb, _))) => ta.name != tb.name,
        _ => false,
    }
}

/// Split a WHERE predicate into (join conjuncts, filter predicate).
pub fn split_predicate(p: &Pred, catalog: &Catalog) -> (Vec<Pred>, Option<Pred>) {
    let mut joins = Vec::new();
    let mut filters = Vec::new();
    for conj in p.conjuncts() {
        if is_join_conjunct(conj, catalog) {
            joins.push(conj.clone());
        } else {
            filters.push(conj.clone());
        }
    }
    let filter = if filters.is_empty() {
        None
    } else {
        Some(Pred::and_all(filters))
    };
    (joins, filter)
}

/// Columns of `p` that belong to `table` according to the catalog.
pub fn columns_of_table(p: &Pred, catalog: &Catalog, table: &str) -> Vec<String> {
    let mut out = BTreeSet::new();
    for c in p.columns() {
        if let Ok((t, _)) = catalog.resolve(&c) {
            if t.name == table {
                out.insert(c);
            }
        }
    }
    out.into_iter().collect()
}

/// Rewrite `query` by synthesizing a predicate over `target_table`'s
/// columns that is implied by the query's filter predicate, enabling
/// predicate push-down below the join for that table.
pub fn rewrite_query(
    synthesizer: &mut Synthesizer,
    query: &Query,
    catalog: &Catalog,
    target_table: &str,
) -> Result<RewriteOutcome, RewriteError> {
    let Some(where_pred) = &query.predicate else {
        return Err(RewriteError::NoPredicate);
    };
    let (_joins, filter) = split_predicate(where_pred, catalog);
    let Some(filter) = filter else {
        return Err(RewriteError::NoPredicate);
    };
    let target_cols = columns_of_table(&filter, catalog, target_table);
    if target_cols.is_empty() {
        return Err(RewriteError::NoTargetColumns(target_table.to_string()));
    }
    // Synthesize per single column first, then over the full set, and
    // conjoin every valid result. Single-column runs converge to their
    // exact optimum (one boundary to pinch), and the paper's own Q2 is
    // precisely such a conjunction: two per-column bounds plus one
    // multi-column difference (§2).
    let mut subsets: Vec<Vec<String>> = target_cols.iter().map(|c| vec![c.clone()]).collect();
    if target_cols.len() > 1 {
        subsets.push(target_cols.clone());
    }
    let mut combined = Pred::true_();
    let mut synthesis = None;
    let mut all_optimal = true;
    let mut agg_stats = crate::synth::SynthStats::default();
    for subset in &subsets {
        let mut r = synthesizer.synthesize(&filter, subset)?;
        agg_stats += std::mem::take(&mut r.stats);
        all_optimal &= r.optimal;
        if let Some(p) = &r.predicate {
            if !p.is_true() {
                combined = combined.and(p.clone());
            }
        }
        synthesis = Some(r);
    }
    let mut synthesis = synthesis.expect("at least one subset");
    synthesis.stats = agg_stats;
    synthesis.optimal = all_optimal;
    if !combined.is_true() {
        // Strip conjuncts subsumed across subsets.
        let mut enc = crate::encode::PredEncoder::new();
        combined = crate::verify::remove_redundant_conjuncts(&mut enc, &combined);
    }
    synthesis.predicate = if combined.is_true() {
        None
    } else {
        Some(combined.clone())
    };
    let (rewritten, synthesized) = if combined.is_true() {
        (None, None)
    } else {
        (
            Some(query.with_extra_predicate(combined.clone())),
            Some(combined),
        )
    };
    Ok(RewriteOutcome {
        rewritten,
        synthesized,
        target_columns: target_cols,
        synthesis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{ColumnDef, DataType, Schema};
    use sia_sql::parse_query;

    fn tpch_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            "orders",
            Schema::new(vec![
                ColumnDef::new("o_orderkey", DataType::Integer),
                ColumnDef::new("o_orderdate", DataType::Date),
            ]),
        );
        cat.add_table(
            "lineitem",
            Schema::new(vec![
                ColumnDef::new("l_orderkey", DataType::Integer),
                ColumnDef::new("l_shipdate", DataType::Date),
                ColumnDef::new("l_commitdate", DataType::Date),
                ColumnDef::new("l_receiptdate", DataType::Date),
            ]),
        );
        cat
    }

    #[test]
    fn join_detection() {
        let cat = tpch_catalog();
        let q = parse_query(
            "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
             AND l_shipdate - o_orderdate < 20",
        )
        .unwrap();
        let (joins, filter) = split_predicate(q.predicate.as_ref().unwrap(), &cat);
        assert_eq!(joins.len(), 1);
        assert_eq!(filter.unwrap().to_string(), "l_shipdate - o_orderdate < 20");
    }

    #[test]
    fn columns_of_table_resolution() {
        let cat = tpch_catalog();
        let q = parse_query(
            "SELECT * FROM lineitem, orders WHERE l_shipdate - o_orderdate < 20 \
             AND l_commitdate < DATE '1995-01-01'",
        )
        .unwrap();
        let p = q.predicate.unwrap();
        assert_eq!(
            columns_of_table(&p, &cat, "lineitem"),
            vec!["l_commitdate".to_string(), "l_shipdate".to_string()]
        );
        assert_eq!(
            columns_of_table(&p, &cat, "orders"),
            vec!["o_orderdate".to_string()]
        );
    }

    #[test]
    fn motivating_query_rewrites() {
        let cat = tpch_catalog();
        // §2's Q1 restricted to two date columns (keeps the test fast).
        let q = parse_query(
            "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
             AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'",
        )
        .unwrap();
        let mut syn = Synthesizer::default();
        let out = rewrite_query(&mut syn, &q, &cat, "lineitem").unwrap();
        let pred = out.synthesized.expect("a pushed-down predicate");
        // It must only use lineitem columns…
        assert!(pred.over_columns(&["l_shipdate".to_string()]));
        // …and express l_shipdate < 1993-06-20 (day 8571).
        let cutoff = sia_expr::Date::parse("1993-06-20").unwrap().to_days();
        use sia_expr::{eval_pred, Value};
        use std::collections::HashMap;
        for (d, expect) in [
            (cutoff - 1, true),
            (cutoff - 100, true),
            (cutoff, false),
            (cutoff + 50, false),
        ] {
            let m: HashMap<String, Value> = [("l_shipdate".to_string(), Value::Int(d))]
                .into_iter()
                .collect();
            assert_eq!(eval_pred(&pred, &m), Some(expect), "at day {d}");
        }
        let rewritten = out.rewritten.unwrap();
        assert!(rewritten.to_string().len() > q.to_string().len());
    }

    #[test]
    fn no_target_columns_error() {
        let cat = tpch_catalog();
        let q = parse_query(
            "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
             AND o_orderdate < DATE '1993-06-01'",
        )
        .unwrap();
        let mut syn = Synthesizer::default();
        assert_eq!(
            rewrite_query(&mut syn, &q, &cat, "lineitem").unwrap_err(),
            RewriteError::NoTargetColumns("lineitem".to_string())
        );
    }

    #[test]
    fn no_predicate_error() {
        let cat = tpch_catalog();
        let q = parse_query("SELECT * FROM lineitem").unwrap();
        let mut syn = Synthesizer::default();
        assert_eq!(
            rewrite_query(&mut syn, &q, &cat, "lineitem").unwrap_err(),
            RewriteError::NoPredicate
        );
    }
}
