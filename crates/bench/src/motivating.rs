//! The §2 motivating example end-to-end: Q1 → Q2 rewrite and its runtime
//! effect on the TPC-H-style data (paper: 94 s → 50 s on Postgres at
//! SF 10; here the *ratio* is the reproduction target).

use sia_core::{rewrite_query, RewriteOutcome, Synthesizer};
use sia_engine::{Database, OptimizerConfig, QueryResult};
use sia_gen::tpch::{generate, TpchConfig};
use sia_sql::{parse_query, Query};

/// The paper's Q1 (join + three conditions, §2).
pub fn q1() -> Query {
    parse_query(
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
         AND l_shipdate - o_orderdate < 20 \
         AND o_orderdate < DATE '1993-06-01' \
         AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10",
    )
    .expect("Q1 parses")
}

/// The paper's hand-written Q2 (Q1 plus the three inferred predicates).
pub fn q2_paper() -> Query {
    parse_query(
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
         AND l_shipdate - o_orderdate < 20 \
         AND o_orderdate < DATE '1993-06-01' \
         AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10 \
         AND l_shipdate < DATE '1993-06-20' \
         AND l_commitdate < DATE '1993-07-18' \
         AND l_commitdate - l_shipdate < 29",
    )
    .expect("Q2 parses")
}

/// Run Sia on Q1, targeting `lineitem`.
pub fn rewrite_q1() -> RewriteOutcome {
    let mut syn = Synthesizer::default();
    rewrite_query(&mut syn, &q1(), &sia_gen::tpch::catalog(), "lineitem").expect("Q1 rewrites")
}

/// Measurements for the three plan variants.
#[derive(Debug)]
pub struct MotivatingResult {
    /// Q1 as-is.
    pub original: QueryResult,
    /// Q1 plus the Sia-synthesized predicate.
    pub sia: QueryResult,
    /// The paper's hand-written Q2.
    pub paper_q2: QueryResult,
    /// The rewritten query Sia produced.
    pub rewritten_sql: String,
}

/// Execute the three variants on generated data.
pub fn run(scale_factor: f64) -> MotivatingResult {
    let db: Database = generate(&TpchConfig {
        scale_factor,
        ..TpchConfig::default()
    });
    let outcome = rewrite_q1();
    let rewritten = outcome.rewritten.expect("Q1 admits a lineitem predicate");
    let cfg = OptimizerConfig::default();
    let original = db.run(&q1(), cfg).expect("Q1 runs");
    let sia = db.run(&rewritten, cfg).expect("rewritten Q1 runs");
    let paper_q2 = db.run(&q2_paper(), cfg).expect("Q2 runs");
    assert_eq!(original.table.num_rows(), sia.table.num_rows());
    assert_eq!(original.table.num_rows(), paper_q2.table.num_rows());
    MotivatingResult {
        original,
        sia,
        paper_q2,
        rewritten_sql: rewritten.to_string(),
    }
}

/// The §2 view: the rewrite, both plans, and the three runtimes at the
/// larger of the two [`SCALE_FACTORS`](crate::runtime::SCALE_FACTORS).
pub fn report() -> String {
    let r = run(crate::runtime::SCALE_FACTORS[1]);
    let ms = |q: &QueryResult| q.elapsed.as_secs_f64() * 1e3;
    format!(
        "Sia rewrote Q1 to:\n  {}\n\n\
         original Q1 plan:\n{}\n\
         rewritten plan:\n{}\n\
         Q1 {:.1} ms | Sia rewrite {:.1} ms ({:.2}x) | paper Q2 {:.1} ms ({:.2}x)\n\
         join input rows: original {} | rewritten {}\n\
         (paper, Postgres SF 10: Q1 94 s, Q2 50 s — a 2x speed-up)",
        r.rewritten_sql,
        r.original.plan,
        r.sia.plan,
        ms(&r.original),
        ms(&r.sia),
        ms(&r.original) / ms(&r.sia),
        ms(&r.paper_q2),
        ms(&r.original) / ms(&r.paper_q2),
        r.original.stats.join_input_rows,
        r.sia.stats.join_input_rows
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_q2_equivalent_and_pushdown_fires() {
        let r = run(0.01);
        // Q2 and the Sia rewrite both enable push-down into lineitem.
        assert_eq!(r.original.plan.filters_below_joins(), 1); // orders side only
        assert!(
            r.sia.plan.filters_below_joins() >= 2,
            "plan:\n{}",
            r.sia.plan
        );
        assert!(r.paper_q2.plan.filters_below_joins() >= 2);
        // And push-down shrinks the join input.
        assert!(r.sia.stats.join_input_rows < r.original.stats.join_input_rows);
    }

    #[test]
    fn synthesized_predicate_targets_lineitem() {
        let outcome = rewrite_q1();
        let pred = outcome.synthesized.expect("predicate");
        let lineitem_cols = ["l_shipdate", "l_commitdate", "l_receiptdate"];
        assert!(pred
            .columns()
            .iter()
            .all(|c| lineitem_cols.contains(&c.as_str())));
    }
}
