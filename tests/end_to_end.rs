//! Cross-crate integration tests: SQL in, synthesized predicate out,
//! executed semantics preserved.

use sia::core::{rewrite_query, SiaConfig, Synthesizer};
use sia::engine::OptimizerConfig;
use sia::expr::{eval_pred, Value};
use sia::sql::{parse_predicate, parse_query};
use sia::tpch::{catalog, generate, TpchConfig};
use std::collections::HashMap;

/// The full §2 pipeline: parse Q1, synthesize, rewrite, execute, compare.
#[test]
fn motivating_example_pipeline() {
    let q1 = parse_query(
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
         AND l_shipdate - o_orderdate < 20 \
         AND o_orderdate < DATE '1993-06-01' \
         AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10",
    )
    .unwrap();
    let cat = catalog();
    // Debug-mode synthesis is slow; a short loop still finds a useful
    // lineitem predicate for this query.
    let mut syn = Synthesizer::new(SiaConfig {
        max_iterations: 8,
        ..SiaConfig::default()
    });
    let outcome = rewrite_query(&mut syn, &q1, &cat, "lineitem").unwrap();
    let rewritten = outcome.rewritten.expect("Q1 is rewritable");
    let pred = outcome.synthesized.unwrap();
    // The synthesized predicate uses only lineitem columns.
    assert!(pred.columns().iter().all(|c| c.starts_with("l_")));

    let db = generate(&TpchConfig {
        scale_factor: 0.01,
        ..TpchConfig::default()
    });
    let cfg = OptimizerConfig::default();
    let orig = db.run(&q1, cfg).unwrap();
    let rew = db.run(&rewritten, cfg).unwrap();
    // Semantic equivalence on real data.
    assert_eq!(orig.table.num_rows(), rew.table.num_rows());
    // The rewrite unlocked push-down into lineitem.
    assert!(rew.plan.filters_below_joins() > orig.plan.filters_below_joins());
    assert!(rew.stats.join_input_rows < orig.stats.join_input_rows);
}

/// Synthesized predicates are valid: exhaustive check over a grid, for a
/// batch of predicate shapes.
#[test]
fn synthesized_predicates_are_valid_on_grids() {
    let cases = [
        ("a - b < 7 AND b < 3", vec!["a"]),
        ("a - b < 7 AND b >= -2 AND b < 3", vec!["a"]),
        ("a + b > 4 AND a - b < 2 AND b < 6", vec!["a"]),
        ("a = b + 5 AND b > 0 AND b < 9", vec!["a"]),
        ("a < b AND b < c AND c < 10", vec!["a", "b"]),
    ];
    for (sql, cols) in cases {
        let p = parse_predicate(sql).unwrap();
        let cols: Vec<String> = cols.iter().map(|s| s.to_string()).collect();
        let mut syn = Synthesizer::new(SiaConfig {
            max_iterations: 10,
            ..SiaConfig::default()
        });
        let r = syn.synthesize(&p, &cols).unwrap();
        let Some(learned) = r.predicate else { continue };
        let all_vars = p.columns();
        // Every tuple satisfying p must satisfy the reduction.
        let mut counter = 0;
        for a in -15i64..=15 {
            for b in -15i64..=15 {
                for c in -15i64..=15 {
                    let m: HashMap<String, Value> = all_vars
                        .iter()
                        .zip([a, b, c])
                        .map(|(n, v)| (n.clone(), Value::Int(v)))
                        .collect();
                    if eval_pred(&p, &m) == Some(true) {
                        counter += 1;
                        assert_eq!(
                            eval_pred(&learned, &m),
                            Some(true),
                            "{sql}: learned {learned} rejects ({a},{b},{c})"
                        );
                    }
                }
            }
        }
        assert!(counter > 0, "{sql}: grid missed the satisfiable region");
    }
}

/// Workload queries round-trip: generate → SQL → parse → plan → execute.
#[test]
fn workload_queries_execute() {
    let queries = sia::tpch::generate_workload(&sia::tpch::WorkloadConfig {
        count: 5,
        seed: 77,
        ..sia::tpch::WorkloadConfig::default()
    });
    let db = generate(&TpchConfig {
        scale_factor: 0.005,
        ..TpchConfig::default()
    });
    for q in &queries {
        let reparsed = parse_query(&q.sql()).unwrap();
        let r = db.run(&reparsed, OptimizerConfig::default()).unwrap();
        // The predicate references o_orderdate in every term, so the
        // optimizer cannot push anything into lineitem…
        let li_filters = r.plan.to_string().matches("SeqScan on lineitem").count();
        assert_eq!(li_filters, 1);
    }
}

/// Rewriting never changes results, across a workload sample.
#[test]
fn rewrites_preserve_semantics_on_data() {
    let queries = sia::tpch::generate_workload(&sia::tpch::WorkloadConfig {
        count: 6,
        seed: 555,
        ..sia::tpch::WorkloadConfig::default()
    });
    let cat = catalog();
    let db = generate(&TpchConfig {
        scale_factor: 0.005,
        ..TpchConfig::default()
    });
    let mut rewritten_any = false;
    for q in &queries {
        let mut syn = Synthesizer::new(SiaConfig {
            max_iterations: 10, // keep the test snappy
            ..SiaConfig::default()
        });
        let Ok(outcome) = rewrite_query(&mut syn, &q.query, &cat, "lineitem") else {
            continue;
        };
        let Some(rew) = outcome.rewritten else {
            continue;
        };
        rewritten_any = true;
        let cfg = OptimizerConfig::default();
        let a = db.run(&q.query, cfg).unwrap();
        let b = db.run(&rew, cfg).unwrap();
        assert_eq!(
            a.table.num_rows(),
            b.table.num_rows(),
            "query {} changed results:\n  orig {}\n  rew  {}",
            q.id,
            q.query,
            rew
        );
    }
    assert!(rewritten_any, "no query rewritten — seed drift?");
}

/// The baselines plug into the same predicates the synthesizer sees.
#[test]
fn baseline_comparison_on_paper_shapes() {
    use sia::core::baselines::transitive_closure;
    // TC succeeds on the simple column-to-column chain…
    let chain = parse_predicate("l_shipdate < o_orderdate AND o_orderdate < 5").unwrap();
    assert!(transitive_closure(&chain, &["l_shipdate".to_string()]).is_some());
    // …but not on the arithmetic shape, where Sia does.
    let complex = parse_predicate(
        "l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10 \
         AND l_shipdate - o_orderdate < 20 AND o_orderdate < 5",
    )
    .unwrap();
    assert!(
        transitive_closure(&complex, &["l_commitdate".to_string()]).is_none(),
        "TC should not see through 3-variable arithmetic"
    );
    let mut syn = Synthesizer::new(SiaConfig {
        max_iterations: 10,
        ..SiaConfig::default()
    });
    let r = syn
        .synthesize(&complex, &["l_commitdate".to_string()])
        .unwrap();
    assert!(
        r.predicate.is_some(),
        "Sia should bound l_commitdate (ship < orderdate+20 ≤ 24 ⇒ commit < ship+30)"
    );
}
