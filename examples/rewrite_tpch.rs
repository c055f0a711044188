//! End-to-end query rewriting: take the paper's Q1 (§2), synthesize a
//! lineitem-only predicate, and execute both versions on generated
//! TPC-H-style data to see the push-down speed-up.
//!
//! ```sh
//! cargo run --release --example rewrite_tpch
//! ```

use sia::core::{rewrite_query, Synthesizer};
use sia::engine::OptimizerConfig;
use sia::sql::parse_query;
use sia::tpch::{catalog, generate, TpchConfig};

fn main() {
    let q1 = parse_query(
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
         AND l_shipdate - o_orderdate < 20 \
         AND o_orderdate < DATE '1993-06-01' \
         AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10",
    )
    .expect("Q1 parses");
    println!("Q1: {q1}\n");

    let mut synthesizer = Synthesizer::default();
    let outcome =
        rewrite_query(&mut synthesizer, &q1, &catalog(), "lineitem").expect("rewrite succeeds");
    let rewritten = outcome.rewritten.expect("Q1 admits a lineitem predicate");
    println!("synthesized predicate: {}", outcome.synthesized.unwrap());
    println!("rewritten query: {rewritten}\n");

    let db = generate(&TpchConfig {
        scale_factor: 0.05,
        ..TpchConfig::default()
    });
    let cfg = OptimizerConfig::default();
    let original = db.run(&q1, cfg).expect("Q1 runs");
    let faster = db.run(&rewritten, cfg).expect("rewritten runs");
    assert_eq!(
        original.table.num_rows(),
        faster.table.num_rows(),
        "semantic equivalence"
    );
    println!("original plan:\n{}", original.plan);
    println!("rewritten plan:\n{}", faster.plan);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!(
        "original: {:.1} ms ({} rows into the join)",
        ms(original.elapsed),
        original.stats.join_input_rows
    );
    println!(
        "rewritten: {:.1} ms ({} rows into the join) — {:.2}x",
        ms(faster.elapsed),
        faster.stats.join_input_rows,
        ms(original.elapsed) / ms(faster.elapsed)
    );
}
