//! Golden synthesis outputs: the printed predicate and the `optimal` flag
//! for a fixed set of requests, recorded at the commit before the
//! implication ladders in `sia-core` were merged into one `Prover`. The
//! synthesizer is deterministic (seeded sampling, exact arithmetic), so any
//! change to which solver questions are asked, or in what order, shows up
//! here as a different rendering.

use sia::core::{SiaConfig, Synthesizer};
use sia::expr::Pred;
use sia::sql::parse_predicate;
use sia_gen::{GenConfig, ZonePolicy};

fn render(p: &Pred, cols: &[String]) -> String {
    let r = Synthesizer::new(SiaConfig::default())
        .synthesize(p, cols)
        .expect("synthesis succeeds");
    let pred = r.predicate.map_or("NULL".to_string(), |q| q.to_string());
    format!("{pred} | optimal={}", r.optimal)
}

fn assert_golden(name: &str, actual: &[String], golden: &[&str]) {
    assert!(
        actual == golden,
        "{name}: synthesis output drifted from the recorded golden;\nactual:\n{}",
        actual
            .iter()
            .map(|l| format!("    {l:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// §3.2: keep {a1, a2} of the motivating predicate.
#[test]
fn motivating_example_is_pinned() {
    let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
    let got = render(&p, &["a1".to_string(), "a2".to_string()]);
    assert_golden("motivating", &[got], MOTIVATING);
}

/// The first 8 §6.3 tasks under the `exp_analyze` / `exp_serve` seed.
#[test]
fn paper_6_3_tasks_are_pinned() {
    let got: Vec<String> = sia_gen::paper_6_3_tasks(24, 2, 4, sia_gen::SEED_6_3_SERVE)
        .iter()
        .take(8)
        .map(|t| format!("{}: {}", t.id, render(&t.predicate, &t.cols)))
        .collect();
    assert_golden("paper_6_3", &got, PAPER_6_3);
}

/// Four zone-ineligible generated requests (the `serve_cegis` bed's shape):
/// static derivation gets no purchase, so the full CEGIS loop runs.
#[test]
fn zone_ineligible_requests_are_pinned() {
    let cfg = GenConfig {
        table: "lineitem".into(),
        count: 4,
        seed: 3,
        zone: ZonePolicy::Ineligible,
        min_terms: 2,
        max_terms: 2,
        cnf_weight: 1.0,
        nest_rate: 0.0,
        in_list_rate: 0.0,
        between_rate: 0.0,
        div_rate: 0.0,
        ..GenConfig::default()
    };
    let got: Vec<String> = sia_gen::generate(&cfg)
        .expect("valid generator config")
        .iter()
        .map(|r| format!("{} => {}", r.predicate, render(&r.predicate, &r.cols)))
        .collect();
    assert_golden("zone_ineligible", &got, ZONE_INELIGIBLE);
}

const MOTIVATING: &[&str] = &["a2 <= 18 AND a2 - a1 >= -28 | optimal=true"];

const PAPER_6_3: &[&str] = &[
    "q0: l_receiptdate - l_commitdate >= 145 | optimal=false",
    "q1: l_commitdate <= 10136 AND l_commitdate - l_shipdate <= 172 | optimal=true",
    "q2: l_commitdate >= 10276 | optimal=true",
    "q3: NULL | optimal=true",
    "q4: l_commitdate <= 8827 | optimal=true",
    "q5: NULL | optimal=true",
    "q6: l_commitdate >= 10060 | optimal=true",
    "q7: NULL | optimal=true",
];

const ZONE_INELIGIBLE: &[&str] = &[
    "l_orderdate >= DATE '1995-01-06' AND 5 * l_linenumber - l_quantity < -5 => l_orderdate >= 9136 AND (4 * l_orderdate + 3 * l_quantity - 12 * l_linenumber >= 36558 OR 0 - 2 * l_linenumber - l_quantity >= 6) | optimal=false",
    "2 * l_quantity - l_orderkey < -711677 AND l_orderdate - l_commitdate > -65 => l_commitdate - l_orderdate <= 64 AND l_orderkey - 2 * l_quantity >= 711678 | optimal=true",
    "l_quantity + l_orderkey < 853259 AND l_receiptdate > DATE '1995-03-14' => l_receiptdate >= 9204 AND 0 - l_orderkey - l_quantity >= -853258 | optimal=true",
    "l_linenumber - l_orderkey <= -711750 AND l_linenumber + l_quantity <= 32 => l_linenumber - l_orderkey <= -711750 AND 0 - l_linenumber - l_quantity >= -32 | optimal=true",
];
