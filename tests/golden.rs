//! Golden synthesis outputs: the printed predicate and the `optimal` flag
//! for a fixed set of requests, recorded at the commit before the
//! implication ladders in `sia-core` were merged into one `Prover`. The
//! synthesizer is deterministic (seeded sampling, exact arithmetic), so any
//! change to which solver questions are asked, or in what order, shows up
//! here as a different rendering. The `serve_cegis` bed's ledger also pins
//! the path — iterations and final sample counts — and was recorded at the
//! commit before `sia-num` gained its inline form.

use sia::core::{SiaConfig, SynthesisResult, Synthesizer};
use sia::expr::{eval_pred, Pred, Value};
use sia::sql::parse_predicate;
use sia_gen::{GenConfig, ZonePolicy};

fn synthesize(p: &Pred, cols: &[String]) -> SynthesisResult {
    Synthesizer::new(SiaConfig::default())
        .synthesize(p, cols)
        .expect("synthesis succeeds")
}

fn rendered(r: &SynthesisResult) -> String {
    let pred = r
        .predicate
        .as_ref()
        .map_or("NULL".to_string(), |q| q.to_string());
    format!("{pred} | optimal={}", r.optimal)
}

fn render(p: &Pred, cols: &[String]) -> String {
    rendered(&synthesize(p, cols))
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

/// The first 8 §6.3 tasks under the `sia-exp serve` / static-tier seed.
#[test]
fn paper_6_3_tasks_are_pinned() {
    let got: Vec<String> = sia_gen::paper_6_3_tasks(24, 2, 4, sia_gen::SEED_6_3_SERVE)
        .iter()
        .take(8)
        .map(|t| format!("{}: {}", t.id, render(&t.predicate, &t.cols)))
        .collect();
    assert_golden("paper_6_3", &got, PAPER_6_3);
}

/// The `serve_cegis` bed's 15 zone-ineligible requests (the `GenConfig` is
/// copied from `bench/src/workload.rs::serve_cegis`): static derivation
/// gets no purchase, so the full CEGIS loop runs. Iterations and sample
/// counts are pinned next to the predicate, so a change that reaches the
/// same answer by a different path shows up too.
#[test]
fn zone_ineligible_requests_are_pinned() {
    let cfg = GenConfig {
        table: "lineitem".into(),
        count: 15,
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
        .map(|r| {
            let s = synthesize(&r.predicate, &r.cols);
            format!(
                "{} => {} | iterations={} true={} false={}",
                r.predicate,
                rendered(&s),
                s.stats.iterations,
                s.stats.true_samples,
                s.stats.false_samples
            )
        })
        .collect();
    assert_golden("zone_ineligible", &got, ZONE_INELIGIBLE);
}

/// The executor truncates integer division, so `a / 2 <= 10` admits
/// a = 21: an answer over `a` may not read the quotient as rational and
/// answer `a <= 20`. Every `a` the input accepts (with b = 0) must pass.
#[test]
fn integer_division_is_proved_as_the_executor_computes_it() {
    let p = parse_predicate("a / 2 <= 10 AND b < 5").unwrap();
    let got = synthesize(&p, &["a".to_string()]);
    let q = got.predicate.unwrap_or(Pred::Lit(true));
    assert_ne!(q.to_string(), "a <= 20");
    for a in -60..=60 {
        let row = |c: &str| match c {
            "a" => Value::Int(a),
            _ => Value::Int(0),
        };
        if eval_pred(&p, &row) == Some(true) {
            assert_eq!(eval_pred(&q, &row), Some(true), "{q} drops a = {a}");
        }
    }
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
    "l_orderdate >= DATE '1995-01-06' AND 5 * l_linenumber - l_quantity < -5 => l_orderdate >= 9136 AND (4 * l_orderdate + 3 * l_quantity - 12 * l_linenumber >= 36558 OR 0 - 2 * l_linenumber - l_quantity >= 6) | optimal=false | iterations=5 true=21 false=15",
    "2 * l_quantity - l_orderkey < -711677 AND l_orderdate - l_commitdate > -65 => l_commitdate - l_orderdate <= 64 AND l_orderkey - 2 * l_quantity >= 711678 | optimal=true | iterations=26 true=45 false=100",
    "l_quantity + l_orderkey < 853259 AND l_receiptdate > DATE '1995-03-14' => l_receiptdate >= 9204 AND 0 - l_orderkey - l_quantity >= -853258 | optimal=true | iterations=24 true=125 false=10",
    "l_linenumber - l_orderkey <= -711750 AND l_linenumber + l_quantity <= 32 => l_linenumber - l_orderkey <= -711750 AND 0 - l_linenumber - l_quantity >= -32 | optimal=true | iterations=17 true=80 false=20",
    "l_linenumber < 5 AND l_receiptdate + l_commitdate < 18815 => l_linenumber <= 4 AND 0 - l_commitdate - l_receiptdate >= -18814 | optimal=true | iterations=18 true=95 false=10",
    "l_shipdate + l_orderdate > 18337 AND l_extendedprice <= 55444.21 => l_extendedprice <= 55444 AND l_orderdate + l_shipdate >= 18338 | optimal=true | iterations=21 true=50 false=70",
    "3 * l_linenumber - l_quantity < -12 AND l_commitdate < DATE '1995-10-09' => l_commitdate <= 9411 AND l_quantity - 3 * l_linenumber >= 13 | optimal=true | iterations=4 true=25 false=10",
    "l_orderdate < DATE '1995-07-26' AND l_quantity + l_orderkey < 853259 => l_orderdate <= 9336 AND 0 - l_orderkey - l_quantity >= -853258 | optimal=true | iterations=22 true=115 false=10",
    "l_commitdate + l_shipdate > 18405 AND l_shipdate > DATE '1995-03-08' => l_shipdate >= 9198 AND l_commitdate + l_shipdate >= 18406 | optimal=true | iterations=17 true=40 false=60",
    "l_quantity > 24 AND l_shipdate + l_commitdate <= 18794 => l_quantity >= 25 AND 0 - l_commitdate - l_shipdate >= -18794 | optimal=true | iterations=19 true=100 false=10",
    "l_orderkey <= 853256 AND l_extendedprice + l_linenumber > 46807.5 => l_orderkey <= 853256 AND l_extendedprice + l_linenumber >= 46808 | optimal=true | iterations=28 true=70 false=85",
    "3 * l_linenumber - l_orderkey < -711736 AND l_linenumber > 4 => l_linenumber >= 5 AND l_orderkey >= 711751 | optimal=false | iterations=41 true=90 false=135",
    "l_commitdate + l_orderdate < 18744 AND l_orderdate <= DATE '1995-07-26' => l_orderdate <= 9337 AND 0 - l_commitdate - l_orderdate >= -18743 | optimal=true | iterations=18 true=85 false=20",
    "l_receiptdate + l_commitdate <= 18815 AND l_shipdate >= DATE '1995-03-08' => l_shipdate >= 9197 | optimal=false | iterations=20 true=105 false=10",
    "5 * l_extendedprice - l_orderkey > -623105.35 AND l_receiptdate < DATE '1995-10-23' => l_receiptdate <= 9425 AND (l_extendedprice >= -900000000000116058 OR 0 - l_orderkey >= 2249999999999989302) AND (l_extendedprice >= -900000000000120340 OR l_extendedprice - 4 * l_orderkey >= 8549999999999834727) | optimal=false | iterations=41 true=200 false=25",
];
