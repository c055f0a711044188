//! A synthesis run keeps one record, its `SynthStats`: the `cegis.*`
//! counters are read off it, and its three phase times partition the
//! run. Its answer's exit is counted once, under its own `synth.exit.*`
//! key. Checked on one request per exit of `Synthesizer::synthesize` (the
//! requests of `tests/golden.rs::every_exit_is_pinned`) and on a
//! warm-started run whose opening validates a derived bound. The `sia-obs`
//! collector is process-wide, so this lives alone in its own test binary
//! — one `#[test]`, nothing to race with.

use sia_core::{SiaConfig, SynthStats, Synthesizer};
use sia_obs::Counter;
use sia_smt::{Budget, QeConfig};
use sia_sql::parse_predicate;
use std::time::{Duration, Instant};

const COUNTERS: [Counter; 3] = [
    Counter::CegisRounds,
    Counter::CegisTrueSamples,
    Counter::CegisFalseSamples,
];

fn counters() -> [u64; 3] {
    let snapshot = sia_obs::snapshot();
    COUNTERS.map(|c| snapshot.counter(c))
}

/// Every `synth.exit.*` counter, by name.
fn exits() -> Vec<(&'static str, u64)> {
    let snapshot = sia_obs::snapshot();
    let keys = Counter::ALL.into_iter();
    keys.filter(|c| c.name().starts_with("synth.exit."))
        .map(|c| (c.name(), snapshot.counter(c)))
        .collect()
}

#[test]
fn stats_are_one_record_that_the_counters_and_the_clock_agree_with() {
    let over_qe_budget = SiaConfig {
        qe: QeConfig {
            max_disjuncts: 0,
            ..QeConfig::default()
        },
        ..SiaConfig::default()
    };
    let expired = SiaConfig {
        budget: Budget::with_deadline(Duration::ZERO),
        ..SiaConfig::default()
    };
    let motivating = "a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0";
    let bounded = "a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0 AND b1 > a1 - 100";
    let requests: [(&str, &str, &[&str], SiaConfig); 14] = [
        (
            "unsat",
            "a < 0 AND a > 0 AND b = 1",
            &["b"],
            SiaConfig::default(),
        ),
        (
            "zone exact",
            "a + 10 > b + 20 AND b + 10 > 20",
            &["a"],
            SiaConfig::default(),
        ),
        ("zone bounds", bounded, &["a1", "a2"], SiaConfig::default()),
        (
            "keep-all",
            "a + a <> 6 AND a >= 0 AND a <= 10",
            &["a"],
            SiaConfig::default(),
        ),
        (
            "projection",
            motivating,
            &["a1", "a2"],
            SiaConfig::default(),
        ),
        (
            "finite TRUE",
            "a + a + b >= 0 AND a + a <= 4 AND b = 0",
            &["a"],
            SiaConfig::default(),
        ),
        (
            "finite FALSE",
            "a + a <> 6 AND b > 0 AND b > a",
            &["a"],
            SiaConfig::default(),
        ),
        (
            "finite FALSE in bounds",
            "a + a <> 6 AND a >= 0 AND a <= 10 AND 3 * b > a",
            &["a"],
            SiaConfig::default(),
        ),
        (
            "CEGQI over QE budget",
            "2*a - 3*b < 5 AND b < 0 AND 0 - b < 10",
            &["a"],
            over_qe_budget,
        ),
        (
            "CEGQI on Unknown",
            "2 * n_nationkey <= 5 * r_name AND r_name <= 3",
            &["n_nationkey"],
            SiaConfig::default(),
        ),
        ("SIA_v1", bounded, &["a1", "a2"], SiaConfig::v1()),
        ("SIA_v2", bounded, &["a1", "a2"], SiaConfig::v2()),
        ("expired budget", motivating, &["a1", "a2"], expired),
        (
            "warm bounds",
            "x - y <= 3 AND y <= 10 AND 2 * x + z >= 5 AND z <= 4",
            &["x"],
            SiaConfig::default(),
        ),
    ];
    sia_obs::enable();
    for (name, predicate, cols, config) in requests {
        let p = parse_predicate(predicate).unwrap();
        let cols: Vec<String> = cols.iter().map(ToString::to_string).collect();
        let (before, exits_before) = (counters(), exits());
        let start = Instant::now();
        let result = Synthesizer::new(config).synthesize(&p, &cols);
        let wall = start.elapsed();
        let after = counters();
        let deltas: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let counted: Vec<(&str, u64)> = (exits().into_iter().zip(exits_before))
            .map(|((key, a), (_, b))| (key, a - b))
            .filter(|(_, delta)| *delta > 0)
            .collect();
        let Ok(result) = result else {
            // The budget was spent before the run drew or learned anything.
            assert_eq!(deltas, [0, 0, 0], "{name}: {result:?}");
            assert_eq!(counted, [], "{name}: no exit was taken");
            continue;
        };
        let key = format!("synth.exit.{}", result.exit);
        assert_eq!(counted, [(key.as_str(), 1)], "{name}");
        let SynthStats {
            iterations,
            true_samples,
            false_samples,
            generation_time,
            learning_time,
            validation_time,
            ..
        } = result.stats;
        assert_eq!(
            deltas,
            [
                u64::from(iterations),
                true_samples as u64,
                false_samples as u64
            ],
            "{name}: cegis.{{rounds,true_samples,false_samples}} against {:?}",
            result.stats
        );
        let phases = generation_time + learning_time + validation_time;
        assert!(
            phases <= wall,
            "{name}: phases sum to {phases:?}, past the run's wall time {wall:?}"
        );
    }
    sia_obs::disable();
}
