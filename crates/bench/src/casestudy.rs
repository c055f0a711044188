//! The MaxCompute case study (Fig 6), simulated.
//!
//! The paper examines one day of Alibaba MaxCompute production queries:
//! 204,287 *syntax-based prospective* queries (a cross-table predicate
//! blocks push-down into some table 𝒯 that has no own predicate) of which
//! 26,104 are *symbolically relevant* (Sia can actually derive an
//! unsatisfaction tuple for 𝒯's columns). The production log is
//! proprietary, so this module substitutes a calibrated synthetic
//! population:
//!
//! * the **classification itself is real** — queries are drawn from
//!   predicate templates and each template's symbolic relevance is decided
//!   with the workspace solver (unsatisfaction-tuple existence, §4.2),
//!   with template weights tuned to the paper's ≈12.8% relevant rate;
//! * the **resource marginals** are log-normal with parameters matched to
//!   the paper's headline landmark — 74.63% of queries run ≥ 10 s — and
//!   plausible CPU/memory co-scaling.

use crate::suite::has_unsat_tuple;
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};
use sia_sql::parse_predicate;

/// One simulated production query.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Execution time in seconds.
    pub exec_seconds: f64,
    /// CPU consumption in core-seconds.
    pub cpu_core_seconds: f64,
    /// Peak memory in GB.
    pub memory_gb: f64,
    /// Whether Sia can synthesize a push-down predicate for the blocked
    /// table (symbolically relevant).
    pub symbolically_relevant: bool,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct CaseStudyConfig {
    /// Number of syntax-based prospective queries to simulate (the paper
    /// examined 204,287; default scales down 20×).
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CaseStudyConfig {
    fn default() -> Self {
        CaseStudyConfig {
            queries: 10_000,
            seed: 0xA11BABA,
        }
    }
}

/// Predicate templates modelled on production shapes. Each entry is a
/// cross-table predicate over a blocked table `t` (columns `t.a`, `t.b`)
/// and another table (columns `u.x`, `u.y`), paired with its sampling
/// weight. Relevance is *computed*, not assumed.
fn templates() -> Vec<(&'static str, f64)> {
    vec![
        // Bounded difference + range on the other table: relevant.
        ("t.a - u.x < 30 AND u.x < 100", 0.06),
        // Equality through the other table's bounded column: relevant.
        ("t.a = u.x + 10 AND u.x >= 0 AND u.x <= 50", 0.04),
        // Two-sided window: relevant.
        (
            "t.a - u.x < 20 AND u.x - t.a < 5 AND u.x > 0 AND u.x < 200",
            0.03,
        ),
        // Difference with an unbounded partner column: not relevant.
        ("t.a - u.x < 30", 0.40),
        // Cross-table sum with free partner: not relevant.
        ("t.a + u.x > 0", 0.25),
        // Inequality chain that never bounds t.a: not relevant.
        ("t.a < u.x AND u.y < u.x", 0.22),
    ]
}

/// Generate the simulated log.
pub fn simulate(config: &CaseStudyConfig) -> Vec<LogEntry> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Decide each template's relevance once, with the real machinery.
    let classified: Vec<(f64, bool)> = templates()
        .into_iter()
        .map(|(sql, weight)| {
            let pred = parse_predicate(sql).expect("template parses");
            let relevant = has_unsat_tuple(&pred, &["t.a".to_string()]) == Some(true);
            (weight, relevant)
        })
        .collect();
    let total_weight: f64 = classified.iter().map(|(w, _)| w).sum();
    // Log-normal exec time: P(X ≥ 10 s) = 0.7463 with median 20 s
    // ⇒ μ = ln 20, σ = ln(20/10)/z₀.₇₄₆₃ ≈ 1.047.
    let mu = 20.0f64.ln();
    let sigma = 1.047;
    (0..config.queries)
        .map(|_| {
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut relevant = false;
            for (w, r) in &classified {
                if pick < *w {
                    relevant = *r;
                    break;
                }
                pick -= w;
            }
            let exec_seconds = (mu + sigma * normal(&mut rng)).exp();
            // CPU: parallel plans burn cores ~ uniform(4, 64) of the time.
            let cpu_core_seconds = exec_seconds * rng.gen_range(4.0..64.0);
            // Memory: lognormal around 8 GB.
            let memory_gb = (8.0f64.ln() + 0.9 * normal(&mut rng)).exp();
            LogEntry {
                exec_seconds,
                cpu_core_seconds,
                memory_gb,
                symbolically_relevant: relevant,
            }
        })
        .collect()
}

/// Standard normal via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fraction of entries with exec time ≥ threshold seconds.
pub fn fraction_at_least(entries: &[LogEntry], threshold: f64) -> f64 {
    if entries.is_empty() {
        return 0.0;
    }
    entries
        .iter()
        .filter(|e| e.exec_seconds >= threshold)
        .count() as f64
        / entries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_classify_as_designed() {
        for (sql, _) in templates() {
            let pred = parse_predicate(sql).unwrap();
            // Classification must be decidable for every template.
            assert!(
                has_unsat_tuple(&pred, &["t.a".to_string()]).is_some(),
                "template {sql} undecided"
            );
        }
    }

    #[test]
    fn relevant_rate_near_paper() {
        let log = simulate(&CaseStudyConfig {
            queries: 4000,
            seed: 7,
        });
        let rate = log.iter().filter(|e| e.symbolically_relevant).count() as f64 / log.len() as f64;
        // Paper: 26,104 / 204,287 ≈ 12.8%.
        assert!((0.08..0.18).contains(&rate), "rate {rate}");
    }

    #[test]
    fn exec_time_landmark() {
        let log = simulate(&CaseStudyConfig {
            queries: 4000,
            seed: 8,
        });
        let frac = fraction_at_least(&log, 10.0);
        // Paper: 74.63% ≥ 10 s.
        assert!((0.70..0.80).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let a = simulate(&CaseStudyConfig {
            queries: 50,
            seed: 9,
        });
        let b = simulate(&CaseStudyConfig {
            queries: 50,
            seed: 9,
        });
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.exec_seconds, y.exec_seconds);
            assert_eq!(x.symbolically_relevant, y.symbolically_relevant);
        }
    }
}
