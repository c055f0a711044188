//! The synthesis sweep behind Table 2 (efficacy), Table 3 (efficiency),
//! Fig 7 (iterations to converge), and Fig 8 (sample volumes).
//!
//! For every benchmark query and every non-empty subset of the lineitem
//! date columns occurring in its predicate, run SIA, SIA_v1, SIA_v2, and
//! the transitive-closure baseline, and aggregate per subset size.

use sia_core::baselines::transitive_closure;
use sia_core::{unsat_region, PredEncoder, SiaConfig, SynthStats, Synthesizer};
use sia_gen::tpch::{generate_workload, BenchQuery, WorkloadConfig, LINEITEM_COLS};
use sia_smt::QeConfig;
use std::time::Duration;

/// Aggregated outcome of one synthesizer variant in one category.
#[derive(Debug, Default, Clone)]
pub struct VariantStats {
    /// Predicates that are valid *and* reference every requested column
    /// (the paper's non-zero-coefficient requirement, §6.4).
    pub valid: usize,
    /// Of those, certified optimal.
    pub optimal: usize,
    /// Per-run sample generation time.
    pub generation: Vec<Duration>,
    /// Per-run learning time.
    pub learning: Vec<Duration>,
    /// Per-run verification/optimality time.
    pub validation: Vec<Duration>,
    /// Learning-loop iterations (successful runs only).
    pub iterations: Vec<u32>,
    /// TRUE samples drawn in the run (successful runs only).
    pub true_samples: Vec<usize>,
    /// FALSE samples drawn in the run (successful runs only).
    pub false_samples: Vec<usize>,
    /// Iterations for runs that ended certified-optimal.
    pub iterations_to_optimal: Vec<u32>,
}

impl VariantStats {
    fn record(&mut self, requested: &[String], result: &sia_core::SynthesisResult) {
        let stats: &SynthStats = &result.stats;
        self.generation.push(stats.generation_time);
        self.learning.push(stats.learning_time);
        self.validation.push(stats.validation_time);
        let uses_all = result
            .predicate
            .as_ref()
            .map(|p| {
                let used = p.columns();
                requested.iter().all(|c| used.contains(c))
            })
            .unwrap_or(false);
        if uses_all {
            self.valid += 1;
            if result.optimal {
                self.optimal += 1;
            }
            self.iterations.push(stats.iterations);
            self.true_samples.push(stats.true_samples);
            self.false_samples.push(stats.false_samples);
            if result.optimal {
                self.iterations_to_optimal.push(stats.iterations);
            }
        }
    }
}

/// Per-category (subset size 1..=3) aggregation.
#[derive(Debug, Default, Clone)]
pub struct Category {
    /// (query, subset) pairs examined.
    pub attempted: usize,
    /// Pairs where a non-trivial valid predicate exists (non-empty
    /// unsatisfaction region — the paper's "# of possible predicates").
    pub possible: usize,
    /// SIA (counter-example guided, Table 1 row 3).
    pub sia: VariantStats,
    /// SIA_v1 (one-shot, 110+110).
    pub v1: VariantStats,
    /// SIA_v2 (one-shot, 220+220).
    pub v2: VariantStats,
    /// Transitive-closure baseline: # of queries where it derives a
    /// predicate over the requested columns.
    pub tc_valid: usize,
}

/// Full sweep output.
#[derive(Debug, Default, Clone)]
pub struct SweepResult {
    /// Index 0/1/2 ⇔ one/two/three requested columns.
    pub categories: [Category; 3],
    /// Number of workload queries processed.
    pub queries: usize,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload size (paper: 200).
    pub queries: usize,
    /// Workload seed.
    pub seed: u64,
    /// Run the one-shot baselines too (they dominate runtime via their
    /// 110/220-sample generation).
    pub run_baselines: bool,
    /// Base synthesizer configuration for the SIA variant (tests shrink
    /// the iteration budget; v1/v2 derive from their own presets).
    pub sia: SiaConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            queries: 200,
            seed: WorkloadConfig::default().seed,
            run_baselines: true,
            sia: SiaConfig::default(),
        }
    }
}

/// Does a non-trivial valid reduction exist? (Is the unsatisfaction
/// region non-empty?)
pub fn has_unsat_tuple(p: &sia_expr::Pred, cols: &[String]) -> Option<bool> {
    let mut enc = PredEncoder::new();
    let pf = enc.encode(p).ok()?;
    let keep: Vec<_> = cols.iter().map(|c| enc.value_var(c)).collect();
    let others: Vec<_> = enc
        .columns()
        .map(|(_, v)| v)
        .filter(|v| !keep.contains(v))
        .collect();
    let region = unsat_region(&pf, &others, &QeConfig::default()).ok()?;
    match enc.solver().check(&region) {
        r if r.is_sat() => Some(true),
        r if r.is_unsat() => Some(false),
        _ => None,
    }
}

/// Non-empty subsets of the lineitem columns present in the predicate,
/// grouped by size (1, 2, 3).
pub fn lineitem_subsets(p: &sia_expr::Pred) -> Vec<Vec<String>> {
    let pcols = p.columns();
    let present: Vec<String> = LINEITEM_COLS
        .iter()
        .map(|c| c.to_string())
        .filter(|c| pcols.contains(c))
        .collect();
    let mut out = Vec::new();
    let n = present.len();
    for mask in 1u32..(1 << n) {
        let subset: Vec<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| present[i].clone())
            .collect();
        out.push(subset);
    }
    out.sort_by_key(|s| s.len());
    out
}

/// Run the sweep.
pub fn run_sweep(config: &SweepConfig) -> SweepResult {
    let workload = generate_workload(&WorkloadConfig {
        count: config.queries,
        seed: config.seed,
        ..WorkloadConfig::default()
    });
    let mut result = SweepResult {
        queries: workload.len(),
        ..SweepResult::default()
    };
    for q in &workload {
        sweep_query(q, config, &mut result);
    }
    result
}

fn sweep_query(q: &BenchQuery, config: &SweepConfig, result: &mut SweepResult) {
    for subset in lineitem_subsets(&q.predicate) {
        let cat = &mut result.categories[subset.len() - 1];
        cat.attempted += 1;
        // "Possible" = a non-trivial valid reduction exists. The QE check
        // decides it directly; when it exhausts its budget (Unknown), a
        // verified valid predicate from any variant is equally a proof.
        let mut possible = has_unsat_tuple(&q.predicate, &subset) == Some(true);
        // SIA.
        let mut sia = Synthesizer::new(config.sia.clone());
        if let Ok(r) = sia.synthesize(&q.predicate, &subset) {
            possible |= r.predicate.as_ref().is_some_and(|p| !p.is_true());
            cat.sia.record(&subset, &r);
        }
        if possible {
            cat.possible += 1;
        }
        // Transitive closure.
        if let Some(tc) = transitive_closure(&q.predicate, &subset) {
            if !tc.is_true() {
                cat.tc_valid += 1;
            }
        }
        if config.run_baselines {
            let mut v1 = Synthesizer::new(SiaConfig::v1());
            if let Ok(r) = v1.synthesize(&q.predicate, &subset) {
                cat.v1.record(&subset, &r);
            }
            let mut v2 = Synthesizer::new(SiaConfig::v2());
            if let Ok(r) = v2.synthesize(&q.predicate, &subset) {
                cat.v2.record(&subset, &r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    #[test]
    fn subsets_grouped_by_size() {
        let p =
            parse_predicate("l_shipdate - o_orderdate < 20 AND l_commitdate - o_orderdate < 50")
                .unwrap();
        let subsets = lineitem_subsets(&p);
        assert_eq!(subsets.len(), 3); // {s}, {c}, {s,c}
        assert_eq!(subsets[0].len(), 1);
        assert_eq!(subsets[2].len(), 2);
    }

    #[test]
    fn unsat_tuple_existence() {
        // l_shipdate bounded through o_orderdate: tuples with huge
        // shipdate are unsatisfiable.
        let p =
            parse_predicate("l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'")
                .unwrap();
        assert_eq!(has_unsat_tuple(&p, &["l_shipdate".to_string()]), Some(true));
        // Unconstrained direction: no unsatisfaction tuples.
        let q = parse_predicate("l_shipdate - o_orderdate < 20").unwrap();
        assert_eq!(
            has_unsat_tuple(&q, &["l_shipdate".to_string()]),
            Some(false)
        );
    }

    #[test]
    fn tiny_sweep_runs() {
        let r = run_sweep(&SweepConfig {
            queries: 2,
            seed: 99,
            run_baselines: false,
            sia: SiaConfig {
                max_iterations: 2,
                initial_true: 4,
                initial_false: 4,
                per_iteration: 2,
                ..SiaConfig::default()
            },
        });
        assert_eq!(r.queries, 2);
        let attempted: usize = r.categories.iter().map(|c| c.attempted).sum();
        assert!(attempted >= 2);
        let total_possible: usize = r.categories.iter().map(|c| c.possible).sum();
        assert!(total_possible <= attempted);
        // SIA validity never exceeds possibility.
        for c in &r.categories {
            assert!(c.sia.valid <= c.possible);
            assert!(c.sia.optimal <= c.sia.valid);
        }
    }
}
