//! Runtime impact of rewriting (Fig 9) and predicate selectivity
//! (Table 4): execute every rewritable benchmark query with and without
//! the synthesized predicate on TPC-H-style data at two scale factors.

use sia_core::{rewrite_query, Synthesizer};
use sia_engine::{Database, OptimizerConfig, QueryResult};
use sia_expr::Pred;
use sia_gen::tpch::{generate, generate_workload, TpchConfig, WorkloadConfig};
use sia_sql::Query;
use std::time::Duration;

/// One query's measurement at one scale factor.
#[derive(Debug, Clone)]
pub struct RuntimePoint {
    /// Workload query id.
    pub id: usize,
    /// Original execution time.
    pub original: Duration,
    /// Rewritten execution time.
    pub rewritten: Duration,
    /// Selectivity of the synthesized predicate on `lineitem`.
    pub selectivity: f64,
    /// Rows entering the join in the original plan.
    pub join_input_original: u64,
    /// Rows entering the join in the rewritten plan.
    pub join_input_rewritten: u64,
}

impl RuntimePoint {
    /// original / rewritten (> 1 means the rewrite is faster).
    pub fn speedup(&self) -> f64 {
        self.original.as_secs_f64() / self.rewritten.as_secs_f64().max(1e-9)
    }
}

/// Summary in the shape of Table 4.
#[derive(Debug, Clone, Default)]
pub struct RuntimeSummary {
    /// Queries where the rewrite is faster.
    pub faster: usize,
    /// Average selectivity of the faster class.
    pub faster_selectivity: f64,
    /// Faster by ≥ 2×.
    pub faster_2x: usize,
    /// Average selectivity of the ≥2× class.
    pub faster_2x_selectivity: f64,
    /// Queries where the rewrite is slower.
    pub slower: usize,
    /// Average selectivity of the slower class.
    pub slower_selectivity: f64,
    /// Slower by ≥ 2×.
    pub slower_2x: usize,
    /// Average selectivity of the ≥2×-slower class.
    pub slower_2x_selectivity: f64,
}

/// Compute the Table 4 classification from measurement points.
pub fn summarize(points: &[RuntimePoint]) -> RuntimeSummary {
    let mut s = RuntimeSummary::default();
    let mut acc = [(0usize, 0.0f64); 4]; // faster, 2x, slower, slower2x
    for p in points {
        let sp = p.speedup();
        if sp > 1.0 {
            acc[0].0 += 1;
            acc[0].1 += p.selectivity;
            if sp >= 2.0 {
                acc[1].0 += 1;
                acc[1].1 += p.selectivity;
            }
        } else {
            acc[2].0 += 1;
            acc[2].1 += p.selectivity;
            if sp <= 0.5 {
                acc[3].0 += 1;
                acc[3].1 += p.selectivity;
            }
        }
    }
    let avg = |(n, sum): (usize, f64)| if n == 0 { 0.0 } else { sum / n as f64 };
    s.faster = acc[0].0;
    s.faster_selectivity = avg(acc[0]);
    s.faster_2x = acc[1].0;
    s.faster_2x_selectivity = avg(acc[1]);
    s.slower = acc[2].0;
    s.slower_selectivity = avg(acc[2]);
    s.slower_2x = acc[3].0;
    s.slower_2x_selectivity = avg(acc[3]);
    s
}

/// A rewritable workload query with its synthesized predicate.
#[derive(Debug, Clone)]
pub struct RewrittenQuery {
    /// Workload query id.
    pub id: usize,
    /// Original query.
    pub original: Query,
    /// Rewritten query.
    pub rewritten: Query,
    /// The synthesized predicate.
    pub predicate: Pred,
    /// Whether the synthesis certified optimality.
    pub optimal: bool,
}

/// Rewrite every workload query that admits a lineitem-only predicate.
/// Returns (rewritten, total attempted).
pub fn rewrite_workload(
    count: usize,
    seed: u64,
    base: &sia_core::SiaConfig,
) -> (Vec<RewrittenQuery>, usize) {
    let catalog = sia_gen::tpch::catalog();
    let workload = generate_workload(&WorkloadConfig {
        count,
        seed,
        ..WorkloadConfig::default()
    });
    let mut out = Vec::new();
    for q in &workload {
        let mut syn = Synthesizer::new(base.clone());
        if let Ok(r) = rewrite_query(&mut syn, &q.query, &catalog, "lineitem") {
            if let (Some(rewritten), Some(pred)) = (r.rewritten, r.synthesized) {
                out.push(RewrittenQuery {
                    id: q.id,
                    original: q.query.clone(),
                    rewritten,
                    predicate: pred,
                    optimal: r.synthesis.optimal,
                });
            }
        }
    }
    (out, workload.len())
}

/// Run `query` with every filter evaluated afresh, as the paper's
/// PostgreSQL did: registering `orders` again first empties the
/// database's cache of filter results.
fn first_sight(db: &mut Database, query: &Query) -> QueryResult {
    let orders = db.table("orders").expect("an orders table").clone();
    db.insert("orders", orders);
    db.run(query, OptimizerConfig::default())
        .unwrap_or_else(|e| panic!("{query} runs: {e}"))
}

/// Execute original vs rewritten on a database; repeat and keep the best
/// time per side (standard noise reduction for in-memory runs). Every run
/// is a first sight of its filters.
pub fn measure(
    db: &mut Database,
    queries: &[RewrittenQuery],
    repetitions: u32,
) -> Vec<RuntimePoint> {
    let mut out = Vec::new();
    for rq in queries {
        let mut best_orig = Duration::MAX;
        let mut best_rew = Duration::MAX;
        let mut join_orig = 0;
        let mut join_rew = 0;
        for _ in 0..repetitions.max(1) {
            let ro = first_sight(db, &rq.original);
            let rr = first_sight(db, &rq.rewritten);
            assert_eq!(
                ro.table.num_rows(),
                rr.table.num_rows(),
                "semantic equivalence violated for query {}",
                rq.id
            );
            best_orig = best_orig.min(ro.elapsed);
            best_rew = best_rew.min(rr.elapsed);
            join_orig = ro.stats.join_input_rows;
            join_rew = rr.stats.join_input_rows;
        }
        let selectivity = db
            .selectivity("lineitem", &rq.predicate)
            .expect("predicate evaluates on lineitem");
        out.push(RuntimePoint {
            id: rq.id,
            original: best_orig,
            rewritten: best_rew,
            selectivity,
            join_input_original: join_orig,
            join_input_rewritten: join_rew,
        });
    }
    out
}

/// Engine scale factors of the runtime experiments: Fig 9 / Table 4 run
/// at both, the §2 example at the larger.
pub const SCALE_FACTORS: [f64; 2] = [0.02, 0.2];

/// The Fig 9 view: rewrite `queries` workload queries once, then measure
/// that one rewrite set (3 repetitions, best-of) at each scale factor.
pub fn report(queries: usize) -> String {
    eprintln!("rewriting {queries} queries…");
    let (rewritten, total) = rewrite_workload(queries, 0x51A_2021, &sia_core::SiaConfig::default());
    eprintln!(
        "{} rewritable; measuring at SF {} and SF {}…",
        rewritten.len(),
        SCALE_FACTORS[0],
        SCALE_FACTORS[1]
    );
    let per_sf = SCALE_FACTORS.map(|scale_factor| {
        let mut db = generate(&TpchConfig {
            scale_factor,
            ..TpchConfig::default()
        });
        crate::report::fig9(
            &format!("scale factor {scale_factor}"),
            &measure(&mut db, &rewritten, 3),
            rewritten.len(),
            total,
        )
    });
    per_sf.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_classification() {
        let mk = |orig_ms: u64, rew_ms: u64, sel: f64| RuntimePoint {
            id: 0,
            original: Duration::from_millis(orig_ms),
            rewritten: Duration::from_millis(rew_ms),
            selectivity: sel,
            join_input_original: 0,
            join_input_rewritten: 0,
        };
        let pts = vec![
            mk(100, 40, 0.3),   // 2.5x faster
            mk(100, 80, 0.7),   // faster
            mk(100, 110, 0.95), // slower
            mk(100, 250, 0.99), // 2.5x slower
        ];
        let s = summarize(&pts);
        assert_eq!(s.faster, 2);
        assert_eq!(s.faster_2x, 1);
        assert_eq!(s.slower, 2);
        assert_eq!(s.slower_2x, 1);
        assert!((s.faster_selectivity - 0.5).abs() < 1e-9);
        assert!((s.slower_selectivity - 0.97).abs() < 1e-9);
    }

    #[test]
    fn small_end_to_end() {
        // Tiny workload + tiny data: the pipeline holds together and
        // rewritten queries return identical row counts (asserted inside
        // `measure`).
        let (rewritten, total) = rewrite_workload(
            4,
            12345,
            &sia_core::SiaConfig {
                max_iterations: 2,
                initial_true: 4,
                initial_false: 4,
                per_iteration: 2,
                ..sia_core::SiaConfig::default()
            },
        );
        assert!(total == 4);
        if rewritten.is_empty() {
            return; // all four queries may be non-rewritable; fine here
        }
        let mut db = generate(&TpchConfig {
            scale_factor: 0.002,
            ..TpchConfig::default()
        });
        let points = measure(&mut db, &rewritten, 3);
        assert_eq!(db.filter_cache().hits, 0, "every run is a first sight");
        assert_eq!(points.len(), rewritten.len());
        for p in &points {
            assert!((0.0..=1.0).contains(&p.selectivity));
        }
    }
}
