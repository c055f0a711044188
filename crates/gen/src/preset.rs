//! Presets reproducing the paper's §6.3 workload, so the benchmark binaries
//! share one builder instead of three hand-copied ones.
//!
//! `paper_6_3` delegates to `sia-tpch`'s generator, which is the original
//! source of the workload — the preset is byte-for-byte identical to what
//! the benchmark binaries used to build inline.

use sia_tpch::{generate_workload, BenchQuery, WorkloadConfig, LINEITEM_COLS};

use crate::generate::GenRequest;

/// The §6.3 seed shared by `sia-exp serve` and the static-tier test.
pub const SEED_6_3_SERVE: u64 = 0x51A_5E4E;

/// The paper's full §6.3 workload (200 queries, 3–8 conjuncts, the paper
/// seed) exactly as `sia_tpch::generate_workload` produces it.
pub fn paper_6_3() -> Vec<BenchQuery> {
    generate_workload(&WorkloadConfig::default())
}

/// §6.3-shaped synthesis tasks as the benchmark binaries consume them:
/// `count` queries with `min_terms..=max_terms` conjuncts under `seed`,
/// keeping only predicates that mention at least one lineitem column
/// (synthesis targets) and projecting `cols` down to those columns.
///
/// Ids are `q{n}` with the generator's original query numbering, so skipped
/// queries leave visible gaps — exactly the ids the old inline builders
/// produced.
pub fn paper_6_3_tasks(
    count: usize,
    min_terms: usize,
    max_terms: usize,
    seed: u64,
) -> Vec<GenRequest> {
    let queries = generate_workload(&WorkloadConfig {
        count,
        min_terms,
        max_terms,
        seed,
    });
    let mut out = Vec::new();
    for q in &queries {
        let cols: Vec<String> = q
            .predicate
            .columns()
            .into_iter()
            .filter(|c| LINEITEM_COLS.contains(&c.as_str()))
            .collect();
        if cols.is_empty() {
            // A predicate purely over o_orderdate has no lineitem columns
            // to synthesize for; drop it rather than emit a no-op task.
            continue;
        }
        out.push(GenRequest {
            id: format!("q{}", q.id),
            table: "lineitem".to_string(),
            predicate: q.predicate.clone(),
            cols,
            est_selectivity: None,
            template: None,
        });
    }
    out
}

/// Expand each task into `reps` requests with ids `{task.id}r{rep}`. Odd
/// repeats are alpha-renamed with a uniform `v{rep % 7}_` prefix: the
/// canonical template is unchanged, so they must hit the same cache entry
/// as the original shape.
pub fn with_repeats(tasks: &[GenRequest], reps: usize) -> Vec<GenRequest> {
    let mut out = Vec::with_capacity(tasks.len() * reps);
    for (ti, task) in tasks.iter().enumerate() {
        for rep in 0..reps {
            let (predicate, cols) = if rep % 2 == 1 {
                let k = rep % 7;
                let rename = |c: &str| format!("v{k}_{c}");
                (
                    task.predicate.map_columns(&|c| rename(c)),
                    task.cols.iter().map(|c| rename(c)).collect::<Vec<_>>(),
                )
            } else {
                (task.predicate.clone(), task.cols.clone())
            };
            out.push(GenRequest {
                id: format!("{}r{rep}", task.id),
                table: task.table.clone(),
                predicate,
                cols,
                est_selectivity: task.est_selectivity,
                template: (rep > 0).then_some(ti),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_replicate_the_old_inline_builder() {
        // The exact loop `sia-exp serve` used to carry inline;
        // the preset must reproduce it byte for byte.
        let queries = generate_workload(&WorkloadConfig {
            count: 8,
            min_terms: 2,
            max_terms: 4,
            seed: SEED_6_3_SERVE,
        });
        let mut expected = Vec::new();
        for q in &queries {
            let base_cols: Vec<String> = q
                .predicate
                .columns()
                .into_iter()
                .filter(|c| LINEITEM_COLS.contains(&c.as_str()))
                .collect();
            if base_cols.is_empty() {
                continue;
            }
            for rep in 0..3 {
                let (predicate, cols) = if rep % 2 == 1 {
                    let k = rep % 7;
                    let rename = |c: &str| format!("v{k}_{c}");
                    (
                        q.predicate.map_columns(&|c| rename(c)),
                        base_cols.iter().map(|c| rename(c)).collect::<Vec<_>>(),
                    )
                } else {
                    (q.predicate.clone(), base_cols.clone())
                };
                expected.push((format!("q{}r{rep}", q.id), predicate.to_string(), cols));
            }
        }
        let got: Vec<(String, String, Vec<String>)> =
            with_repeats(&paper_6_3_tasks(8, 2, 4, SEED_6_3_SERVE), 3)
                .into_iter()
                .map(|r| (r.id, r.predicate.to_string(), r.cols))
                .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn tasks_are_deterministic() {
        let a = paper_6_3_tasks(6, 2, 4, SEED_6_3_SERVE);
        let b = paper_6_3_tasks(6, 2, 4, SEED_6_3_SERVE);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
