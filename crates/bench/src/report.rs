//! Rendering sweep/runtime results in the shape of the paper's tables and
//! figures.

use crate::casestudy::{fraction_at_least, LogEntry};
use crate::load::percentile;
use crate::runtime::{summarize, RuntimePoint};
use crate::suite::SweepResult;
use crate::util::{avg_ms, histogram, render_table};
use sia_core::SiaConfig;

const CATEGORY_NAMES: [&str; 3] = ["one", "two", "three"];

/// Table 1: the baseline configurations, read off [`SiaConfig`].
pub fn table1() -> String {
    let row = |name: &str, c: SiaConfig| {
        let per_iteration = match c.per_iteration {
            0 => "N/A".to_string(),
            n => n.to_string(),
        };
        vec![
            name.to_string(),
            c.max_iterations.to_string(),
            c.initial_true.to_string(),
            c.initial_false.to_string(),
            per_iteration,
        ]
    };
    render_table(
        &[
            "",
            "Max Iteration #",
            "# Initial True Samples",
            "# Initial False Samples",
            "# Samples per Iteration",
        ],
        &[
            row("SIA_v1", SiaConfig::v1()),
            row("SIA_v2", SiaConfig::v2()),
            row("SIA", SiaConfig::default()),
        ],
    )
}

/// Table 2: efficacy.
pub fn table2(r: &SweepResult) -> String {
    let rows: Vec<Vec<String>> = r
        .categories
        .iter()
        .enumerate()
        .map(|(i, c)| {
            vec![
                CATEGORY_NAMES[i].to_string(),
                c.possible.to_string(),
                c.sia.valid.to_string(),
                c.sia.optimal.to_string(),
                c.tc_valid.to_string(),
                c.v1.valid.to_string(),
                c.v1.optimal.to_string(),
                c.v2.valid.to_string(),
                c.v2.optimal.to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "# Cols",
            "# Possible",
            "SIA Valid",
            "SIA Optimal",
            "TC Valid",
            "v1 Valid",
            "v1 Optimal",
            "v2 Valid",
            "v2 Optimal",
        ],
        &rows,
    )
}

/// Table 3: efficiency (average per-run phase times).
pub fn table3(r: &SweepResult) -> String {
    let rows: Vec<Vec<String>> = r
        .categories
        .iter()
        .enumerate()
        .map(|(i, c)| {
            vec![
                CATEGORY_NAMES[i].to_string(),
                format!("{:.1}", avg_ms(&c.sia.generation)),
                format!("{:.1}", avg_ms(&c.sia.learning)),
                format!("{:.1}", avg_ms(&c.sia.validation)),
                format!("{:.1}", avg_ms(&c.v1.generation)),
                format!("{:.1}", avg_ms(&c.v1.learning)),
                format!("{:.1}", avg_ms(&c.v1.validation)),
                format!("{:.1}", avg_ms(&c.v2.generation)),
                format!("{:.1}", avg_ms(&c.v2.learning)),
                format!("{:.1}", avg_ms(&c.v2.validation)),
            ]
        })
        .collect();
    render_table(
        &[
            "# Cols",
            "SIA Gen(ms)",
            "SIA Learn(ms)",
            "SIA Val(ms)",
            "v1 Gen(ms)",
            "v1 Learn(ms)",
            "v1 Val(ms)",
            "v2 Gen(ms)",
            "v2 Learn(ms)",
            "v2 Val(ms)",
        ],
        &rows,
    )
}

/// Fig 7: distribution of iterations needed to reach the optimal
/// predicate, per category.
pub fn fig7(r: &SweepResult) -> String {
    let mut out = String::new();
    for (i, c) in r.categories.iter().enumerate() {
        let buckets = bucketize(
            &c.sia.iterations_to_optimal,
            &[(1, 10), (11, 20), (21, 30), (31, 41)],
        );
        let total_valid = c.sia.valid;
        let optimal = c.sia.iterations_to_optimal.len();
        out.push_str(&histogram(
            &format!(
                "Fig 7 ({} column(s)): iterations to optimal ({optimal} optimal of {total_valid} valid)",
                CATEGORY_NAMES[i]
            ),
            &buckets,
        ));
        out.push('\n');
    }
    out
}

/// Fig 8: distribution of the TRUE/FALSE sample counts drawn per run.
pub fn fig8(r: &SweepResult) -> String {
    let mut out = String::new();
    for (i, c) in r.categories.iter().enumerate() {
        let tb = bucketize(
            &c.sia
                .true_samples
                .iter()
                .map(|v| *v as u32)
                .collect::<Vec<_>>(),
            &[(0, 49), (50, 99), (100, 149), (150, 999)],
        );
        out.push_str(&histogram(
            &format!("Fig 8a ({} column(s)): # TRUE samples", CATEGORY_NAMES[i]),
            &tb,
        ));
        let fb = bucketize(
            &c.sia
                .false_samples
                .iter()
                .map(|v| *v as u32)
                .collect::<Vec<_>>(),
            &[(0, 49), (50, 99), (100, 149), (150, 999)],
        );
        out.push_str(&histogram(
            &format!("Fig 8b ({} column(s)): # FALSE samples", CATEGORY_NAMES[i]),
            &fb,
        ));
        out.push('\n');
    }
    out
}

/// Wrap the current [`sia_obs`] snapshot in a benchmark-JSON envelope so
/// `BENCH_*.json` trajectories carry per-phase solver breakdowns alongside
/// the rendered tables.
pub fn metrics_json(experiment: &str) -> String {
    format!(
        "{{\"experiment\":{},\"metrics\":{}}}",
        sia_obs::json_string(experiment),
        sia_obs::snapshot().to_json()
    )
}

fn bucketize(values: &[u32], ranges: &[(u32, u32)]) -> Vec<(String, usize)> {
    ranges
        .iter()
        .map(|(lo, hi)| {
            let count = values.iter().filter(|v| **v >= *lo && **v <= *hi).count();
            (format!("{lo}-{hi}"), count)
        })
        .collect()
}

/// Fig 9 scatter (per-point rows) + Table 4 summary at one scale factor.
pub fn fig9(label: &str, points: &[RuntimePoint], rewritten: usize, total: usize) -> String {
    let mut out = format!(
        "Fig 9 ({label}): {rewritten} of {total} queries rewritten; \
         columns are (id, original ms, rewritten ms, speedup, selectivity)\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.id.to_string(),
                format!("{:.2}", p.original.as_secs_f64() * 1e3),
                format!("{:.2}", p.rewritten.as_secs_f64() * 1e3),
                format!("{:.2}x", p.speedup()),
                format!("{:.3}", p.selectivity),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["id", "orig(ms)", "rewritten(ms)", "speedup", "selectivity"],
        &rows,
    ));
    let s = summarize(points);
    out.push_str(&format!("\nTable 4 ({label}):\n"));
    out.push_str(&render_table(
        &[
            "# Faster",
            "Avg Sel",
            "# 2x Faster",
            "Avg Sel",
            "# Slower",
            "Avg Sel",
            "# 2x Slower",
            "Avg Sel",
        ],
        &[vec![
            s.faster.to_string(),
            format!("{:.2}", s.faster_selectivity),
            s.faster_2x.to_string(),
            format!("{:.2}", s.faster_2x_selectivity),
            s.slower.to_string(),
            format!("{:.2}", s.slower_selectivity),
            s.slower_2x.to_string(),
            format!("{:.2}", s.slower_2x_selectivity),
        ]],
    ));
    out
}

/// Fig 6: resource CDF landmarks for the two query classes.
pub fn fig6(log: &[LogEntry]) -> String {
    let relevant: Vec<&LogEntry> = log.iter().filter(|e| e.symbolically_relevant).collect();
    let mut out = format!(
        "Fig 6 (simulated MaxCompute log): {} syntax-based prospective queries, \
         {} symbolically relevant ({:.1}%)\n",
        log.len(),
        relevant.len(),
        100.0 * relevant.len() as f64 / log.len().max(1) as f64,
    );
    out.push_str(&format!(
        "fraction of queries taking >= 10 s: {:.2}% (paper: 74.63%)\n\n",
        100.0 * fraction_at_least(log, 10.0)
    ));
    let metric = |f: fn(&LogEntry) -> f64, entries: &[&LogEntry]| -> Vec<f64> {
        entries.iter().map(|e| f(e)).collect()
    };
    let all: Vec<&LogEntry> = log.iter().collect();
    let mut rows = Vec::new();
    for (name, f) in [
        (
            "exec time (s)",
            (|e: &LogEntry| e.exec_seconds) as fn(&LogEntry) -> f64,
        ),
        ("CPU (core-s)", |e: &LogEntry| e.cpu_core_seconds),
        ("memory (GB)", |e: &LogEntry| e.memory_gb),
    ] {
        for (class, entries) in [("prospective", &all), ("relevant", &relevant)] {
            let mut vals = metric(f, entries);
            if vals.is_empty() {
                continue;
            }
            rows.push(vec![
                name.to_string(),
                class.to_string(),
                format!("{:.1}", percentile(&mut vals, 10.0)),
                format!("{:.1}", percentile(&mut vals, 25.0)),
                format!("{:.1}", percentile(&mut vals, 50.0)),
                format!("{:.1}", percentile(&mut vals, 75.0)),
                format!("{:.1}", percentile(&mut vals, 90.0)),
            ]);
        }
    }
    out.push_str(&render_table(
        &["metric", "class", "p10", "p25", "p50", "p75", "p90"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Category, SweepResult};

    #[test]
    fn tables_render_without_data() {
        let r = SweepResult {
            categories: [
                Category::default(),
                Category::default(),
                Category::default(),
            ],
            queries: 0,
        };
        assert!(table1().contains("SIA_v1"));
        assert!(table2(&r).contains("# Possible"));
        assert!(table3(&r).contains("SIA Gen(ms)"));
        assert!(fig7(&r).contains("Fig 7"));
        assert!(fig8(&r).contains("Fig 8a"));
    }

    #[test]
    fn table1_renders_the_three_configs() {
        let expected = [
            "+--------+-----------------+------------------------+-------------------------+-------------------------+",
            "|        | Max Iteration # | # Initial True Samples | # Initial False Samples | # Samples per Iteration |",
            "+--------+-----------------+------------------------+-------------------------+-------------------------+",
            "| SIA_v1 | 1               | 110                    | 110                     | N/A                     |",
            "| SIA_v2 | 1               | 220                    | 220                     | N/A                     |",
            "| SIA    | 41              | 10                     | 10                      | 5                       |",
            "+--------+-----------------+------------------------+-------------------------+-------------------------+",
        ];
        assert_eq!(table1(), expected.map(|l| format!("{l}\n")).concat());
    }

    #[test]
    fn fig9_renders() {
        let out = fig9("sf 0.05", &[], 0, 10);
        assert!(out.contains("0 of 10"));
        assert!(out.contains("Table 4"));
    }

    #[test]
    fn metrics_json_is_parseable_envelope() {
        let json = metrics_json("table3");
        assert!(json.starts_with("{\"experiment\":\"table3\",\"metrics\":{"));
        assert!(json.ends_with("}}"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"spans\""));
    }
}
