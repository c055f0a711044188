//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` repeats them for the driver; `sia-perf
//! check` fails when the two disagree.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Defined on every workload.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("goodput_ops_s", "1/s", Higher, 0.25),
    e2e("latency_ms", "ms", Lower, 0.25),
    e2e("latency_tail_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    e2e("ok_share", "share", Higher, 0.01),
    e2e("useful_share", "share", Higher, 0.01),
    e2e("rows_cut_share", "share", Higher, 0.01),
];

/// Single layers, from the traced run. Layer = crate name.
pub const PER_LAYER: [MetricDef; 55] = [
    layer("serve.wire_us", "us", Lower),
    layer("serve.queue_us", "us", Lower),
    layer("serve.admit_us", "us", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.render_us", "us", Lower),
    layer("serve.hit_latency_us", "us", Lower),
    layer("serve.miss_latency_us", "us", Lower),
    layer("serve.phase_coverage_share", "share", Higher),
    layer("cache.hit_share", "share", Higher),
    layer("cache.evictions_per_op", "1/op", Lower),
    layer("cache.canon_us", "us", Lower),
    layer("cache.lookup_us", "us", Lower),
    layer("cache.insert_us", "us", Lower),
    layer("analyze.lint_us", "us", Lower),
    layer("analyze.derive_us", "us", Lower),
    layer("analyze.derive_exact_share", "share", Higher),
    layer("analyze.close_us", "us", Lower),
    layer("core.synth_us", "us", Lower),
    layer("core.generate_us", "us", Lower),
    layer("core.learn_us", "us", Lower),
    layer("core.validate_us", "us", Lower),
    layer("core.cegis_rounds_per_op", "1/op", Lower),
    layer("core.static_share", "share", Higher),
    layer("core.optimal_share", "share", Higher),
    layer("core.cegis_time_share", "share", Lower),
    layer("smt.check_us", "us", Lower),
    layer("smt.check_kernel_us", "us", Lower),
    layer("smt.qe_us", "us", Lower),
    layer("smt.checks_per_op", "1/op", Lower),
    layer("smt.sat_conflicts_per_op", "1/op", Lower),
    layer("smt.simplex_pivots_per_op", "1/op", Lower),
    layer("svm.train_us", "us", Lower),
    layer("svm.train_kernel_us", "us", Lower),
    layer("svm.trainings_per_op", "1/op", Lower),
    layer("svm.epochs_per_training", "count", Lower),
    layer("num.kernel_us", "us", Lower),
    layer("num.allocs_per_kernel", "count", Lower),
    layer("alloc.allocs_per_op", "1/op", Lower),
    layer("alloc.bytes_per_op", "B/op", Lower),
    layer("sql.parse_us", "us", Lower),
    layer("engine.plan_us", "us", Lower),
    layer("engine.move_us", "us", Lower),
    layer("engine.optimize_us", "us", Lower),
    layer("engine.exec_us", "us", Lower),
    layer("engine.plan_share", "share", Lower),
    layer("engine.rows_scanned_per_op", "1/op", Lower),
    layer("engine.rows_filtered_per_op", "1/op", Lower),
    layer("engine.join_input_rows_per_op", "1/op", Lower),
    layer("engine.join_output_rows_per_op", "1/op", Lower),
    layer("engine.scans_pushed_per_op", "1/op", Higher),
    layer("engine.synthesized_per_op", "1/op", Higher),
    layer("engine.off_latency_us", "us", Lower),
    layer("engine.paid_share", "share", Higher),
    layer("obs.trace_overhead_share", "share", Lower),
    layer("replay.coverage_share", "share", Higher),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
