//! The library behind `sia-exp`, the one experiment driver: the paper's
//! evaluation as views over two shared computations, and the CI gates.
//!
//! | `sia-exp …` | Module | Reads |
//! |---|---|---|
//! | `motivating` (§2) | [`motivating`] | Q1 → Q2 at SF 0.2 |
//! | `fig6` (case study) | [`casestudy`] | 10 000 simulated log entries |
//! | `table2` `table3` (efficacy, efficiency) | [`suite`], [`report`] | the §6.3 sweep, with the v1/v2 baselines |
//! | `fig7` `fig8` (learning loop, samples) | [`suite`], [`report`] | the same sweep |
//! | `fig9` (+ Table 4) | [`runtime`] | one rewrite set at SF 0.02 and 0.2 |
//! | `limitations` (§6.7) | [`limitations`] | one hand predicate |
//! | `serve` | [`serve`] over [`load`] | → `BENCH_serve.json` |
//! | `soak` | [`soak`] over [`load`] | → `BENCH_soak.json` |
//! | `obs-overhead` | [`obs_overhead`] | — |
//!
//! Any list of views in one invocation shares one sweep; `--queries N`
//! sizes it (default 200, the paper's count). Each gate runs at the one
//! scale CI uses, prints and writes its results, and only then reports
//! the bars it missed through [`Gates`].

#![warn(missing_docs)]

pub mod casestudy;
pub mod limitations;
pub mod load;
pub mod motivating;
pub mod obs_overhead;
pub mod report;
pub mod runtime;
pub mod serve;
pub mod soak;
pub mod suite;
pub mod util;

/// The bars an experiment missed. A gate records here instead of
/// panicking so the run still prints and writes everything it measured;
/// `sia-exp` exits 1 when the list is non-empty.
#[derive(Debug, Default)]
pub struct Gates(Vec<String>);

impl Gates {
    /// Record `message` as a failure unless `ok`.
    pub fn require(&mut self, ok: bool, message: String) {
        if !ok {
            self.0.push(message);
        }
    }

    /// The failures recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.0
    }
}
