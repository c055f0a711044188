//! Experiment harness for the Sia reproduction: one module (and one
//! binary under `src/bin/`) per table/figure of the paper's evaluation.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | §2 motivating example | [`motivating`] | `exp_motivating` |
//! | Fig 6 case study | [`casestudy`] | `exp_fig6` |
//! | Table 2 efficacy | [`suite`] | `exp_table2` |
//! | Table 3 efficiency | [`suite`] | `exp_table3` |
//! | Fig 7 learning loop | [`suite`] | `exp_fig7` |
//! | Fig 8 sample volumes | [`suite`] | `exp_fig8` |
//! | Fig 9 runtime impact | [`runtime`] | `exp_fig9` |
//! | Table 4 selectivity | [`runtime`] | printed by `exp_fig9` |
//! | §6.7 limitations | — | `exp_limitations` |
//!
//! `exp_all` chains everything. Experiment sizes respect the
//! `SIA_BENCH_QUERIES` / `SIA_BENCH_SF_SMALL` / `SIA_BENCH_SF_LARGE`
//! environment variables so CI can shrink them.

#![warn(missing_docs)]

pub mod casestudy;
pub mod motivating;
pub mod report;
pub mod runtime;
pub mod soak;
pub mod suite;
pub mod util;
