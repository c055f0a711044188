//! `sia-gen`: a seed-deterministic, rule-based workload generator.
//!
//! The generator produces typed predicate-synthesis requests over a schema
//! registry (all TPC-H tables plus a synthetic wide table) with knobs for:
//!
//! - **shape** — CNF/DNF mix, nesting, IN-lists, BETWEEN, divisibility
//!   atoms, NULL-heavy and dictionary-encoded columns;
//! - **target selectivity** — constants drawn from empirical quantiles of
//!   sampled rows, measured under three-valued logic, repaired toward the
//!   target within a tolerance;
//! - **zone eligibility** — whether predicates stay inside the static
//!   derivation tier's difference-bound fragment or are forced out of it,
//!   so benchmarks can separate the static tier from learner/solver costs;
//! - **repetition and drift** — the cache-hit knob: requests replay earlier
//!   templates verbatim (canonical cache hits) or with drifted constants
//!   (near-miss traffic).
//!
//! Same config + seed → byte-identical workload; see `tests/prop.rs` for
//! the property suite. [`tpch`] builds the paper's TPC-H data and its §6.3
//! workload from the registry's `orders` and `lineitem`, and the §6.3
//! presets wrap that workload for the benchmark binaries.

#![warn(missing_docs)]

pub mod config;
pub mod file;
pub mod generate;
pub mod preset;
pub mod schema;
pub mod tpch;

pub use config::{GenConfig, ZonePolicy};
pub use file::{from_str, to_string, Workload, WORKLOAD_VERSION};
pub use generate::{generate, GenRequest};
pub use preset::{paper_6_3, paper_6_3_tasks, with_repeats, SEED_6_3_SERVE};
pub use schema::{schemas, table, tables, ColumnSpec, Dist, TableSpec};
