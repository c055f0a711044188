//! An in-memory columnar execution engine with a rule-based optimizer —
//! the PostgreSQL stand-in for reproducing the paper's runtime
//! experiments (§2, §6.6).
//!
//! The engine implements exactly the mechanism the paper's speed-ups rely
//! on: hash joins whose cost tracks input cardinality, per-row filters,
//! and a **predicate push-down below join** rewrite rule that fires only
//! when a conjunct's columns all come from one join input — which is what
//! a Sia-synthesized predicate makes possible.
//!
//! * [`table`] — columnar tables with validity masks;
//! * [`compile`] — name-resolved predicate compilation for the hot loop;
//! * [`plan`] — logical plans and EXPLAIN printing;
//! * [`optimize`](mod@crate::optimize) — split/merge/push-down rules to fixed point;
//! * [`moveraround`] — plan-wide pull-up / transition / push-down with
//!   synthesis at blocked join boundaries;
//! * [`exec`] — scans, filters, hash joins, with counters;
//! * [`db`] — the [`Database`] façade: `plan` / `run` / `run_sql`.

#![warn(missing_docs)]

pub mod compile;
pub mod db;
pub mod exec;
pub mod moveraround;
pub mod optimize;
pub mod plan;
pub mod table;

pub use compile::{compile_pred, CPred, ColRef};
pub use db::{Database, QueryResult};
pub use exec::{execute, ExecError, ExecStats, OpStats};
pub use moveraround::{
    lint_plan, move_around, GatheredPred, MoveAround, MoveAroundReport, Source, Synthesized,
};
pub use optimize::{optimize, OptimizerConfig};
pub use plan::Plan;
pub use table::{Column, ColumnData, Table};
