//! `sia-perf`: a quiet, closed-loop benchmark of the two things a user of
//! Sia sees — request → verified predicate through `sia-serve`, and SQL →
//! rows through `sia-engine` — with a per-layer table measured from
//! outside the product. See `bench/README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod engine;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod oracle;
pub mod proc;
pub mod report;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workload;
