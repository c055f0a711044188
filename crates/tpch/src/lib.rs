//! TPC-H-style data generation and the paper's 200-query benchmark
//! workload (§6.3), replacing dbgen and the authors' query generator.

#![warn(missing_docs)]

pub mod gen;
pub mod workload;

pub use gen::{catalog, generate, TpchConfig};
pub use workload::{
    generate_workload, is_satisfiable, BenchQuery, WorkloadConfig, LINEITEM_COLS, ORDERS_COL,
};
