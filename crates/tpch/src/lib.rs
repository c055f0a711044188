//! The former home of the TPC-H data and §6.3 workload generator, which
//! live in [`sia_gen::tpch`]; the crate keeps the names callers outside
//! the workspace still import from it.

pub use sia_gen::tpch::{generate, generate_workload, TpchConfig, WorkloadConfig};
