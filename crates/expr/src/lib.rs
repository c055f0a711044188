//! The predicate / expression language of Sia (§4.1 of the paper).
//!
//! This crate is the shared vocabulary of the workspace:
//!
//! * [`expr`] — the AST (`Expr` arithmetic expressions, `Pred` predicates)
//!   with builder helpers, column analysis, NNF, and SQL rendering;
//! * [`types`] — SQL data types, runtime [`types::Value`]s, and calendar
//!   [`types::Date`]s with the DATE→INTEGER day-offset conversion the paper
//!   uses (§3.2, §5.2);
//! * [`schema`] — table schemas and a catalog for name resolution;
//! * [`eval`] — three-valued-logic evaluation (the executable semantics a
//!   synthesized predicate must preserve);
//! * [`linear`] — exact-rational linearization, the bridge to the SMT
//!   solver and the learner.

#![warn(missing_docs)]

pub mod eval;
pub mod expr;
pub mod linear;
pub mod schema;
pub mod types;

pub use eval::{accepts, compare_values, eval_expr, eval_pred, Tuple};
pub use expr::{col, lit, ArithOp, CmpOp, Expr, Pred};
pub use linear::{linearize, LinAtom, LinExpr, NonLinear, NonLinearPolicy};
pub use schema::{Catalog, ColumnDef, Schema, TableSchema};
pub use types::{DataType, Date, Value};
