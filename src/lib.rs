//! # Sia — Optimizing Queries using Learned Predicates
//!
//! A from-scratch Rust reproduction of *Sia* (SIGMOD 2021): a system that
//! synthesizes **valid, optimal predicates** over a chosen subset of the
//! columns used by an existing query predicate, so a query optimizer can
//! apply predicate-centric rewrite rules (predicate push-down below joins in
//! particular) that the original predicate's column usage blocked.
//!
//! The workspace implements every substrate the paper stacks on:
//!
//! * [`smt`] — an SMT solver (CDCL(T) with a simplex core, integer
//!   branch-and-bound, and Cooper quantifier elimination) replacing Z3,
//! * [`sql`] / [`expr`] — a SQL front-end and predicate language replacing
//!   Apache Calcite,
//! * [`engine`] — an in-memory columnar execution engine with a rule-based
//!   optimizer replacing PostgreSQL,
//! * [`tpch`] — the TPC-H `orders` / `lineitem` data and the paper's
//!   200-query workload, built from `sia-gen`'s table registry,
//! * [`obs`] — zero-dependency structured tracing and metrics instrumenting
//!   every layer above,
//! * [`fault`] — deterministic fault injection (named failpoints) driving
//!   the chaos tests of every layer above,
//! * [`analyze`] — abstract interpretation over the predicate language
//!   (intervals, congruence, 3VL null-ability) whose implication and
//!   contradiction oracle prunes SMT calls and powers `sia lint`,
//! * [`core`] — Sia itself: the counter-example guided synthesis loop,
//!   with an exact search over integer directions replacing LibSVM,
//! * [`cache`] — a canonicalizing predicate cache (alpha-renamed templates,
//!   sharded LRU, JSONL persistence),
//! * [`serve`] — a concurrent synthesis service (worker pool, admission
//!   control, per-request deadlines over a JSONL-over-TCP protocol).
//!
//! ## Quickstart
//!
//! ```
//! use sia::core::{Synthesizer, SiaConfig};
//! use sia::sql::parse_predicate;
//!
//! // The paper's introduction example (§1): keep only A's column.
//! let p = parse_predicate("a + 10 > b + 20 AND b + 10 > 20").unwrap();
//! let mut syn = Synthesizer::new(SiaConfig { max_iterations: 8, ..SiaConfig::default() });
//! let result = syn.synthesize(&p, &["a".into()]).unwrap();
//! let learned = result.predicate.expect("a non-trivial valid predicate");
//! // b > 10 and a > b + 10 force a >= 22 over the integers.
//! assert_eq!(learned.to_string(), "a >= 22");
//! assert!(result.optimal);
//! ```

pub use sia_analyze as analyze;
pub use sia_cache as cache;
pub use sia_core as core;
pub use sia_engine as engine;
pub use sia_expr as expr;
pub use sia_fault as fault;
pub use sia_gen::tpch;
pub use sia_num as num;
pub use sia_obs as obs;
pub use sia_serve as serve;
pub use sia_smt as smt;
pub use sia_sql as sql;
