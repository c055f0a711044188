//! A from-scratch SMT solver for linear integer/real arithmetic, built for
//! Sia's predicate synthesis loop (replacing Z3 in the paper's stack).
//!
//! Components:
//!
//! * [`sat`] — CDCL SAT core (watched literals, 1UIP learning, VSIDS,
//!   Luby restarts);
//! * [`simplex`] — Dutertre–de Moura general simplex over exact rationals
//!   with delta-rational strict bounds;
//! * [`solver`] — the lazy DPLL(T) integration plus integer
//!   branch-and-bound and divisibility lowering: the public
//!   [`Solver`] façade;
//! * [`qe`] — Cooper's quantifier-elimination procedure for the
//!   `∃cols′. … ∧ ∀others. ¬p` formulas Sia uses to generate FALSE
//!   samples and decide optimality (§4.2, §5.3, §5.5), and a model-based
//!   CEGQI alternative used for ablation;
//! * [`omega`] — the Omega test's real and dark shadows: the exact
//!   integer projection, without divisibility literals, where every pair
//!   of bounds on an eliminated variable has a unit coefficient on one
//!   side;
//! * [`audit`] — a sampling soundness auditor for quantifier elimination,
//!   run on every elimination under the `checked` cargo feature;
//! * [`budget`] — deadlines: a copyable optional deadline ([`Budget`])
//!   polled by the CDCL, simplex, DPLL(T), and branch-and-bound loops so
//!   a caller-imposed time limit turns into an `Unknown` verdict instead
//!   of a wedged solve.
//!
//! Formulas ([`Formula`]) are built over linear terms ([`LinTerm`]) with
//! variables declared on the solver.

#![warn(missing_docs)]

pub mod audit;
pub mod budget;
pub mod formula;
pub mod omega;
pub mod qe;
pub mod sat;
pub mod simplex;
pub mod solver;
pub mod term;
pub mod var;

pub use budget::Budget;
pub use formula::Formula;
pub use omega::exact_shadow;
pub use qe::{eliminate_exists, QeConfig, QeError};
pub use solver::{Model, SmtResult, Solver};
pub use term::{Atom, LinTerm, Rel};
pub use var::{Sort, VarId, VarTable};
