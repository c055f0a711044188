//! # Sia: synthesizing valid, optimal predicates over chosen columns
//!
//! The core algorithm of *Sia: Optimizing Queries using Learned
//! Predicates* (SIGMOD 2021). Given a predicate `p` over columns `Cols`
//! and a subset `Cols′ ⊆ Cols`, [`Synthesizer::synthesize`] produces a
//! predicate `p₁` over `Cols′` such that
//!
//! * **valid** — `p ⇒ p₁` (Def 2: the rewritten query keeps every tuple
//!   the original query keeps), verified with an SMT solver under
//!   three-valued logic, and
//! * **optimal** whenever certified — no *unsatisfaction tuple* (Def 4)
//!   is accepted (Lemma 4), decided via Cooper quantifier elimination.
//!
//! The synthesis loop is counter-example guided (Alg 1): an SMT solver
//! generates TRUE/FALSE training samples, an exact search over small
//! integer directions learns a candidate (Alg 2), verification either certifies it or yields counter-examples
//! that sharpen the next round.
//!
//! Module map: [`encode`] (SQL predicate → SMT formula, §5.2),
//! [`samples`] (§5.3), [`learn`](mod@crate::learn) (§5.4), [`verify`](mod@crate::verify) + [`cegqi`] (§5.5),
//! [`prove`] (the one implication ladder every validity, feasibility and
//! redundancy question walks),
//! [`synth`] (Alg 1), [`baselines`] (the transitive-closure baseline),
//! [`rewrite`] (query-level integration).

#![warn(missing_docs)]

pub mod baselines;
pub mod cegqi;
pub mod encode;
pub mod learn;
mod ledger;
pub mod prove;
pub mod rewrite;
pub mod samples;
pub mod synth;
pub mod verify;

pub use encode::{EncodeError, PredEncoder};
pub use learn::{atom_directions, learn, LearnOutput, LearnedPlane};
pub use prove::{Connective, Prover, Tier};
pub use rewrite::{rewrite_query, RewriteError, RewriteOutcome};
pub use samples::{SampleOutcome, Sampler};
pub use synth::{Exit, SiaConfig, SynthStats, SynthesisError, SynthesisResult, Synthesizer};
pub use verify::{
    decode_formula, remove_redundant_conjuncts, unsat_region, verify_implies, Validity,
};
