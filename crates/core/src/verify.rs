//! Validation of learned predicates and unsatisfaction-region
//! construction (§5.5, §4.2).

use crate::encode::{EncodeError, PredEncoder};
use crate::prove::{Connective, Prover};
use sia_expr::Pred;
use sia_smt::{eliminate_exists, Formula, QeConfig, QeError, VarId};

/// Outcome of a validity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// `p ⇒ p₁` holds: the learned predicate preserves query semantics.
    Valid,
    /// A tuple satisfies `p` but not `p₁`.
    Invalid,
    /// Solver budget exhausted.
    Unknown,
}

/// `Verify` (§5.5): decide whether `p` implies `candidate` under
/// three-valued logic (see [`Prover::implies`]).
pub fn verify_implies(
    enc: &mut PredEncoder,
    p: &Pred,
    candidate: &Pred,
) -> Result<Validity, EncodeError> {
    Ok(Prover(enc).implies(p, candidate)?.0)
}

/// The unsatisfaction region over the kept columns:
/// `¬∃ others . p` (Def 4), computed exactly with Cooper elimination.
///
/// `p_formula` must be the two-valued encoding of `p`; `others` are the
/// solver variables to project out. All variables must be integer-sorted.
/// Every caller's are: synthesis encodes with [`PredEncoder::new`], which
/// treats every column, `DOUBLE` ones included, as an integer.
pub fn unsat_region(
    p_formula: &Formula,
    others: &[VarId],
    qe: &QeConfig,
) -> Result<Formula, QeError> {
    Ok(eliminate_exists(p_formula, others, qe)?.not())
}

/// Drop top-level conjuncts implied by the remaining ones (the CEGIS loop
/// conjoins one learned predicate per iteration, so the raw result is full
/// of superseded bounds). See [`Prover::drop_implied`].
pub fn remove_redundant_conjuncts(enc: &mut PredEncoder, p: &Pred) -> Pred {
    let conjuncts = p.conjuncts().into_iter().cloned().collect();
    Pred::and_all(Prover(enc).drop_implied(conjuncts, Connective::And))
}

/// Dual of [`remove_redundant_conjuncts`] for a top-level disjunction:
/// drop disjuncts that imply one of the remaining disjuncts. Used on each
/// learned disjunction-of-planes, where Alg 2 routinely emits a plane
/// subsumed by a later, weaker one.
pub fn remove_redundant_disjuncts(enc: &mut PredEncoder, p: &Pred) -> Pred {
    let Pred::Or(ds) = p else { return p.clone() };
    Pred::or_all(Prover(enc).drop_implied(ds.clone(), Connective::Or))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    #[test]
    fn valid_weaker_predicate() {
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a > 20 AND b < 5").unwrap();
        let weaker = parse_predicate("a > 10").unwrap();
        assert_eq!(
            verify_implies(&mut enc, &p, &weaker).unwrap(),
            Validity::Valid
        );
    }

    #[test]
    fn invalid_stronger_predicate() {
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a > 20").unwrap();
        let stronger = parse_predicate("a > 30").unwrap();
        assert_eq!(
            verify_implies(&mut enc, &p, &stronger).unwrap(),
            Validity::Invalid
        );
    }

    #[test]
    fn motivating_example_validity() {
        // p from §3.2; the paper's (sign-corrected) reduction a1 - a2 <= 28
        // is valid, while a1 - a2 <= 27 is not optimal-side-invalid… it is
        // still VALID to be weaker; a1 - a2 <= 20 cuts off satisfying
        // tuples and must be Invalid.
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
        let valid = parse_predicate("a1 - a2 <= 28").unwrap();
        assert_eq!(
            verify_implies(&mut enc, &p, &valid).unwrap(),
            Validity::Valid
        );
        let invalid = parse_predicate("a1 - a2 <= 20").unwrap();
        assert_eq!(
            verify_implies(&mut enc, &p, &invalid).unwrap(),
            Validity::Invalid
        );
    }

    #[test]
    fn unsat_region_matches_projection() {
        // p = a2 ≤ 18-ish region from the motivating example.
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
        let pf = enc.encode(&p).unwrap();
        let b1 = enc.value_var("b1");
        let region = unsat_region(&pf, &[b1], &QeConfig::default()).unwrap();
        // The unsatisfaction region must contain (50, 0) and not (-5, 1).
        let a1 = enc.value_var("a1");
        let a2 = enc.value_var("a2");
        let at = |x: i64, y: i64| {
            region
                .subst(a1, &sia_smt::LinTerm::constant(sia_num::BigRat::from(x)))
                .subst(a2, &sia_smt::LinTerm::constant(sia_num::BigRat::from(y)))
        };
        let truth = |f: &Formula| match f {
            Formula::True => true,
            Formula::False => false,
            g => g.eval(&|_| sia_num::BigRat::zero(), &|_| false),
        };
        assert!(truth(&at(50, 0)));
        assert!(!truth(&at(-5, 1)));
        assert!(truth(&at(0, 19))); // a2 = 19 > 18: unsatisfiable
        assert!(!truth(&at(0, 18)));
    }
}
