//! Validation of learned predicates and unsatisfaction-region
//! construction (§5.5, §4.2).

use crate::encode::{EncodeError, PredEncoder};
use crate::prove::{Connective, Prover};
use sia_expr::{CmpOp, LinAtom, LinExpr, Pred};
use sia_num::BigRat;
use sia_smt::{eliminate_exists, Formula, LinTerm, QeConfig, QeError, Rel, VarId};

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

/// Decode a quantifier-free formula over integer-sorted columns — Cooper's
/// ∃-projection — into the predicate it denotes. `cols` names the
/// variables it may mention. Each atom is written in primitive integer
/// form: `t < 0` becomes `t + 1 ≤ 0`, the coefficients are divided by
/// their gcd and the constant rounded up, and a one-column atom reads
/// `col op k`. The error names what keeps `f` from being one: a
/// divisibility literal (over column names), a variable that is not a
/// kept column, or a constant no 64-bit INTEGER literal writes.
pub fn decode_formula(f: &Formula, cols: &[(&str, VarId)]) -> Result<Pred, String> {
    let name = |v: &VarId| match cols.iter().find(|(_, var)| var == v) {
        Some((c, _)) => Ok((*c).to_string()),
        None => Err(format!("variable {v}, not a kept column")),
    };
    let over_names = |t: &LinTerm| -> Result<LinExpr, String> {
        let parts = t.iter().map(|(v, k)| Ok((name(v)?, k.clone())));
        let parts = parts.collect::<Result<Vec<_>, String>>()?;
        Ok(LinExpr::from_parts(parts, t.constant_term().clone()))
    };
    match f {
        Formula::True => Ok(Pred::true_()),
        Formula::False => Ok(Pred::false_()),
        Formula::Atom(a) => {
            let expr = over_names(&a.term)?.clear_denominators();
            let expr = match a.rel {
                Rel::Le => expr,
                Rel::Lt => expr.add(&LinExpr::constant(BigRat::one())),
            };
            // Σ kᵢ·xᵢ + c ≤ 0 ⟺ Σ (kᵢ/g)·xᵢ + ⌈c/g⌉ ≤ 0 over the integers.
            let expr = expr.tightened_le();
            let negatives = expr.iter().filter(|(_, k)| k.is_negative()).count();
            let atom = if 2 * negatives > expr.num_vars() {
                LinAtom {
                    op: CmpOp::Ge,
                    expr: expr.negated(),
                }
            } else {
                LinAtom {
                    op: CmpOp::Le,
                    expr,
                }
            };
            atom.to_pred_exact()
                .ok_or_else(|| format!("`{atom}`, which needs a constant beyond 64 bits"))
        }
        Formula::Divides(m, t) => Err(format!("divisibility literal `{m} | ({})`", over_names(t)?)),
        Formula::NotDivides(m, t) => Err(format!(
            "divisibility literal `{m} !| ({})`",
            over_names(t)?
        )),
        Formula::BoolVar(v) => Err(format!("boolean variable {v}")),
        Formula::Not(g) => Ok(decode_formula(g, cols)?.not()),
        Formula::And(fs) => Ok(Pred::and_all(
            fs.iter()
                .map(|g| decode_formula(g, cols))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Formula::Or(fs) => Ok(Pred::or_all(
            fs.iter()
                .map(|g| decode_formula(g, cols))
                .collect::<Result<Vec<_>, _>>()?,
        )),
    }
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
    fn projections_decode_in_primitive_integer_form() {
        let project = |p: &str, keep: &[&str]| {
            let mut enc = PredEncoder::new();
            let f = enc.encode(&parse_predicate(p).unwrap()).unwrap();
            let kept: Vec<(String, VarId)> = keep
                .iter()
                .map(|c| (c.to_string(), enc.value_var(c)))
                .collect();
            let others: Vec<VarId> = enc
                .columns()
                .map(|(_, v)| v)
                .filter(|v| kept.iter().all(|(_, k)| k != v))
                .collect();
            let proj = eliminate_exists(&f, &others, &QeConfig::default()).unwrap();
            let names: Vec<(&str, VarId)> = kept.iter().map(|(c, v)| (c.as_str(), *v)).collect();
            decode_formula(&proj, &names).map(|q| q.to_string())
        };
        let cases = [
            // `2*s - 27588 > 0` is `s >= 13795`, not `0 - 2 * s < -27588`.
            ("2 * s > 27588 + b AND b >= 0", &["s"][..], "s >= 13795"),
            ("a1 - a2 < b + 29 AND b < 0", &["a1", "a2"], "a1 - a2 <= 27"),
            (
                "3 * a + 3 * c <= 10 + b AND b <= 0",
                &["a", "c"],
                "a + c <= 3",
            ),
            ("0 - a - c > b AND b > 5", &["a", "c"], "a + c <= -7"),
            ("a + a <> 6", &["a"], "a <= 2 OR a >= 4"),
        ];
        for (p, keep, expect) in cases {
            assert_eq!(project(p, keep).as_deref(), Ok(expect), "{p}");
        }
        // A divisibility literal is named over columns, not solver variables.
        let err = project("2 * n <= 5 * r AND r <= 3", &["n"]).unwrap_err();
        assert!(
            err.starts_with("divisibility literal `5 |") && err.contains('n'),
            "{err}"
        );
        // A constant no INTEGER literal writes is declined, not saturated.
        let err = project(
            "a - 9223372036854775807 - 9223372036854775807 > b AND b > 1",
            &["a"],
        );
        assert!(
            err.as_ref().is_err_and(|e| e.contains("beyond 64 bits")),
            "{err:?}"
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
