//! Canonical linear atoms: the analyzer's view of a comparison.
//!
//! Every comparison `lhs ⋈ rhs` that linearizes is normalized to
//! `Σ aᵢ·xᵢ ⋈ c` where the `aᵢ` are coprime integers, the variables are
//! sorted by name, and the first coefficient is positive. Two syntactically
//! different atoms over the same half-space (e.g. `a - b <= 5` and
//! `2b - 2a >= -10`) thus share a *form key*, which is what lets the state
//! store one interval per linear form and recognize implications across
//! differently-written atoms.
//!
//! The congruence domain lives here as well: after dividing by the gcd the
//! integer-valued form surjects onto ℤ, so the only residual divisibility
//! fact is whether the bound is an integer — an equality against a
//! fractional bound can never hold, a disequality always does.

use sia_expr::{CmpOp, Expr, NonLinearPolicy};
use sia_num::{BigInt, BigRat};

/// A canonical linear form: sorted `(variable, coefficient)` pairs with
/// coprime integer coefficients, first coefficient positive. Empty for
/// constant atoms (the form is then the empty sum, i.e. 0).
pub type FormKey = Vec<(String, BigInt)>;

/// A comparison in canonical form: `form ⋈ bound`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonAtom {
    /// The canonical linear form on the left-hand side.
    pub key: FormKey,
    /// The (orientation-normalized) comparison operator.
    pub op: CmpOp,
    /// The rational bound on the right-hand side.
    pub bound: BigRat,
    /// True when every variable in the form ranges over the integers, so
    /// the form itself is integer-valued and bounds may be tightened.
    pub int_form: bool,
}

impl CanonAtom {
    /// Canonicalize `lhs op rhs`. Returns `None` when the comparison does
    /// not linearize (a genuinely non-linear expression even after folding
    /// composite column terms).
    ///
    /// `is_real` reports whether a variable ranges over the reals (e.g. a
    /// `DOUBLE` column); everything else — including the opaque composite
    /// variables produced by [`NonLinearPolicy::FoldComposite`], which the
    /// solver sorts as integers — is treated as integer-valued.
    pub fn from_cmp(
        op: CmpOp,
        lhs: &Expr,
        rhs: &Expr,
        is_real: &dyn Fn(&str) -> bool,
    ) -> Option<CanonAtom> {
        let atom =
            sia_expr::LinAtom::from_cmp(op, lhs, rhs, NonLinearPolicy::FoldComposite).ok()?;
        // `form + constant op 0` ⇔ `f·form op -f·constant` for the
        // primitive scale `f`, whose sign turns the comparison around.
        let f = atom.expr.primitive_scale();
        let terms: FormKey = atom
            .expr
            .iter()
            .map(|(name, coeff)| (name.clone(), (coeff * &f).numer().clone()))
            .collect();
        let bound = -(atom.expr.constant_term() * &f);
        let op = if f.is_negative() {
            atom.op.flipped()
        } else {
            atom.op
        };
        let int_form = terms.iter().all(|(name, _)| !is_real(name));
        Some(CanonAtom {
            key: terms,
            op,
            bound,
            int_form,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{col, lit};

    fn not_real(_: &str) -> bool {
        false
    }

    #[test]
    fn normalizes_orientation_and_gcd() {
        // 2b - 2a >= -10  ⇒  a - b <= 5
        let a = CanonAtom::from_cmp(
            CmpOp::Ge,
            &col("b").mul(lit(2)).sub(col("a").mul(lit(2))),
            &lit(-10),
            &not_real,
        )
        .unwrap();
        let b =
            CanonAtom::from_cmp(CmpOp::Le, &col("a").sub(col("b")), &lit(5), &not_real).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.op, b.op);
        assert_eq!(a.bound, b.bound);
        assert_eq!(a.bound, BigRat::from_int(5));
        assert!(a.int_form);
    }

    #[test]
    fn fractional_bound_survives_gcd_division() {
        // 2a = 5  ⇒  a = 5/2
        let a = CanonAtom::from_cmp(CmpOp::Eq, &col("a").mul(lit(2)), &lit(5), &not_real).unwrap();
        assert_eq!(a.key, vec![("a".to_string(), BigInt::one())]);
        assert!(!a.bound.is_integer());
    }

    #[test]
    fn constant_atom_has_empty_key() {
        let a = CanonAtom::from_cmp(CmpOp::Lt, &lit(1), &lit(2), &not_real).unwrap();
        assert!(a.key.is_empty());
        // 1 - 2 < 0 ⇔ 0 < 1.
        assert_eq!(a.bound, BigRat::from_int(1));
        assert_eq!(a.op, CmpOp::Lt);
    }

    #[test]
    fn composite_fold_and_real_columns() {
        // a*b is folded into an opaque integer-sorted variable.
        let a =
            CanonAtom::from_cmp(CmpOp::Le, &col("a").mul(col("b")), &lit(3), &not_real).unwrap();
        assert_eq!(a.key.len(), 1);
        assert!(a.int_form);

        let real = |name: &str| name == "x";
        let b = CanonAtom::from_cmp(CmpOp::Le, &col("x"), &lit(3), &real).unwrap();
        assert!(!b.int_form);
    }
}
