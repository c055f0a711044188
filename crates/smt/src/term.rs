//! Linear terms and theory atoms.
//!
//! All arithmetic leaves of a formula are *atoms* comparing a linear term
//! with zero. Equality is expanded into a pair of `≤` atoms and
//! disequality into a pair of strict `<` atoms before solving, so the
//! theory layer only ever sees `≤ 0` / `< 0` bounds — exactly what the
//! simplex core consumes — plus integer divisibility constraints produced
//! by Cooper elimination.

use crate::var::VarId;
use sia_num::{BigRat, LinForm};
use std::fmt;

/// A linear term `Σ coeffᵢ·varᵢ + constant` over exact rationals: the
/// workspace's one linear form, keyed by solver variable.
pub type LinTerm = LinForm<VarId>;

/// Relation of an atom against zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `term ≤ 0`
    Le,
    /// `term < 0`
    Lt,
}

/// A theory atom: `term ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The relation.
    pub rel: Rel,
    /// The linear term compared against zero.
    pub term: LinTerm,
}

impl Atom {
    /// `term ≤ 0`
    pub fn le(term: LinTerm) -> Self {
        Atom { rel: Rel::Le, term }
    }

    /// `term < 0`
    pub fn lt(term: LinTerm) -> Self {
        Atom { rel: Rel::Lt, term }
    }

    /// The logical negation: `¬(t ≤ 0) = (-t < 0)`, `¬(t < 0) = (-t ≤ 0)`.
    pub fn negated(&self) -> Atom {
        match self.rel {
            Rel::Le => Atom::lt(self.term.negated()),
            Rel::Lt => Atom::le(self.term.negated()),
        }
    }

    /// Evaluate under a rational assignment.
    pub fn eval(&self, get: &impl Fn(VarId) -> BigRat) -> bool {
        let v = self.term.eval(|v| get(*v));
        match self.rel {
            Rel::Le => !v.is_positive(),
            Rel::Lt => v.is_negative(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.rel {
            Rel::Le => "<=",
            Rel::Lt => "<",
        };
        write!(f, "{} {op} 0", self.term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_num::BigInt;

    fn q(n: i64, d: i64) -> BigRat {
        BigRat::new(BigInt::from(n), BigInt::from(d))
    }

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn term_algebra() {
        let a = LinTerm::var(v(0)).scale(&q(2, 1));
        let b = LinTerm::var(v(1));
        let t = a.add(&b).add(&LinTerm::constant(q(5, 1)));
        assert_eq!(t.coeff(&v(0)), q(2, 1));
        assert_eq!(t.coeff(&v(1)), q(1, 1));
        assert_eq!(t.constant_term(), &q(5, 1));
        let u = t.sub(&LinTerm::var(v(1)));
        assert!(!u.mentions(&v(1)));
        assert_eq!(u.num_vars(), 1);
    }

    #[test]
    fn cancellation_drops_vars() {
        let t = LinTerm::var(v(0)).sub(&LinTerm::var(v(0)));
        assert!(t.is_constant());
        assert!(t.constant_term().is_zero());
    }

    #[test]
    fn substitution() {
        // t = 2x + y + 1; x := y - 3  →  2y - 6 + y + 1 = 3y - 5
        let t = LinTerm::from_parts(vec![(v(0), q(2, 1)), (v(1), q(1, 1))], q(1, 1));
        let r = LinTerm::from_parts(vec![(v(1), q(1, 1))], q(-3, 1));
        let s = t.subst(&v(0), &r);
        assert_eq!(s.coeff(&v(1)), q(3, 1));
        assert_eq!(s.constant_term(), &q(-5, 1));
        // substituting an absent var is a no-op
        assert_eq!(t.subst(&v(5), &r), t);
    }

    #[test]
    fn eval() {
        let t = LinTerm::from_parts(vec![(v(0), q(1, 2))], q(1, 1));
        let r = t.eval(|_| q(3, 1));
        assert_eq!(r, q(5, 2));
    }

    #[test]
    fn normalize_integer() {
        // x/2 + y/3 + 1/6  →  3x + 2y + 1
        let t = LinTerm::from_parts(vec![(v(0), q(1, 2)), (v(1), q(1, 3))], q(1, 6));
        let n = t.normalize_integer();
        assert_eq!(n.coeff(&v(0)), q(3, 1));
        assert_eq!(n.coeff(&v(1)), q(2, 1));
        assert_eq!(n.constant_term(), &q(1, 1));
        // 4x + 6  →  2x + 3
        let t2 = LinTerm::from_parts(vec![(v(0), q(4, 1))], q(6, 1));
        let n2 = t2.normalize_integer();
        assert_eq!(n2.coeff(&v(0)), q(2, 1));
        assert_eq!(n2.constant_term(), &q(3, 1));
    }

    #[test]
    fn atom_negation() {
        let t = LinTerm::from_parts(vec![(v(0), q(1, 1))], q(-5, 1)); // x - 5
        let a = Atom::le(t.clone()); // x <= 5
        let n = a.negated(); // x > 5  i.e.  5 - x < 0
        assert_eq!(n.rel, Rel::Lt);
        assert_eq!(n.term.coeff(&v(0)), q(-1, 1));
        // evaluation agrees
        let at6 = |_: VarId| q(6, 1);
        let at5 = |_: VarId| q(5, 1);
        assert!(!a.eval(&at6));
        assert!(n.eval(&at6));
        assert!(a.eval(&at5));
        assert!(!n.eval(&at5));
    }

    #[test]
    fn display() {
        let t = LinTerm::from_parts(vec![(v(0), q(2, 1)), (v(1), q(-1, 1))], q(-7, 1));
        assert_eq!(t.to_string(), "2*v0 - 1*v1 - 7");
        assert_eq!(Atom::lt(t).to_string(), "2*v0 - 1*v1 - 7 < 0");
        assert_eq!(LinTerm::zero().to_string(), "0");
    }
}
