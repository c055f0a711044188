//! Quantifier-free formulas over linear-arithmetic atoms, boolean
//! variables, and integer divisibility constraints.

use crate::term::{Atom, LinTerm};
use crate::var::VarId;
use sia_num::{BigInt, BigRat};
use std::collections::BTreeSet;
use std::fmt;

/// A quantifier-free formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// Linear-arithmetic atom `t ⋈ 0`.
    Atom(Atom),
    /// `modulus | term` (integer divisibility; modulus > 0, term must have
    /// integer coefficients when solved).
    Divides(BigInt, LinTerm),
    /// `modulus ∤ term`.
    NotDivides(BigInt, LinTerm),
    /// A boolean variable.
    BoolVar(VarId),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// `t ≤ 0`
    pub fn le0(t: LinTerm) -> Formula {
        Self::atom_simplified(Atom::le(t))
    }

    /// `t < 0`
    pub fn lt0(t: LinTerm) -> Formula {
        Self::atom_simplified(Atom::lt(t))
    }

    /// `t = 0`, expanded to `t ≤ 0 ∧ -t ≤ 0`.
    pub fn eq0(t: LinTerm) -> Formula {
        Formula::le0(t.clone()).and(Formula::le0(t.negated()))
    }

    /// `t ≠ 0`, expanded to `t < 0 ∨ -t < 0`.
    pub fn ne0(t: LinTerm) -> Formula {
        Formula::lt0(t.clone()).or(Formula::lt0(t.negated()))
    }

    /// Constant-fold an atom with no variables.
    fn atom_simplified(a: Atom) -> Formula {
        if a.term.is_constant() {
            let sat = a.eval(&|_| BigRat::zero());
            if sat {
                Formula::True
            } else {
                Formula::False
            }
        } else {
            Formula::Atom(a)
        }
    }

    /// `modulus | term`, constant-folded when possible.
    pub fn divides(modulus: BigInt, term: LinTerm) -> Formula {
        assert!(
            modulus.is_positive(),
            "divisibility modulus must be positive"
        );
        if modulus.is_one() {
            return Formula::True;
        }
        if term.is_constant() {
            let c = term.constant_term();
            if c.is_integer() && c.numer().mod_floor(&modulus).is_zero() {
                return Formula::True;
            }
            if c.is_integer() {
                return Formula::False;
            }
        }
        Formula::Divides(modulus, term)
    }

    /// Conjunction with absorption and flattening.
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, f) | (f, Formula::True) => f,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::And(mut a), Formula::And(b)) => {
                a.extend(b);
                Formula::And(a)
            }
            (Formula::And(mut a), f) => {
                a.push(f);
                Formula::And(a)
            }
            (f, Formula::And(mut b)) => {
                b.insert(0, f);
                Formula::And(b)
            }
            (a, b) => Formula::And(vec![a, b]),
        }
    }

    /// Disjunction with absorption and flattening.
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::False, f) | (f, Formula::False) => f,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::Or(mut a), Formula::Or(b)) => {
                a.extend(b);
                Formula::Or(a)
            }
            (Formula::Or(mut a), f) => {
                a.push(f);
                Formula::Or(a)
            }
            (f, Formula::Or(mut b)) => {
                b.insert(0, f);
                Formula::Or(b)
            }
            (a, b) => Formula::Or(vec![a, b]),
        }
    }

    /// Negation (double negation collapses; literals negate in place).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(f) => *f,
            Formula::Atom(a) => Formula::Atom(a.negated()),
            Formula::Divides(m, t) => Formula::NotDivides(m, t),
            Formula::NotDivides(m, t) => Formula::Divides(m, t),
            f => Formula::Not(Box::new(f)),
        }
    }

    /// Conjunction of many formulas.
    pub fn and_all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::True, |a, f| a.and(f))
    }

    /// Disjunction of many formulas.
    pub fn or_all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::False, |a, f| a.or(f))
    }

    /// Negation-normal form: `Not` pushed onto atoms (where it is absorbed
    /// by [`Atom::negated`]) and divisibility literals.
    pub fn nnf(&self) -> Formula {
        fn go(f: &Formula, neg: bool) -> Formula {
            match f {
                Formula::True => {
                    if neg {
                        Formula::False
                    } else {
                        Formula::True
                    }
                }
                Formula::False => {
                    if neg {
                        Formula::True
                    } else {
                        Formula::False
                    }
                }
                Formula::Atom(a) => Formula::Atom(if neg { a.negated() } else { a.clone() }),
                Formula::Divides(m, t) => {
                    if neg {
                        Formula::NotDivides(m.clone(), t.clone())
                    } else {
                        Formula::Divides(m.clone(), t.clone())
                    }
                }
                Formula::NotDivides(m, t) => {
                    if neg {
                        Formula::Divides(m.clone(), t.clone())
                    } else {
                        Formula::NotDivides(m.clone(), t.clone())
                    }
                }
                Formula::BoolVar(v) => {
                    if neg {
                        Formula::Not(Box::new(Formula::BoolVar(*v)))
                    } else {
                        Formula::BoolVar(*v)
                    }
                }
                Formula::And(fs) => {
                    let kids: Vec<Formula> = fs.iter().map(|g| go(g, neg)).collect();
                    if neg {
                        Formula::or_all(kids)
                    } else {
                        Formula::and_all(kids)
                    }
                }
                Formula::Or(fs) => {
                    let kids: Vec<Formula> = fs.iter().map(|g| go(g, neg)).collect();
                    if neg {
                        Formula::and_all(kids)
                    } else {
                        Formula::or_all(kids)
                    }
                }
                Formula::Not(g) => go(g, !neg),
            }
        }
        go(self, false)
    }

    /// True iff `self.nnf() == *self`: negation wraps only boolean
    /// variables, and every `And` / `Or` has at least two children, none a
    /// constant or a connective of its own kind (`nnf` folds and flattens
    /// those).
    pub(crate) fn is_nnf(&self) -> bool {
        let flat = |fs: &[Formula], same: fn(&Formula) -> bool| {
            fs.len() >= 2
                && fs
                    .iter()
                    .all(|g| !same(g) && !matches!(g, Formula::True | Formula::False) && g.is_nnf())
        };
        match self {
            Formula::Not(g) => matches!(**g, Formula::BoolVar(_)),
            Formula::And(fs) => flat(fs, |g| matches!(g, Formula::And(_))),
            Formula::Or(fs) => flat(fs, |g| matches!(g, Formula::Or(_))),
            _ => true,
        }
    }

    /// True iff a `Divides` / `NotDivides` literal occurs anywhere.
    pub fn has_divisibility(&self) -> bool {
        match self {
            Formula::Divides(..) | Formula::NotDivides(..) => true,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(Formula::has_divisibility),
            Formula::Not(g) => g.has_divisibility(),
            _ => false,
        }
    }

    /// Collect free variables (arithmetic and boolean) into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => out.extend(a.term.keys()),
            Formula::Divides(_, t) | Formula::NotDivides(_, t) => out.extend(t.keys()),
            Formula::BoolVar(v) => {
                out.insert(*v);
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
            Formula::Not(f) => f.collect_vars(out),
        }
    }

    /// Free variables, sorted.
    pub fn vars(&self) -> Vec<VarId> {
        let mut s = BTreeSet::new();
        self.collect_vars(&mut s);
        s.into_iter().collect()
    }

    /// True iff the formula mentions `v`.
    pub fn mentions(&self, v: VarId) -> bool {
        match self {
            Formula::True | Formula::False => false,
            Formula::Atom(a) => a.term.mentions(&v),
            Formula::Divides(_, t) | Formula::NotDivides(_, t) => t.mentions(&v),
            Formula::BoolVar(b) => *b == v,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(|f| f.mentions(v)),
            Formula::Not(f) => f.mentions(v),
        }
    }

    /// Substitute an arithmetic variable by a linear term everywhere.
    pub fn subst(&self, v: VarId, replacement: &LinTerm) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::atom_simplified(Atom {
                rel: a.rel,
                term: a.term.subst(&v, replacement),
            }),
            Formula::Divides(m, t) => Formula::divides(m.clone(), t.subst(&v, replacement)),
            Formula::NotDivides(m, t) => {
                Formula::divides(m.clone(), t.subst(&v, replacement)).not()
            }
            Formula::BoolVar(b) => Formula::BoolVar(*b),
            Formula::And(fs) => Formula::and_all(fs.iter().map(|f| f.subst(v, replacement))),
            Formula::Or(fs) => Formula::or_all(fs.iter().map(|f| f.subst(v, replacement))),
            Formula::Not(f) => f.subst(v, replacement).not(),
        }
    }

    /// Evaluate under a full assignment (`arith` for numeric variables,
    /// `boolv` for boolean variables). Total — used as a model checker in
    /// tests and debug assertions.
    pub fn eval(&self, arith: &impl Fn(VarId) -> BigRat, boolv: &impl Fn(VarId) -> bool) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => a.eval(arith),
            Formula::Divides(m, t) => {
                let v = t.eval(|v| arith(*v));
                v.is_integer() && v.numer().mod_floor(m).is_zero()
            }
            Formula::NotDivides(m, t) => {
                let v = t.eval(|v| arith(*v));
                !(v.is_integer() && v.numer().mod_floor(m).is_zero())
            }
            Formula::BoolVar(v) => boolv(*v),
            Formula::And(fs) => fs.iter().all(|f| f.eval(arith, boolv)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(arith, boolv)),
            Formula::Not(f) => !f.eval(arith, boolv),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(|f| f.size()).sum::<usize>(),
            Formula::Not(f) => 1 + f.size(),
            _ => 1,
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => f.write_str("true"),
            Formula::False => f.write_str("false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Divides(m, t) => write!(f, "{m} | ({t})"),
            Formula::NotDivides(m, t) => write!(f, "{m} !| ({t})"),
            Formula::BoolVar(v) => write!(f, "{v}"),
            Formula::And(fs) => {
                f.write_str("(and")?;
                for g in fs {
                    write!(f, " {g}")?;
                }
                f.write_str(")")
            }
            Formula::Or(fs) => {
                f.write_str("(or")?;
                for g in fs {
                    write!(f, " {g}")?;
                }
                f.write_str(")")
            }
            Formula::Not(g) => write!(f, "(not {g})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64) -> BigRat {
        BigRat::from(n)
    }

    fn x() -> LinTerm {
        LinTerm::var(VarId(0))
    }

    #[test]
    fn builders_fold_constants() {
        assert_eq!(Formula::le0(LinTerm::constant(q(-1))), Formula::True);
        assert_eq!(Formula::le0(LinTerm::constant(q(1))), Formula::False);
        assert_eq!(Formula::lt0(LinTerm::constant(q(0))), Formula::False);
        assert_eq!(Formula::le0(LinTerm::constant(q(0))), Formula::True);
    }

    #[test]
    fn divides_folding() {
        assert_eq!(Formula::divides(BigInt::one(), x()), Formula::True);
        assert_eq!(
            Formula::divides(BigInt::from(3i64), LinTerm::constant(q(6))),
            Formula::True
        );
        assert_eq!(
            Formula::divides(BigInt::from(3i64), LinTerm::constant(q(7))),
            Formula::False
        );
    }

    #[test]
    fn and_or_absorption() {
        let a = Formula::le0(x());
        assert_eq!(Formula::True.and(a.clone()), a);
        assert_eq!(Formula::False.and(a.clone()), Formula::False);
        assert_eq!(Formula::False.or(a.clone()), a);
        assert_eq!(Formula::True.or(a.clone()), Formula::True);
    }

    #[test]
    fn negation_absorbs_into_literals() {
        let a = Formula::le0(x());
        match a.clone().not() {
            Formula::Atom(at) => assert_eq!(at.rel, crate::term::Rel::Lt),
            other => panic!("expected negated atom, got {other}"),
        }
        assert_eq!(a.clone().not().not(), a);
        let d = Formula::Divides(BigInt::from(2i64), x());
        assert_eq!(d.clone().not().not(), d);
    }

    #[test]
    fn eq_ne_expansion() {
        let e = Formula::eq0(x());
        match &e {
            Formula::And(fs) => assert_eq!(fs.len(), 2),
            other => panic!("expected And, got {other}"),
        }
        let n = Formula::ne0(x());
        match &n {
            Formula::Or(fs) => assert_eq!(fs.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn nnf() {
        let f = Formula::le0(x()).and(Formula::BoolVar(VarId(9))).not();
        let n = f.nnf();
        assert_eq!(n.to_string(), "(or -1*v0 < 0 (not v9))");
    }

    #[test]
    fn vars_and_mentions() {
        let f = Formula::le0(LinTerm::var(VarId(0)).add(&LinTerm::var(VarId(2))))
            .and(Formula::BoolVar(VarId(5)));
        assert_eq!(f.vars(), vec![VarId(0), VarId(2), VarId(5)]);
        assert!(f.mentions(VarId(2)));
        assert!(!f.mentions(VarId(1)));
    }

    #[test]
    fn substitution_folds() {
        // x <= 0 with x := -3  →  true
        let f = Formula::le0(x());
        assert_eq!(f.subst(VarId(0), &LinTerm::constant(q(-3))), Formula::True);
        assert_eq!(f.subst(VarId(0), &LinTerm::constant(q(3))), Formula::False);
    }

    #[test]
    fn eval_full() {
        // (x - 5 <= 0) and (2 | x)
        let f = Formula::le0(x().add(&LinTerm::constant(q(-5))))
            .and(Formula::Divides(BigInt::from(2i64), x()));
        let at4 = |_: VarId| q(4);
        let at6 = |_: VarId| q(6);
        let at3 = |_: VarId| q(3);
        let tt = |_: VarId| true;
        assert!(f.eval(&at4, &tt));
        assert!(!f.eval(&at6, &tt)); // fails bound
        assert!(!f.eval(&at3, &tt)); // fails divisibility
    }

    #[test]
    fn size() {
        let f = Formula::le0(x()).and(Formula::lt0(x()));
        assert_eq!(f.size(), 3);
        assert_eq!(f.or(Formula::True), Formula::True);
    }
}
