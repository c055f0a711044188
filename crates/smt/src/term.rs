//! Linear terms and theory atoms.
//!
//! All arithmetic leaves of a formula are *atoms* comparing a linear term
//! with zero. Equality is expanded into a pair of `≤` atoms and
//! disequality into a pair of strict `<` atoms before solving, so the
//! theory layer only ever sees `≤ 0` / `< 0` bounds — exactly what the
//! simplex core consumes — plus integer divisibility constraints produced
//! by Cooper elimination.

use crate::var::VarId;
use sia_num::{BigInt, BigRat};
use std::cmp::Ordering;
use std::fmt;

/// A linear term `Σ coeffᵢ·varᵢ + constant` over exact rationals.
///
/// The coefficients are one flat vector sorted by variable with no zero
/// entry, so a term is canonical: equal terms compare, hash and print
/// equally, and a one-variable term is one small allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinTerm {
    coeffs: Vec<(VarId, BigRat)>,
    constant: BigRat,
}

impl LinTerm {
    /// The zero term.
    pub fn zero() -> Self {
        LinTerm::default()
    }

    /// A constant term.
    pub fn constant(c: BigRat) -> Self {
        LinTerm {
            coeffs: Vec::new(),
            constant: c,
        }
    }

    /// The term `1·v`.
    pub fn var(v: VarId) -> Self {
        LinTerm {
            coeffs: vec![(v, BigRat::one())],
            constant: BigRat::zero(),
        }
    }

    /// Build from raw parts, summing repeated variables and dropping zero
    /// coefficients.
    pub fn from_parts(coeffs: impl IntoIterator<Item = (VarId, BigRat)>, constant: BigRat) -> Self {
        let mut raw: Vec<(VarId, BigRat)> = coeffs.into_iter().collect();
        raw.sort_by_key(|(v, _)| *v);
        let mut merged: Vec<(VarId, BigRat)> = Vec::with_capacity(raw.len());
        for (v, k) in raw {
            match merged.last_mut() {
                Some((last, acc)) if *last == v => *acc += &k,
                _ => merged.push((v, k)),
            }
        }
        merged.retain(|(_, k)| !k.is_zero());
        LinTerm {
            coeffs: merged,
            constant,
        }
    }

    /// The constant component.
    pub fn constant_term(&self) -> &BigRat {
        &self.constant
    }

    /// Coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: VarId) -> BigRat {
        match self.coeffs.binary_search_by_key(&v, |(w, _)| *w) {
            Ok(i) => self.coeffs[i].1.clone(),
            Err(_) => BigRat::zero(),
        }
    }

    /// Iterate `(var, coeff)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &BigRat)> {
        self.coeffs.iter().map(|(v, k)| (*v, k))
    }

    /// Variables with non-zero coefficients.
    pub fn vars(&self) -> Vec<VarId> {
        self.coeffs.iter().map(|(v, _)| *v).collect()
    }

    /// True iff the term mentions `v`.
    pub fn mentions(&self, v: VarId) -> bool {
        self.coeffs.binary_search_by_key(&v, |(w, _)| *w).is_ok()
    }

    /// True iff the term has no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// `self + map(other)`, where `map` takes non-zero to non-zero: one
    /// merge of the two sorted coefficient vectors.
    fn merged(&self, other: &LinTerm, map: impl Fn(&BigRat) -> BigRat) -> LinTerm {
        let (a, b) = (&self.coeffs, &other.coeffs);
        let mut coeffs = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    coeffs.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    coeffs.push((b[j].0, map(&b[j].1)));
                    j += 1;
                }
                Ordering::Equal => {
                    let k = &a[i].1 + &map(&b[j].1);
                    if !k.is_zero() {
                        coeffs.push((a[i].0, k));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        coeffs.extend_from_slice(&a[i..]);
        coeffs.extend(b[j..].iter().map(|(v, k)| (*v, map(k))));
        LinTerm {
            coeffs,
            constant: &self.constant + &map(&other.constant),
        }
    }

    /// `self + other`
    pub fn add(&self, other: &LinTerm) -> LinTerm {
        self.merged(other, BigRat::clone)
    }

    /// `self - other`
    pub fn sub(&self, other: &LinTerm) -> LinTerm {
        self.merged(other, |k| -k)
    }

    /// `k·self`
    pub fn scale(&self, k: &BigRat) -> LinTerm {
        if k.is_zero() {
            return LinTerm::zero();
        }
        LinTerm {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * k)).collect(),
            constant: &self.constant * k,
        }
    }

    /// Negated term.
    pub fn negated(&self) -> LinTerm {
        LinTerm {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, -c)).collect(),
            constant: -&self.constant,
        }
    }

    /// Replace `v` with `replacement` (used by quantifier elimination).
    pub fn subst(&self, v: VarId, replacement: &LinTerm) -> LinTerm {
        let Ok(i) = self.coeffs.binary_search_by_key(&v, |(w, _)| *w) else {
            return self.clone();
        };
        let k = &self.coeffs[i].1;
        let mut rest = self.clone();
        rest.coeffs.remove(i);
        rest.merged(replacement, |c| c * k)
    }

    /// Evaluate under an assignment of rationals to variables.
    pub fn eval(&self, get: &impl Fn(VarId) -> BigRat) -> BigRat {
        let mut acc = self.constant.clone();
        for (v, k) in &self.coeffs {
            acc += &(k * &get(*v));
        }
        acc
    }

    /// Scale so all coefficients and the constant become integers with
    /// gcd 1; returns the scaled term. The scale factor is always positive,
    /// so comparisons with zero are preserved.
    pub fn normalize_integer(&self) -> LinTerm {
        let parts = self.coeffs.iter().map(|(_, k)| k);
        self.scale(&primitive_scale(parts.chain([&self.constant])))
    }

    /// The positive factor `f` for which `f·(Σ coeffᵢ·varᵢ)` has integer
    /// coefficients with gcd 1: the scale `normalize_integer` applies to
    /// the term with its constant dropped.
    pub(crate) fn coeff_scale(&self) -> BigRat {
        primitive_scale(self.coeffs.iter().map(|(_, k)| k))
    }
}

/// `l / g` for `l` the lcm of the denominators of `parts` and `g` the gcd
/// of the numerators of `l·parts` (`l` when every part is zero).
fn primitive_scale<'a>(parts: impl Iterator<Item = &'a BigRat> + Clone) -> BigRat {
    let l = parts.clone().fold(BigInt::one(), |l, k| l.lcm(k.denom()));
    let g = parts.fold(BigInt::zero(), |g, k| {
        g.gcd(&(k.numer() * &(&l / k.denom())))
    });
    if g.is_zero() {
        BigRat::from_int(l)
    } else {
        BigRat::new(l, g)
    }
}

impl fmt::Display for LinTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, k) in self.iter() {
            if first {
                write!(f, "{k}*{v}")?;
                first = false;
            } else if k.is_negative() {
                write!(f, " - {}*{v}", k.abs())?;
            } else {
                write!(f, " + {k}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())
        } else if !self.constant.is_zero() {
            write!(f, " + {}", self.constant)
        } else {
            Ok(())
        }
    }
}

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
        let v = self.term.eval(get);
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
    use std::collections::BTreeMap;

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
        assert_eq!(t.coeff(v(0)), q(2, 1));
        assert_eq!(t.coeff(v(1)), q(1, 1));
        assert_eq!(t.constant_term(), &q(5, 1));
        let u = t.sub(&LinTerm::var(v(1)));
        assert!(!u.mentions(v(1)));
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
        let s = t.subst(v(0), &r);
        assert_eq!(s.coeff(v(1)), q(3, 1));
        assert_eq!(s.constant_term(), &q(-5, 1));
        // substituting an absent var is a no-op
        assert_eq!(t.subst(v(5), &r), t);
    }

    #[test]
    fn eval() {
        let t = LinTerm::from_parts(vec![(v(0), q(1, 2))], q(1, 1));
        let r = t.eval(&|_| q(3, 1));
        assert_eq!(r, q(5, 2));
    }

    #[test]
    fn normalize_integer() {
        // x/2 + y/3 + 1/6  →  3x + 2y + 1
        let t = LinTerm::from_parts(vec![(v(0), q(1, 2)), (v(1), q(1, 3))], q(1, 6));
        let n = t.normalize_integer();
        assert_eq!(n.coeff(v(0)), q(3, 1));
        assert_eq!(n.coeff(v(1)), q(2, 1));
        assert_eq!(n.constant_term(), &q(1, 1));
        // 4x + 6  →  2x + 3
        let t2 = LinTerm::from_parts(vec![(v(0), q(4, 1))], q(6, 1));
        let n2 = t2.normalize_integer();
        assert_eq!(n2.coeff(v(0)), q(2, 1));
        assert_eq!(n2.constant_term(), &q(3, 1));
    }

    #[test]
    fn atom_negation() {
        let t = LinTerm::from_parts(vec![(v(0), q(1, 1))], q(-5, 1)); // x - 5
        let a = Atom::le(t.clone()); // x <= 5
        let n = a.negated(); // x > 5  i.e.  5 - x < 0
        assert_eq!(n.rel, Rel::Lt);
        assert_eq!(n.term.coeff(v(0)), q(-1, 1));
        // evaluation agrees
        let at6 = |_: VarId| q(6, 1);
        let at5 = |_: VarId| q(5, 1);
        assert!(!a.eval(&at6));
        assert!(n.eval(&at6));
        assert!(a.eval(&at5));
        assert!(!n.eval(&at5));
    }

    /// `LinTerm` as it was, over a `BTreeMap`: the reference model the
    /// flat representation must agree with, hash for hash.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
    struct RefTerm {
        coeffs: BTreeMap<VarId, BigRat>,
        constant: BigRat,
    }

    impl RefTerm {
        fn add_coeff(&mut self, v: VarId, k: &BigRat) {
            if k.is_zero() {
                return;
            }
            let c = self.coeffs.entry(v).or_insert_with(BigRat::zero);
            *c += k;
            if c.is_zero() {
                self.coeffs.remove(&v);
            }
        }

        fn add(&self, other: &RefTerm) -> RefTerm {
            let mut out = self.clone();
            out.constant += &other.constant;
            for (v, k) in &other.coeffs {
                out.add_coeff(*v, k);
            }
            out
        }

        fn scale(&self, k: &BigRat) -> RefTerm {
            if k.is_zero() {
                return RefTerm::default();
            }
            RefTerm {
                coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * k)).collect(),
                constant: &self.constant * k,
            }
        }

        fn sub(&self, other: &RefTerm) -> RefTerm {
            self.add(&other.scale(&-BigRat::one()))
        }

        fn subst(&self, v: VarId, r: &RefTerm) -> RefTerm {
            let Some(k) = self.coeffs.get(&v).cloned() else {
                return self.clone();
            };
            let mut out = self.clone();
            out.coeffs.remove(&v);
            out.add(&r.scale(&k))
        }

        fn normalize_integer(&self) -> RefTerm {
            let mut l = self.constant.denom().clone();
            for k in self.coeffs.values() {
                l = l.lcm(k.denom());
            }
            let scaled = self.scale(&BigRat::from_int(l));
            let mut g = scaled.constant.numer().abs();
            for k in scaled.coeffs.values() {
                g = g.gcd(k.numer());
            }
            if g.is_zero() || g.is_one() {
                return scaled;
            }
            scaled.scale(&BigRat::new(BigInt::one(), g))
        }
    }

    fn hash_of(x: &impl std::hash::Hash) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// `t` agrees with its reference `r` coefficient for coefficient, is
    /// sorted and zero-free, and hashes as the map-backed term did.
    fn assert_agrees(t: &LinTerm, r: &RefTerm, what: &str) {
        let got: Vec<(VarId, BigRat)> = t.iter().map(|(v, k)| (v, k.clone())).collect();
        let want: Vec<(VarId, BigRat)> = r.coeffs.iter().map(|(v, k)| (*v, k.clone())).collect();
        assert_eq!(got, want, "{what}: coefficients");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{what}: unsorted");
        assert!(got.iter().all(|(_, k)| !k.is_zero()), "{what}: zero entry");
        assert_eq!(t.constant_term(), &r.constant, "{what}: constant");
        for i in 0..VARS + 1 {
            let zero = BigRat::zero();
            assert_eq!(&t.coeff(v(i)), r.coeffs.get(&v(i)).unwrap_or(&zero));
            assert_eq!(t.mentions(v(i)), r.coeffs.contains_key(&v(i)));
        }
        assert_eq!(hash_of(t), hash_of(r), "{what}: hash");
    }

    /// Two equal terms built different ways compare, hash and print equally.
    fn assert_same(a: &LinTerm, b: &LinTerm) {
        assert_eq!(a, b);
        assert_eq!(hash_of(a), hash_of(b));
        assert_eq!(a.to_string(), b.to_string());
    }

    const VARS: u32 = 5;

    /// A random term with repeated and cancelling variables, and its
    /// reference built one coefficient at a time.
    fn random_term(rng: &mut impl sia_rand::Rng) -> (LinTerm, RefTerm) {
        let n = rng.gen_range(0usize..=6);
        let parts: Vec<(VarId, BigRat)> = (0..n)
            .map(|_| {
                let var = v(rng.gen_range(0..VARS));
                (var, q(rng.gen_range(-4i64..=4), rng.gen_range(1i64..=3)))
            })
            .collect();
        let constant = q(rng.gen_range(-9i64..=9), rng.gen_range(1i64..=4));
        let mut r = RefTerm {
            constant: constant.clone(),
            ..RefTerm::default()
        };
        for (var, k) in &parts {
            r.add_coeff(*var, k);
        }
        (LinTerm::from_parts(parts, constant), r)
    }

    #[test]
    fn flat_terms_agree_with_the_map_model() {
        use sia_rand::{Rng, SeedableRng};
        let mut rng = sia_rand::rngs::StdRng::seed_from_u64(0x11a7);
        for _ in 0..3_000 {
            let (a, ra) = random_term(&mut rng);
            let (b, rb) = random_term(&mut rng);
            let k = q(rng.gen_range(-3i64..=3), rng.gen_range(1i64..=2));
            let x = v(rng.gen_range(0..VARS));
            assert_agrees(&a, &ra, "from_parts");
            assert_agrees(&a.add(&b), &ra.add(&rb), "add");
            assert_agrees(&a.sub(&b), &ra.sub(&rb), "sub");
            assert_agrees(&a.scale(&k), &ra.scale(&k), "scale");
            assert_agrees(&a.negated(), &ra.scale(&-BigRat::one()), "negated");
            assert_agrees(&a.subst(x, &b), &ra.subst(x, &rb), "subst");
            assert_agrees(
                &a.normalize_integer(),
                &ra.normalize_integer(),
                "normalize_integer",
            );
            let mut vars_only = ra.clone();
            vars_only.constant = BigRat::zero();
            let scaled = LinTerm::from_parts(a.coeffs.clone(), BigRat::zero());
            assert_agrees(
                &scaled.scale(&a.coeff_scale()),
                &vars_only.normalize_integer(),
                "coeff_scale",
            );
            assert_same(&a.add(&b), &b.add(&a));
            assert_same(&a.sub(&b), &b.sub(&a).negated());
            assert_same(&a.sub(&a), &LinTerm::zero());
            let mut scaled: Vec<(VarId, BigRat)> = a.iter().map(|(w, c)| (w, c * &k)).collect();
            scaled.reverse();
            let constant = a.constant_term() * &k;
            assert_same(&a.scale(&k), &LinTerm::from_parts(scaled, constant));
        }
    }

    #[test]
    fn display() {
        let t = LinTerm::from_parts(vec![(v(0), q(2, 1)), (v(1), q(-1, 1))], q(-7, 1));
        assert_eq!(t.to_string(), "2*v0 - 1*v1 - 7");
        assert_eq!(Atom::lt(t).to_string(), "2*v0 - 1*v1 - 7 < 0");
        assert_eq!(LinTerm::zero().to_string(), "0");
    }
}
