//! Linear forms `Σ aᵢ·xᵢ + c` over exact rationals.
//!
//! One representation serves every layer that handles the form: the
//! predicate language keys it by column name, the solver by variable
//! id. The coefficients are one flat vector sorted by key with no zero
//! entry, so a form is canonical — equal forms compare, hash and print
//! equally — and a one-key form is one small allocation. The form's
//! integer normalizations live here and nowhere else.

use crate::{BigInt, BigRat};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

/// A linear form `Σ coeffᵢ·keyᵢ + constant` with exact rational
/// coefficients, sorted by key, zero coefficients never stored.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinForm<K> {
    coeffs: Vec<(K, BigRat)>,
    constant: BigRat,
}

impl<K> Default for LinForm<K> {
    fn default() -> Self {
        LinForm {
            coeffs: Vec::new(),
            constant: BigRat::zero(),
        }
    }
}

impl<K: Ord + Clone> LinForm<K> {
    /// The zero form.
    pub fn zero() -> Self {
        LinForm::default()
    }

    /// A constant form.
    pub fn constant(c: BigRat) -> Self {
        LinForm {
            coeffs: Vec::new(),
            constant: c,
        }
    }

    /// The form `1·k`.
    pub fn var(k: K) -> Self {
        LinForm {
            coeffs: vec![(k, BigRat::one())],
            constant: BigRat::zero(),
        }
    }

    /// Build from raw parts, summing repeated keys and dropping zero
    /// coefficients.
    pub fn from_parts(coeffs: impl IntoIterator<Item = (K, BigRat)>, constant: BigRat) -> Self {
        let mut raw: Vec<(K, BigRat)> = coeffs.into_iter().collect();
        raw.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut merged: Vec<(K, BigRat)> = Vec::with_capacity(raw.len());
        for (k, c) in raw {
            match merged.last_mut() {
                Some((last, acc)) if *last == k => *acc += &c,
                _ => merged.push((k, c)),
            }
        }
        merged.retain(|(_, c)| !c.is_zero());
        LinForm {
            coeffs: merged,
            constant,
        }
    }

    /// The constant component.
    pub fn constant_term(&self) -> &BigRat {
        &self.constant
    }

    fn find<Q: Ord + ?Sized>(&self, k: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
    {
        self.coeffs.binary_search_by(|(w, _)| w.borrow().cmp(k))
    }

    /// Coefficient of `k` (zero if absent).
    pub fn coeff<Q: Ord + ?Sized>(&self, k: &Q) -> BigRat
    where
        K: Borrow<Q>,
    {
        match self.find(k) {
            Ok(i) => self.coeffs[i].1.clone(),
            Err(_) => BigRat::zero(),
        }
    }

    /// Iterate `(key, coeff)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &BigRat)> {
        self.coeffs.iter().map(|(k, c)| (k, c))
    }

    /// Keys with non-zero coefficients, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.coeffs.iter().map(|(k, _)| k)
    }

    /// True iff the form mentions `k`.
    pub fn mentions<Q: Ord + ?Sized>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.find(k).is_ok()
    }

    /// True iff the form has no keys.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Number of keys.
    pub fn num_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// `self + map(other)`, where `map` takes non-zero to non-zero: one
    /// merge of the two sorted coefficient vectors.
    fn merged(&self, other: &Self, map: impl Fn(&BigRat) -> BigRat) -> Self {
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
                    coeffs.push((b[j].0.clone(), map(&b[j].1)));
                    j += 1;
                }
                Ordering::Equal => {
                    let k = &a[i].1 + &map(&b[j].1);
                    if !k.is_zero() {
                        coeffs.push((a[i].0.clone(), k));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        coeffs.extend_from_slice(&a[i..]);
        coeffs.extend(b[j..].iter().map(|(v, k)| (v.clone(), map(k))));
        LinForm {
            coeffs,
            constant: &self.constant + &map(&other.constant),
        }
    }

    /// `self + other`
    pub fn add(&self, other: &Self) -> Self {
        self.merged(other, BigRat::clone)
    }

    /// `self - other`
    pub fn sub(&self, other: &Self) -> Self {
        self.merged(other, |k| -k)
    }

    /// `k·self`
    pub fn scale(&self, k: &BigRat) -> Self {
        if k.is_zero() {
            return LinForm::zero();
        }
        LinForm {
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, c)| (v.clone(), c * k))
                .collect(),
            constant: &self.constant * k,
        }
    }

    /// The negated form.
    pub fn negated(&self) -> Self {
        LinForm {
            coeffs: self.coeffs.iter().map(|(v, c)| (v.clone(), -c)).collect(),
            constant: -&self.constant,
        }
    }

    /// Replace `k` with `replacement` (used by quantifier elimination).
    pub fn subst<Q: Ord + ?Sized>(&self, k: &Q, replacement: &Self) -> Self
    where
        K: Borrow<Q>,
    {
        let Ok(i) = self.find(k) else {
            return self.clone();
        };
        let c = &self.coeffs[i].1;
        let mut rest = self.clone();
        rest.coeffs.remove(i);
        rest.merged(replacement, |r| r * c)
    }

    /// Evaluate under an assignment of rationals to keys.
    pub fn eval(&self, get: impl Fn(&K) -> BigRat) -> BigRat {
        let mut acc = self.constant.clone();
        for (v, k) in &self.coeffs {
            acc += &(k * &get(v));
        }
        acc
    }

    /// The primitive normalization: the factor `f` for which
    /// `f·Σ coeffᵢ·keyᵢ` has coprime integer coefficients and a positive
    /// first coefficient. `f` is negative exactly when the first
    /// coefficient is, which turns a comparison of the form around; it is
    /// one for a constant form.
    pub fn primitive_scale(&self) -> BigRat {
        let f = primitive_factor(self.coeffs.iter().map(|(_, k)| k));
        match self.coeffs.first() {
            Some((_, lead)) if lead.is_negative() => -f,
            _ => f,
        }
    }

    /// `self ≤ 0` over integer keys, as its tightest form: coefficients
    /// divided by their gcd into coprime integers (signs kept) and the
    /// constant rounded up, so `2x − 15 ≤ 0` becomes `x − 7 ≤ 0`.
    pub fn tightened_le(&self) -> Self {
        let t = self.scale(&self.primitive_scale().abs());
        let c = t.constant_term();
        t.add(&Self::constant(&BigRat::from_int(c.ceil()) - c))
    }

    /// Scale by the positive factor that makes every coefficient *and*
    /// the constant an integer, all with gcd 1. The sign is kept, so a
    /// comparison with zero is preserved.
    pub fn normalize_integer(&self) -> Self {
        let parts = self.coeffs.iter().map(|(_, k)| k);
        self.scale(&primitive_factor(parts.chain([&self.constant])))
    }

    /// Scale by the lcm of every denominator, the constant's included:
    /// the least positive multiple with integer parts.
    pub fn clear_denominators(&self) -> Self {
        let parts = self.coeffs.iter().map(|(_, k)| k);
        self.scale(&BigRat::from_int(denominator_lcm(
            parts.chain([&self.constant]),
        )))
    }
}

/// The lcm of the denominators of `parts` (one when there are none).
fn denominator_lcm<'a>(parts: impl Iterator<Item = &'a BigRat>) -> BigInt {
    parts.fold(BigInt::one(), |l, k| l.lcm(k.denom()))
}

/// `l / g` for `l` the lcm of the denominators of `parts` and `g` the gcd
/// of the numerators of `l·parts` (`l` when every part is zero).
fn primitive_factor<'a>(parts: impl Iterator<Item = &'a BigRat> + Clone) -> BigRat {
    let l = denominator_lcm(parts.clone());
    let g = parts.fold(BigInt::zero(), |g, k| {
        g.gcd(&(k.numer() * &(&l / k.denom())))
    });
    if g.is_zero() {
        BigRat::from_int(l)
    } else {
        BigRat::new(l, g)
    }
}

impl<K: fmt::Display> fmt::Display for LinForm<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, k) in &self.coeffs {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::hash::Hash;

    fn q(n: i64, d: i64) -> BigRat {
        BigRat::new(BigInt::from(n), BigInt::from(d))
    }

    /// The form as it was, over a `BTreeMap`: the reference model the flat
    /// representation must agree with, hash for hash.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct RefForm<K: Ord> {
        coeffs: BTreeMap<K, BigRat>,
        constant: BigRat,
    }

    impl<K: Ord + Clone> RefForm<K> {
        fn constant(constant: BigRat) -> Self {
            RefForm {
                coeffs: BTreeMap::new(),
                constant,
            }
        }

        fn add_coeff(&mut self, v: &K, k: &BigRat) {
            if k.is_zero() {
                return;
            }
            let c = self.coeffs.entry(v.clone()).or_insert_with(BigRat::zero);
            *c += k;
            if c.is_zero() {
                self.coeffs.remove(v);
            }
        }

        fn add(&self, other: &Self) -> Self {
            let mut out = self.clone();
            out.constant += &other.constant;
            for (v, k) in &other.coeffs {
                out.add_coeff(v, k);
            }
            out
        }

        fn scale(&self, k: &BigRat) -> Self {
            if k.is_zero() {
                return RefForm::constant(BigRat::zero());
            }
            RefForm {
                coeffs: self
                    .coeffs
                    .iter()
                    .map(|(v, c)| (v.clone(), c * k))
                    .collect(),
                constant: &self.constant * k,
            }
        }

        fn sub(&self, other: &Self) -> Self {
            self.add(&other.scale(&-BigRat::one()))
        }

        fn subst(&self, v: &K, r: &Self) -> Self {
            let Some(k) = self.coeffs.get(v).cloned() else {
                return self.clone();
            };
            let mut out = self.clone();
            out.coeffs.remove(v);
            out.add(&r.scale(&k))
        }

        fn clear_denominators(&self) -> Self {
            let mut l = self.constant.denom().clone();
            for k in self.coeffs.values() {
                l = l.lcm(k.denom());
            }
            self.scale(&BigRat::from_int(l))
        }

        fn normalize_integer(&self) -> Self {
            let scaled = self.clear_denominators();
            let mut g = scaled.constant.numer().abs();
            for k in scaled.coeffs.values() {
                g = g.gcd(k.numer());
            }
            if g.is_zero() || g.is_one() {
                return scaled;
            }
            scaled.scale(&BigRat::new(BigInt::one(), g))
        }

        /// The coefficients made coprime integers, then the sign turned
        /// so the first one is positive; the constant dropped.
        fn primitive(&self) -> Self {
            let vars_only = RefForm {
                coeffs: self.coeffs.clone(),
                constant: BigRat::zero(),
            };
            let n = vars_only.normalize_integer();
            match n.coeffs.values().next() {
                Some(lead) if lead.is_negative() => n.scale(&-BigRat::one()),
                _ => n,
            }
        }
    }

    fn hash_of(x: &impl Hash) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    const VARS: u32 = 5;

    /// String keys whose order is not the order of their indices.
    const NAMES: [&str; VARS as usize + 1] = ["l_tax", "a", "l_quantity", "b1", "a*b", "(a / 2)"];

    /// `t` agrees with its reference `r` coefficient for coefficient, is
    /// sorted and zero-free, and hashes as the map-backed form did.
    fn assert_agrees<K>(t: &LinForm<K>, r: &RefForm<K>, key: &impl Fn(u32) -> K, what: &str)
    where
        K: Ord + Clone + Hash + fmt::Debug,
    {
        let got: Vec<(K, BigRat)> = t.iter().map(|(v, k)| (v.clone(), k.clone())).collect();
        let want: Vec<(K, BigRat)> = r
            .coeffs
            .iter()
            .map(|(v, k)| (v.clone(), k.clone()))
            .collect();
        assert_eq!(got, want, "{what}: coefficients");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{what}: unsorted");
        assert!(got.iter().all(|(_, k)| !k.is_zero()), "{what}: zero entry");
        assert_eq!(t.constant_term(), &r.constant, "{what}: constant");
        for i in 0..VARS + 1 {
            let zero = BigRat::zero();
            assert_eq!(&t.coeff(&key(i)), r.coeffs.get(&key(i)).unwrap_or(&zero));
            assert_eq!(t.mentions(&key(i)), r.coeffs.contains_key(&key(i)));
        }
        assert_eq!(hash_of(t), hash_of(r), "{what}: hash");
    }

    /// Two equal forms built different ways compare, hash and print equally.
    fn assert_same<K: Ord + Clone + Hash + fmt::Debug + fmt::Display>(
        a: &LinForm<K>,
        b: &LinForm<K>,
    ) {
        assert_eq!(a, b);
        assert_eq!(hash_of(a), hash_of(b));
        assert_eq!(a.to_string(), b.to_string());
    }

    /// A random form with repeated and cancelling keys, and its reference
    /// built one coefficient at a time.
    fn random_form<K: Ord + Clone>(
        rng: &mut impl sia_rand::Rng,
        key: &impl Fn(u32) -> K,
    ) -> (LinForm<K>, RefForm<K>) {
        let n = rng.gen_range(0usize..=6);
        let parts: Vec<(K, BigRat)> = (0..n)
            .map(|_| {
                let var = key(rng.gen_range(0..VARS));
                (var, q(rng.gen_range(-4i64..=4), rng.gen_range(1i64..=3)))
            })
            .collect();
        let constant = q(rng.gen_range(-9i64..=9), rng.gen_range(1i64..=4));
        let mut r = RefForm::constant(constant.clone());
        for (var, k) in &parts {
            r.add_coeff(var, k);
        }
        (LinForm::from_parts(parts, constant), r)
    }

    /// Every operation of the flat form against the map model, for one
    /// key type.
    fn agree_with_the_map_model<K>(key: impl Fn(u32) -> K)
    where
        K: Ord + Clone + Hash + fmt::Debug + fmt::Display,
    {
        use sia_rand::{Rng, SeedableRng};
        let mut rng = sia_rand::rngs::StdRng::seed_from_u64(0x11a7);
        for _ in 0..3_000 {
            let (a, ra) = random_form(&mut rng, &key);
            let (b, rb) = random_form(&mut rng, &key);
            let k = q(rng.gen_range(-3i64..=3), rng.gen_range(1i64..=2));
            let x = key(rng.gen_range(0..VARS));
            assert_agrees(&a, &ra, &key, "from_parts");
            assert_agrees(&a.add(&b), &ra.add(&rb), &key, "add");
            assert_agrees(&a.sub(&b), &ra.sub(&rb), &key, "sub");
            assert_agrees(&a.scale(&k), &ra.scale(&k), &key, "scale");
            assert_agrees(&a.negated(), &ra.scale(&-BigRat::one()), &key, "negated");
            assert_agrees(&a.subst(&x, &b), &ra.subst(&x, &rb), &key, "subst");
            assert_agrees(
                &a.normalize_integer(),
                &ra.normalize_integer(),
                &key,
                "normalize_integer",
            );
            assert_agrees(
                &a.clear_denominators(),
                &ra.clear_denominators(),
                &key,
                "clear_denominators",
            );
            let vars_only = LinForm::from_parts(a.coeffs.clone(), BigRat::zero());
            assert_agrees(
                &vars_only.scale(&a.primitive_scale()),
                &ra.primitive(),
                &key,
                "primitive_scale",
            );
            let at = |v: &K| BigRat::from((0..VARS).position(|i| key(i) == *v).unwrap() as i64 - 2);
            let want = ra
                .coeffs
                .iter()
                .fold(ra.constant.clone(), |acc, (v, c)| &acc + &(c * &at(v)));
            assert_eq!(a.eval(at), want, "eval");
            assert_same(&a.add(&b), &b.add(&a));
            assert_same(&a.sub(&b), &b.sub(&a).negated());
            assert_same(&a.sub(&a), &LinForm::zero());
            let mut scaled: Vec<(K, BigRat)> = a.iter().map(|(w, c)| (w.clone(), c * &k)).collect();
            scaled.reverse();
            let constant = a.constant_term() * &k;
            assert_same(&a.scale(&k), &LinForm::from_parts(scaled, constant));
        }
    }

    #[test]
    fn flat_forms_agree_with_the_map_model() {
        agree_with_the_map_model(|i| i);
        agree_with_the_map_model(|i| NAMES[i as usize].to_string());
    }
}
