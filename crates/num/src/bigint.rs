//! Arbitrary-precision integers: a machine word inline, sign-magnitude
//! limbs beyond it.

use crate::gcd_u64;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;
use Repr::{Small, Wide};

/// An arbitrary-precision signed integer.
///
/// A value that fits an `i64` is held inline and computed on in `i128`;
/// only a wider one owns limbs. The form is canonical — a value that fits
/// is never held as limbs — so the derived `Eq` and `Hash` compare by value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

/// Invariant: `Wide` never holds a value in `i64::MIN..=i64::MAX`, so two
/// equal values always have the same variant. `Wide` is built in one place,
/// [`BigInt::from_limbs`], which demotes; any `i64` is a canonical `Small`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i64),
    Wide(Box<Limbs>),
}

/// Sign plus little-endian `u32` limbs. Invariants: `sign` is `-1` or `1`,
/// `limbs` has no trailing zero limb (and, by [`Repr`]'s invariant, at
/// least two limbs).
#[derive(Clone, PartialEq, Eq, Hash)]
struct Limbs {
    sign: i8,
    limbs: Vec<u32>,
}

impl BigInt {
    /// The integer zero.
    pub fn zero() -> Self {
        BigInt(Small(0))
    }

    /// The integer one.
    pub fn one() -> Self {
        BigInt(Small(1))
    }

    /// True iff `self == 0`.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Small(0))
    }

    /// True iff `self == 1`.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Small(1))
    }

    /// True iff `self > 0`.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// True iff `self < 0`.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// Sign of the value: -1, 0, or 1.
    pub fn signum(&self) -> i8 {
        match &self.0 {
            Small(v) => v.signum() as i8,
            Wide(w) => w.sign,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.0 {
            Small(v) => BigInt::from(v.unsigned_abs()),
            Wide(w) => BigInt::from_limbs(1, w.limbs.clone()),
        }
    }

    /// True iff the value is even.
    pub fn is_even(&self) -> bool {
        match &self.0 {
            Small(v) => v % 2 == 0,
            Wide(w) => w.limbs[0] % 2 == 0,
        }
    }

    /// The one way limbs become a value, and the only place `Wide` is
    /// built: trims, and demotes a magnitude that fits an `i64` to the
    /// inline form.
    fn from_limbs(sign: i8, mut limbs: Vec<u32>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.len() <= 2 {
            let mag = limbs.iter().rev().fold(0u64, |m, &l| (m << 32) | l as u64);
            let v = i128::from(sign) * i128::from(mag);
            if let Ok(small) = i64::try_from(v) {
                return BigInt(Small(small));
            }
        }
        BigInt(Wide(Box::new(Limbs { sign, limbs })))
    }

    /// Limbs for a `v` outside the `i64` range.
    #[cold]
    fn from_wide_i128(v: i128) -> BigInt {
        let sign: i8 = if v < 0 { -1 } else { 1 };
        let mut mag = v.unsigned_abs();
        let mut limbs = Vec::with_capacity(4);
        while mag != 0 {
            limbs.push(mag as u32);
            mag >>= 32;
        }
        BigInt::from_limbs(sign, limbs)
    }

    /// Sign and magnitude limbs, the form the limb code below works on.
    /// An inline value's limbs go to `buf`, on the caller's stack.
    fn parts<'a>(&'a self, buf: &'a mut [u32; 2]) -> (i8, &'a [u32]) {
        match &self.0 {
            Small(v) => {
                let mag = v.unsigned_abs();
                *buf = [mag as u32, (mag >> 32) as u32];
                let len = buf.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
                (v.signum() as i8, &buf[..len])
            }
            Wide(w) => (w.sign, &w.limbs),
        }
    }

    /// `a + sign_b * b` over limbs: the spill path of `+` and `-`.
    #[cold]
    fn add_wide(a: &BigInt, b: &BigInt, sign_b: i8) -> BigInt {
        let (mut buf_a, mut buf_b) = ([0; 2], [0; 2]);
        let (sa, la) = a.parts(&mut buf_a);
        let (sb, lb) = b.parts(&mut buf_b);
        let sb = sb * sign_b;
        if sa == sb || sa == 0 || sb == 0 {
            let sign = if sa == 0 { sb } else { sa };
            return BigInt::from_limbs(sign, BigInt::add_mag(la, lb));
        }
        match BigInt::cmp_mag(la, lb) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_limbs(sa, BigInt::sub_mag(la, lb)),
            Ordering::Less => BigInt::from_limbs(sb, BigInt::sub_mag(lb, la)),
        }
    }

    /// The spill path of `*`.
    #[cold]
    fn mul_wide(a: &BigInt, b: &BigInt) -> BigInt {
        let (mut buf_a, mut buf_b) = ([0; 2], [0; 2]);
        let (sa, la) = a.parts(&mut buf_a);
        let (sb, lb) = b.parts(&mut buf_b);
        BigInt::from_limbs(sa * sb, BigInt::mul_mag(la, lb))
    }

    /// The spill path of `div_rem`.
    #[cold]
    fn div_rem_wide(a: &BigInt, b: &BigInt) -> (BigInt, BigInt) {
        let (mut buf_a, mut buf_b) = ([0; 2], [0; 2]);
        let (sa, la) = a.parts(&mut buf_a);
        let (sb, lb) = b.parts(&mut buf_b);
        let (q, r) = BigInt::divmod_mag(la, lb);
        (BigInt::from_limbs(sa * sb, q), BigInt::from_limbs(sa, r))
    }

    /// Magnitude comparison (ignores sign).
    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let s = l as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// Subtract magnitudes; requires `a >= b`.
    fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for (i, &x) in a.iter().enumerate() {
            let d = x as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        out
    }

    fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = out[i + j] as u64 + x as u64 * y as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = t as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        out
    }

    /// Divide magnitude by a single `u32`, returning (quotient, remainder).
    fn divmod_small(a: &[u32], d: u32) -> (Vec<u32>, u32) {
        debug_assert!(d != 0);
        let mut q = vec![0u32; a.len()];
        let mut rem = 0u64;
        for i in (0..a.len()).rev() {
            let cur = (rem << 32) | a[i] as u64;
            q[i] = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        (q, rem as u32)
    }

    /// Long division on magnitudes: returns (quotient, remainder) with
    /// `a = q*b + r`, `0 <= r < b`. Simple shift-and-subtract base-2^32
    /// algorithm with a normalization step (Knuth D, simplified).
    fn divmod_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero BigInt");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let (q, r) = Self::divmod_small(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }
        // Knuth algorithm D with u32 limbs and u64 intermediates.
        let shift = b.last().unwrap().leading_zeros();
        let bn = Self::shl_bits(b, shift);
        let mut an = Self::shl_bits(a, shift);
        an.push(0); // extra limb for the algorithm
        let n = bn.len();
        let m = an.len() - n - 1;
        let mut q = vec![0u32; m + 1];
        let btop = bn[n - 1] as u64;
        let bsec = bn[n - 2] as u64;
        for j in (0..=m).rev() {
            let top = ((an[j + n] as u64) << 32) | an[j + n - 1] as u64;
            let mut qhat = top / btop;
            let mut rhat = top % btop;
            while qhat >= 1u64 << 32 || qhat * bsec > ((rhat << 32) | an[j + n - 2] as u64) {
                qhat -= 1;
                rhat += btop;
                if rhat >= 1u64 << 32 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * bn from an[j..j+n+1].
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * bn[i] as u64 + carry;
                carry = p >> 32;
                let d = an[j + i] as i64 - (p as u32) as i64 - borrow;
                if d < 0 {
                    an[j + i] = (d + (1i64 << 32)) as u32;
                    borrow = 1;
                } else {
                    an[j + i] = d as u32;
                    borrow = 0;
                }
            }
            let d = an[j + n] as i64 - carry as i64 - borrow;
            if d < 0 {
                // qhat was one too large: add back.
                an[j + n] = (d + (1i64 << 32)) as u32;
                qhat -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let s = an[j + i] as u64 + bn[i] as u64 + c;
                    an[j + i] = s as u32;
                    c = s >> 32;
                }
                an[j + n] = an[j + n].wrapping_add(c as u32);
            } else {
                an[j + n] = d as u32;
            }
            q[j] = qhat as u32;
        }
        let rem = Self::shr_bits(&an[..n], shift);
        (q, rem)
    }

    fn shl_bits(a: &[u32], bits: u32) -> Vec<u32> {
        if bits == 0 {
            return a.to_vec();
        }
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u32;
        for &x in a {
            out.push((x << bits) | carry);
            carry = (x as u64 >> (32 - bits)) as u32;
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    fn shr_bits(a: &[u32], bits: u32) -> Vec<u32> {
        if bits == 0 {
            let mut v = a.to_vec();
            while v.last() == Some(&0) {
                v.pop();
            }
            return v;
        }
        let mut out = vec![0u32; a.len()];
        let mut carry = 0u32;
        for i in (0..a.len()).rev() {
            out[i] = (a[i] >> bits) | carry;
            carry = a[i] << (32 - bits);
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Truncated division and remainder (`(a/b, a%b)` with the remainder
    /// taking the sign of `a`, matching Rust's `/` and `%` on primitives).
    #[inline]
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero BigInt");
        if let (Small(a), Small(b)) = (&self.0, &other.0) {
            // `None` only for `i64::MIN / -1`, whose quotient is 2^63.
            if let Some(q) = a.checked_div(*b) {
                return (BigInt(Small(q)), BigInt(Small(a % b)));
            }
        }
        Self::div_rem_wide(self, other)
    }

    /// Floor division: rounds toward negative infinity.
    #[inline]
    pub fn div_floor(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(other);
        if !r.is_zero() && (r.signum() * other.signum()) < 0 {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Euclidean / floor modulus: result has the sign of `other`
    /// (and `0 <= |result| < |other|`). Satisfies
    /// `self == self.div_floor(other) * other + self.mod_floor(other)`.
    #[inline]
    pub fn mod_floor(&self, other: &BigInt) -> BigInt {
        let (_, r) = self.div_rem(other);
        if !r.is_zero() && (r.signum() * other.signum()) < 0 {
            r + other
        } else {
            r
        }
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if let (Small(a), Small(b)) = (&self.0, &other.0) {
            return BigInt::from(gcd_u64(a.unsigned_abs(), b.unsigned_abs()));
        }
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple (always non-negative).
    pub fn lcm(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let g = self.gcd(other);
        (self.abs() / g) * other.abs()
    }

    /// `self` raised to a small power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Convert to `i64` if it fits.
    #[inline]
    pub fn to_i64(&self) -> Option<i64> {
        match &self.0 {
            Small(v) => Some(*v),
            Wide(_) => None,
        }
    }

    /// Convert to `i128` if it fits.
    pub fn to_i128(&self) -> Option<i128> {
        let w = match &self.0 {
            Small(v) => return Some(i128::from(*v)),
            Wide(w) => w,
        };
        if w.limbs.len() > 4 {
            return None;
        }
        let mut mag: u128 = 0;
        for (i, &l) in w.limbs.iter().enumerate() {
            mag |= (l as u128) << (32 * i);
        }
        if w.sign >= 0 {
            i128::try_from(mag).ok()
        } else if mag <= i128::MAX as u128 + 1 {
            Some((mag as i128).wrapping_neg())
        } else {
            None
        }
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let w = match &self.0 {
            // An `i64` is at most two limbs, over which the sum below
            // rounds once: to the same double as this cast.
            Small(v) => return *v as f64,
            Wide(w) => w,
        };
        let mut v = 0.0f64;
        for &l in w.limbs.iter().rev() {
            v = v * 4294967296.0 + l as f64;
        }
        if w.sign < 0 {
            -v
        } else {
            v
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        let mut buf = [0; 2];
        let (_, limbs) = self.parts(&mut buf);
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    #[inline]
    fn from(v: i64) -> Self {
        BigInt(Small(v))
    }
}

impl From<i32> for BigInt {
    #[inline]
    fn from(v: i32) -> Self {
        BigInt(Small(i64::from(v)))
    }
}

impl From<u64> for BigInt {
    #[inline]
    fn from(v: u64) -> Self {
        BigInt::from(i128::from(v))
    }
}

impl From<i128> for BigInt {
    #[inline]
    fn from(v: i128) -> Self {
        match i64::try_from(v) {
            Ok(small) => BigInt(Small(small)),
            Err(_) => BigInt::from_wide_i128(v),
        }
    }
}

impl FromStr for BigInt {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (negative, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(format!("invalid integer literal: {s:?}"));
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10i64);
        for c in digits.chars() {
            let d = c
                .to_digit(10)
                .ok_or_else(|| format!("invalid digit {c:?} in integer literal"))?;
            acc = &acc * &ten + BigInt::from(d as i64);
        }
        Ok(if negative { -acc } else { acc })
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = match &self.0 {
            // Through `write!`, as the limb rendering below: the outer
            // formatter's width and fill are not applied.
            Small(v) => return write!(f, "{v}"),
            Wide(w) => w,
        };
        let mut digits = Vec::new();
        let mut mag = w.limbs.clone();
        while !mag.is_empty() {
            let (q, r) = BigInt::divmod_small(&mag, 1_000_000_000);
            let mut q = q;
            while q.last() == Some(&0) {
                q.pop();
            }
            digits.push(r);
            mag = q;
        }
        let mut s = String::new();
        if w.sign < 0 {
            s.push('-');
        }
        s.push_str(&digits.pop().unwrap().to_string());
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:09}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl PartialOrd for BigInt {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // A wide value lies outside the `i64` range, so against an inline
        // one its sign decides.
        match (&self.0, &other.0) {
            (Small(a), Small(b)) => a.cmp(b),
            (Small(_), Wide(w)) => 0.cmp(&w.sign),
            (Wide(w), Small(_)) => w.sign.cmp(&0),
            (Wide(a), Wide(b)) => {
                let mag = BigInt::cmp_mag(&a.limbs, &b.limbs);
                a.sign
                    .cmp(&b.sign)
                    .then(if a.sign < 0 { mag.reverse() } else { mag })
            }
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    #[inline]
    fn neg(self) -> BigInt {
        match self.0 {
            Small(v) => BigInt::from(-i128::from(v)),
            // Demotes -(2^63), the one wide value whose negation is inline.
            Wide(w) => BigInt::from_limbs(-w.sign, w.limbs),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    #[inline]
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    #[inline]
    fn add(self, other: &BigInt) -> BigInt {
        match (&self.0, &other.0) {
            (Small(a), Small(b)) => BigInt::from(i128::from(*a) + i128::from(*b)),
            _ => BigInt::add_wide(self, other, 1),
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    #[inline]
    fn sub(self, other: &BigInt) -> BigInt {
        match (&self.0, &other.0) {
            (Small(a), Small(b)) => BigInt::from(i128::from(*a) - i128::from(*b)),
            _ => BigInt::add_wide(self, other, -1),
        }
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    #[inline]
    fn mul(self, other: &BigInt) -> BigInt {
        match (&self.0, &other.0) {
            (Small(a), Small(b)) => BigInt::from(i128::from(*a) * i128::from(*b)),
            _ => BigInt::mul_wide(self, other),
        }
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    #[inline]
    fn div(self, other: &BigInt) -> BigInt {
        self.div_rem(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    #[inline]
    fn rem(self, other: &BigInt) -> BigInt {
        self.div_rem(other).1
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            #[inline]
            fn $method(self, other: BigInt) -> BigInt {
                (&self).$method(&other)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            #[inline]
            fn $method(self, other: &BigInt) -> BigInt {
                (&self).$method(other)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            #[inline]
            fn $method(self, other: BigInt) -> BigInt {
                self.$method(&other)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    #[inline]
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    #[inline]
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    #[inline]
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_rand::{Rng, RngCore, SeedableRng};

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    /// Deterministic generator for the randomized tests below.
    fn rng() -> sia_rand::rngs::StdRng {
        sia_rand::rngs::StdRng::seed_from_u64(0xb161_0000)
    }

    /// Uniform `i128` in `[-2^bits, 2^bits)`.
    fn rand_i128(r: &mut impl RngCore, bits: u32) -> i128 {
        let span = 1i128 << bits;
        let hi = i128::from(r.next_u64()) << 64;
        let raw = hi | i128::from(r.next_u64());
        raw.rem_euclid(2 * span) - span
    }

    /// Random decimal digit string with `1..=len` digits (no leading zero).
    fn rand_digits(r: &mut impl RngCore, len: usize) -> String {
        let n = r.gen_range(1usize..=len);
        let mut s = String::new();
        s.push(char::from(b'1' + (r.gen_range(0u32..9)) as u8));
        for _ in 1..n {
            s.push(char::from(b'0' + (r.gen_range(0u32..10)) as u8));
        }
        s
    }

    #[test]
    fn construct_and_signs() {
        assert!(bi(0).is_zero());
        assert_eq!(bi(0).signum(), 0);
        assert_eq!(bi(5).signum(), 1);
        assert_eq!(bi(-5).signum(), -1);
        assert!(bi(1).is_one());
        assert!(!bi(-1).is_one());
        assert!(bi(4).is_even());
        assert!(!bi(7).is_even());
        assert!(bi(0).is_even());
    }

    #[test]
    fn display_roundtrip() {
        for v in [0i128, 1, -1, 42, -42, i64::MAX as i128, i64::MIN as i128] {
            assert_eq!(bi(v).to_string(), v.to_string());
            assert_eq!(v.to_string().parse::<BigInt>().unwrap(), bi(v));
        }
        let big = "123456789012345678901234567890123456789012345678901";
        let parsed: BigInt = big.parse().unwrap();
        assert_eq!(parsed.to_string(), big);
        let neg = format!("-{big}");
        assert_eq!(neg.parse::<BigInt>().unwrap().to_string(), neg);
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12x".parse::<BigInt>().is_err());
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(bi(2) + bi(3), bi(5));
        assert_eq!(bi(2) - bi(3), bi(-1));
        assert_eq!(bi(-2) * bi(3), bi(-6));
        assert_eq!(bi(7) / bi(2), bi(3));
        assert_eq!(bi(7) % bi(2), bi(1));
        assert_eq!(bi(-7) / bi(2), bi(-3));
        assert_eq!(bi(-7) % bi(2), bi(-1));
    }

    #[test]
    fn floor_division() {
        assert_eq!(bi(7).div_floor(&bi(2)), bi(3));
        assert_eq!(bi(-7).div_floor(&bi(2)), bi(-4));
        assert_eq!(bi(7).div_floor(&bi(-2)), bi(-4));
        assert_eq!(bi(-7).div_floor(&bi(-2)), bi(3));
        assert_eq!(bi(-7).mod_floor(&bi(2)), bi(1));
        assert_eq!(bi(7).mod_floor(&bi(-2)), bi(-1));
        assert_eq!(bi(6).mod_floor(&bi(3)), bi(0));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(4).lcm(&bi(6)), bi(12));
        assert_eq!(bi(0).lcm(&bi(6)), bi(0));
    }

    #[test]
    fn pow_small() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(-3).pow(3), bi(-27));
        assert_eq!(bi(5).pow(0), bi(1));
        assert_eq!(bi(10).pow(30).to_string(), format!("1{}", "0".repeat(30)));
    }

    #[test]
    fn big_multiplication_identity() {
        let a: BigInt = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
        let b = &a * &a;
        assert_eq!((&b / &a), a);
        assert!((&b % &a).is_zero());
    }

    #[test]
    fn to_primitive() {
        assert_eq!(bi(42).to_i64(), Some(42));
        assert_eq!(bi(-42).to_i64(), Some(-42));
        assert_eq!(bi(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(bi(i128::MIN).to_i128(), Some(i128::MIN));
        let huge: BigInt = "170141183460469231731687303715884105728".parse().unwrap(); // 2^127
        assert_eq!(huge.to_i128(), None);
        assert_eq!((-huge).to_i128(), Some(i128::MIN));
    }

    #[test]
    fn bits() {
        assert_eq!(bi(0).bits(), 0);
        assert_eq!(bi(1).bits(), 1);
        assert_eq!(bi(255).bits(), 8);
        assert_eq!(bi(256).bits(), 9);
        assert_eq!(bi(1i128 << 100).bits(), 101);
    }

    #[test]
    fn to_f64_approx() {
        assert_eq!(bi(0).to_f64(), 0.0);
        assert_eq!(bi(-3).to_f64(), -3.0);
        assert!((bi(1i128 << 80).to_f64() - (1i128 << 80) as f64).abs() < 1e60);
    }

    #[test]
    fn randomized_add_sub_match_i128() {
        let mut r = rng();
        for _ in 0..512 {
            let (a, b) = (rand_i128(&mut r, 100), rand_i128(&mut r, 100));
            assert_eq!(bi(a) + bi(b), bi(a + b));
            assert_eq!(bi(a) - bi(b), bi(a - b));
        }
    }

    #[test]
    fn randomized_mul_matches_i128() {
        let mut r = rng();
        for _ in 0..512 {
            let (a, b) = (rand_i128(&mut r, 60), rand_i128(&mut r, 60));
            assert_eq!(bi(a) * bi(b), bi(a * b));
        }
    }

    #[test]
    fn randomized_divrem_matches_i64() {
        let mut r = rng();
        for _ in 0..512 {
            let a = r.next_u64() as i64;
            let mut b = r.next_u64() as i64;
            if b == 0 {
                b = 1;
            }
            let (q, m) = bi(i128::from(a)).div_rem(&bi(i128::from(b)));
            assert_eq!(q, bi(i128::from(a) / i128::from(b)));
            assert_eq!(m, bi(i128::from(a) % i128::from(b)));
        }
    }

    #[test]
    fn randomized_divrem_reconstructs() {
        let mut r = rng();
        for _ in 0..256 {
            let mut a_str = rand_digits(&mut r, 40);
            if r.gen_bool_fair() {
                a_str.insert(0, '-');
            }
            let b_str = rand_digits(&mut r, 21);
            let a: BigInt = a_str.parse().unwrap();
            let b: BigInt = b_str.parse().unwrap();
            let (q, m) = a.div_rem(&b);
            assert_eq!(&q * &b + &m, a.clone());
            assert!(m.abs() < b.abs());
            // remainder sign matches dividend (truncated semantics)
            assert!(m.is_zero() || m.signum() == a.signum());
        }
    }

    #[test]
    fn randomized_floor_div_reconstructs() {
        let mut r = rng();
        for _ in 0..512 {
            let a = r.next_u64() as i64;
            let mut b = r.next_u64() as i64;
            if b == 0 {
                b = 1;
            }
            let (a_big, b_big) = (bi(i128::from(a)), bi(i128::from(b)));
            let q = a_big.div_floor(&b_big);
            let m = a_big.mod_floor(&b_big);
            assert_eq!(&q * &b_big + &m, a_big);
            assert!(m.is_zero() || m.signum() == b_big.signum());
        }
    }

    #[test]
    fn randomized_gcd_divides() {
        let mut r = rng();
        for _ in 0..512 {
            let a = r.next_u64() as i64;
            let b = r.next_u64() as i64;
            let g = bi(i128::from(a)).gcd(&bi(i128::from(b)));
            if a != 0 || b != 0 {
                assert!((bi(i128::from(a)) % &g).is_zero());
                assert!((bi(i128::from(b)) % &g).is_zero());
                assert!(g.is_positive());
            } else {
                assert!(g.is_zero());
            }
        }
    }

    #[test]
    fn randomized_cmp_matches_i128() {
        let mut r = rng();
        for _ in 0..512 {
            let a = (i128::from(r.next_u64()) << 64) | i128::from(r.next_u64());
            let b = (i128::from(r.next_u64()) << 64) | i128::from(r.next_u64());
            assert_eq!(bi(a).cmp(&bi(b)), a.cmp(&b));
        }
    }

    #[test]
    fn randomized_display_parse_roundtrip() {
        let mut r = rng();
        for _ in 0..256 {
            let mut s = rand_digits(&mut r, 61);
            if r.gen_bool_fair() {
                s.insert(0, '-');
            }
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }
}
