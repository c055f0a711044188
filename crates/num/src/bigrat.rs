//! Arbitrary-precision rationals, normalized with a positive denominator.

use crate::{gcd_u128, BigInt};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision rational number `num / den`.
///
/// Invariants: `den > 0` and `gcd(num, den) == 1` (with `0` represented as
/// `0/1`). All constructors normalize.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRat {
    num: BigInt,
    den: BigInt,
}

impl BigRat {
    /// Construct `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "BigRat with zero denominator");
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            return BigRat::reduced(i128::from(n), i128::from(d));
        }
        let mut num = num;
        let mut den = den;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        let g = num.gcd(&den);
        if !g.is_one() && !g.is_zero() {
            num = num / &g;
            den = den / &g;
        }
        if num.is_zero() {
            den = BigInt::one();
        }
        BigRat { num, den }
    }

    /// `num / den` in lowest terms with a positive denominator, from
    /// machine arithmetic. `den != 0`, and neither part is `i128::MIN`.
    fn reduced(num: i128, den: i128) -> BigRat {
        let (mut num, mut den) = if den < 0 { (-num, -den) } else { (num, den) };
        // An integer is in lowest terms: no gcd where both operands'
        // denominators were 1.
        if den != 1 {
            // 1 <= g <= den, so the cast back is lossless.
            let g = gcd_u128(num.unsigned_abs(), den.unsigned_abs()) as i128;
            num /= g;
            den /= g;
        }
        BigRat {
            num: BigInt::from(num),
            den: BigInt::from(den),
        }
    }

    /// The parts `[a, b, c, d]` of `self = a/b` and `other = c/d` when all
    /// four are inline. Each is an `i64` and `b, d > 0`, so a product of
    /// two is below 2^126 in magnitude and `a*d ± c*b` below 2^127: the
    /// cross-multiplications of `+ - * / cmp` cannot overflow an `i128`.
    #[inline]
    fn words(&self, other: &BigRat) -> Option<[i128; 4]> {
        Some([
            self.num.to_i64()?.into(),
            self.den.to_i64()?.into(),
            other.num.to_i64()?.into(),
            other.den.to_i64()?.into(),
        ])
    }

    /// The rational zero.
    pub fn zero() -> Self {
        BigRat {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational one.
    pub fn one() -> Self {
        BigRat {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Construct from an integer.
    pub fn from_int(v: impl Into<BigInt>) -> Self {
        BigRat {
            num: v.into(),
            den: BigInt::one(),
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Sign: -1, 0, or 1.
    pub fn signum(&self) -> i8 {
        self.num.signum()
    }

    /// True iff `self > 0`.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff `self < 0`.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Absolute value.
    pub fn abs(&self) -> BigRat {
        BigRat {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self == 0`.
    pub fn recip(&self) -> BigRat {
        BigRat::new(self.den.clone(), self.num.clone())
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        self.num.div_floor(&self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        -((-self.num.clone()).div_floor(&self.den))
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        // Good enough for reporting/plotting; exact arithmetic never
        // round-trips through f64.
        self.num.to_f64() / self.den.to_f64()
    }

    /// Exact conversion from an `f64` (every finite double is a rational
    /// with a power-of-two denominator). Returns `None` for NaN/∞.
    pub fn from_f64(v: f64) -> Option<BigRat> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(BigRat::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp2) = if exp == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), exp - 1075)
        };
        let m = BigInt::from(mantissa) * BigInt::from(sign);
        Some(if exp2 >= 0 {
            BigRat::from_int(m * BigInt::from(2i64).pow(exp2 as u32))
        } else {
            BigRat::new(m, BigInt::from(2i64).pow((-exp2) as u32))
        })
    }
}

impl Default for BigRat {
    fn default() -> Self {
        BigRat::zero()
    }
}

impl From<i64> for BigRat {
    fn from(v: i64) -> Self {
        BigRat::from_int(v)
    }
}

impl From<BigInt> for BigRat {
    fn from(v: BigInt) -> Self {
        BigRat::from_int(v)
    }
}

impl FromStr for BigRat {
    type Err = String;

    /// Parses `"a"`, `"a/b"`, or a decimal `"a.b"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(format!("zero denominator in rational literal {s:?}"));
            }
            return Ok(BigRat::new(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            let frac: BigInt = if frac_part.is_empty() {
                BigInt::zero()
            } else {
                frac_part.parse()?
            };
            if frac.is_negative() {
                return Err(format!("invalid decimal literal {s:?}"));
            }
            let scale = BigInt::from(10i64).pow(frac_part.len() as u32);
            let mag = int.abs() * &scale + frac;
            let num = if negative { -mag } else { mag };
            return Ok(BigRat::new(num, scale));
        }
        Ok(BigRat::from_int(s.parse::<BigInt>()?))
    }
}

impl fmt::Display for BigRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRat({self})")
    }
}

impl PartialOrd for BigRat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d (b,d > 0)  <=>  a*d vs c*b
        if let Some([a, b, c, d]) = self.words(other) {
            return (a * d).cmp(&(c * b));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for BigRat {
    type Output = BigRat;
    fn neg(mut self) -> BigRat {
        self.num = -self.num;
        self
    }
}

impl Neg for &BigRat {
    type Output = BigRat;
    fn neg(self) -> BigRat {
        -self.clone()
    }
}

impl Add for &BigRat {
    type Output = BigRat;
    #[inline]
    fn add(self, other: &BigRat) -> BigRat {
        if let Some([a, b, c, d]) = self.words(other) {
            return BigRat::reduced(a * d + c * b, b * d);
        }
        BigRat::new(
            &self.num * &other.den + &other.num * &self.den,
            &self.den * &other.den,
        )
    }
}

impl Sub for &BigRat {
    type Output = BigRat;
    #[inline]
    fn sub(self, other: &BigRat) -> BigRat {
        if let Some([a, b, c, d]) = self.words(other) {
            return BigRat::reduced(a * d - c * b, b * d);
        }
        BigRat::new(
            &self.num * &other.den - &other.num * &self.den,
            &self.den * &other.den,
        )
    }
}

impl Mul for &BigRat {
    type Output = BigRat;
    #[inline]
    fn mul(self, other: &BigRat) -> BigRat {
        if let Some([a, b, c, d]) = self.words(other) {
            return BigRat::reduced(a * c, b * d);
        }
        BigRat::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &BigRat {
    type Output = BigRat;
    fn div(self, other: &BigRat) -> BigRat {
        assert!(!other.is_zero(), "division of BigRat by zero");
        if let Some([a, b, c, d]) = self.words(other) {
            return BigRat::reduced(a * d, b * c);
        }
        BigRat::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_binop_rat {
    ($trait:ident, $method:ident) => {
        impl $trait for BigRat {
            type Output = BigRat;
            fn $method(self, other: BigRat) -> BigRat {
                (&self).$method(&other)
            }
        }
        impl $trait<&BigRat> for BigRat {
            type Output = BigRat;
            fn $method(self, other: &BigRat) -> BigRat {
                (&self).$method(other)
            }
        }
        impl $trait<BigRat> for &BigRat {
            type Output = BigRat;
            fn $method(self, other: BigRat) -> BigRat {
                self.$method(&other)
            }
        }
    };
}

forward_binop_rat!(Add, add);
forward_binop_rat!(Sub, sub);
forward_binop_rat!(Mul, mul);
forward_binop_rat!(Div, div);

impl AddAssign<&BigRat> for BigRat {
    fn add_assign(&mut self, other: &BigRat) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigRat> for BigRat {
    fn sub_assign(&mut self, other: &BigRat) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigRat> for BigRat {
    fn mul_assign(&mut self, other: &BigRat) {
        *self = &*self * other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_rand::{Rng, SeedableRng};

    fn r(n: i64, d: i64) -> BigRat {
        BigRat::new(BigInt::from(n), BigInt::from(d))
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 7), BigRat::zero());
        assert_eq!(r(0, 7).denom(), &BigInt::one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(0, 1) < r(1, 100));
        assert_eq!(r(3, 6).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(6, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3i64));
    }

    #[test]
    fn parsing() {
        assert_eq!("3/4".parse::<BigRat>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<BigRat>().unwrap(), r(-3, 4));
        assert_eq!("0.25".parse::<BigRat>().unwrap(), r(1, 4));
        assert_eq!("-0.5".parse::<BigRat>().unwrap(), r(-1, 2));
        assert_eq!("42".parse::<BigRat>().unwrap(), r(42, 1));
        assert!("1/0".parse::<BigRat>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(r(3, 4).to_string(), "3/4");
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(-1, 3).to_string(), "-1/3");
    }

    #[test]
    fn from_f64_exact() {
        assert_eq!(BigRat::from_f64(0.5).unwrap(), r(1, 2));
        assert_eq!(BigRat::from_f64(-0.25).unwrap(), r(-1, 4));
        assert_eq!(BigRat::from_f64(3.0).unwrap(), r(3, 1));
        assert_eq!(BigRat::from_f64(0.0).unwrap(), BigRat::zero());
        assert!(BigRat::from_f64(f64::NAN).is_none());
        assert!(BigRat::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn recip() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
    }

    fn rng() -> sia_rand::rngs::StdRng {
        sia_rand::rngs::StdRng::seed_from_u64(0xb16_9a70)
    }

    #[test]
    fn randomized_add_commutes() {
        let mut g = rng();
        for _ in 0..512 {
            let (a, b) = (g.gen_range(-1000i64..1000), g.gen_range(1i64..100));
            let (c, d) = (g.gen_range(-1000i64..1000), g.gen_range(1i64..100));
            assert_eq!(r(a, b) + r(c, d), r(c, d) + r(a, b));
        }
    }

    #[test]
    fn randomized_mul_inverse() {
        let mut g = rng();
        for _ in 0..512 {
            let (a, b) = (g.gen_range(1i64..10000), g.gen_range(1i64..10000));
            assert_eq!(r(a, b) * r(a, b).recip(), BigRat::one());
        }
    }

    #[test]
    fn randomized_floor_le_val_lt_floor_plus_one() {
        let mut g = rng();
        for _ in 0..512 {
            let (a, b) = (g.gen_range(-100_000i64..100_000), g.gen_range(1i64..1000));
            let v = r(a, b);
            let fl = BigRat::from(v.floor());
            assert!(fl <= v);
            assert!(v < &fl + &BigRat::one());
        }
    }

    #[test]
    fn randomized_from_f64_roundtrip() {
        let mut g = rng();
        for _ in 0..512 {
            let v = g.gen_range(-1e12f64..1e12f64);
            let q = BigRat::from_f64(v).unwrap();
            assert_eq!(q.to_f64(), v);
        }
    }

    #[test]
    fn randomized_cmp_consistent_with_f64() {
        let mut g = rng();
        for _ in 0..512 {
            let (a, b) = (g.gen_range(-1000i64..1000), g.gen_range(1i64..100));
            let (c, d) = (g.gen_range(-1000i64..1000), g.gen_range(1i64..100));
            let (x, y) = (r(a, b), r(c, d));
            let (fx, fy) = (a as f64 / b as f64, c as f64 / d as f64);
            if (fx - fy).abs() > 1e-9 {
                assert_eq!(x < y, fx < fy);
            }
        }
    }
}
