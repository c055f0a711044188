//! Interval domain over exact rationals, with integer tightening.
//!
//! An [`Interval`] abstracts the set of values a column (or, more generally,
//! a canonical linear form) can take. Bounds are exact [`BigRat`]s and may be
//! strict or closed; a missing bound means unbounded on that side. For
//! integer-sorted variables, [`Interval::tighten_int`] rounds bounds inward
//! to the closed integer hull — this is where the congruence-with-1 facts
//! (e.g. `x = 5/2` is infeasible over the integers) become contradictions.

use sia_num::{BigInt, BigRat};

/// One side of an interval: a finite endpoint that is either strict
/// (excluded) or closed (included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    /// The endpoint value.
    pub value: BigRat,
    /// Whether the endpoint itself is excluded from the interval.
    pub strict: bool,
}

impl Bound {
    /// A closed (inclusive) bound at `value`.
    pub fn closed(value: BigRat) -> Bound {
        Bound {
            value,
            strict: false,
        }
    }

    /// A strict (exclusive) bound at `value`.
    pub fn strict(value: BigRat) -> Bound {
        Bound {
            value,
            strict: true,
        }
    }
}

/// A (possibly half- or fully-unbounded) interval of rationals.
///
/// The empty set is representable (e.g. `lo = 1 closed, hi = 0 closed`);
/// callers detect it with [`Interval::is_empty`] rather than relying on a
/// canonical empty value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Lower endpoint, `None` when unbounded below.
    pub lo: Option<Bound>,
    /// Upper endpoint, `None` when unbounded above.
    pub hi: Option<Bound>,
}

impl Interval {
    /// The full line: no constraint in either direction.
    pub fn top() -> Interval {
        Interval { lo: None, hi: None }
    }

    /// The degenerate interval containing exactly `value`.
    pub fn point(value: BigRat) -> Interval {
        Interval {
            lo: Some(Bound::closed(value.clone())),
            hi: Some(Bound::closed(value)),
        }
    }

    /// `[value, +inf)` or `(value, +inf)`.
    pub fn at_least(value: BigRat, strict: bool) -> Interval {
        Interval {
            lo: Some(Bound { value, strict }),
            hi: None,
        }
    }

    /// `(-inf, value]` or `(-inf, value)`.
    pub fn at_most(value: BigRat, strict: bool) -> Interval {
        Interval {
            lo: None,
            hi: Some(Bound { value, strict }),
        }
    }

    /// True when no rational satisfies both bounds.
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some(lo), Some(hi)) => {
                lo.value > hi.value || (lo.value == hi.value && (lo.strict || hi.strict))
            }
            _ => false,
        }
    }

    /// True when `x` lies inside the interval.
    pub fn contains(&self, x: &BigRat) -> bool {
        if let Some(lo) = &self.lo {
            if *x < lo.value || (*x == lo.value && lo.strict) {
                return false;
            }
        }
        if let Some(hi) = &self.hi {
            if *x > hi.value || (*x == hi.value && hi.strict) {
                return false;
            }
        }
        true
    }

    /// The single member, when the interval is a closed point.
    pub fn singleton(&self) -> Option<&BigRat> {
        match (&self.lo, &self.hi) {
            (Some(lo), Some(hi)) if !lo.strict && !hi.strict && lo.value == hi.value => {
                Some(&lo.value)
            }
            _ => None,
        }
    }

    /// Meet: the interval of values in both `self` and `other`.
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: tighter(self.lo.as_ref(), other.lo.as_ref(), true),
            hi: tighter(self.hi.as_ref(), other.hi.as_ref(), false),
        }
    }

    /// Round both bounds inward to the closed integer hull.
    ///
    /// Sound only for variables that range over the integers: a strict lower
    /// bound at `v` becomes a closed bound at `floor(v) + 1`, a closed
    /// non-integer lower bound rounds up to `ceil(v)`, and dually for upper
    /// bounds. The result may be empty (e.g. the integers in `(0, 1)`).
    pub fn tighten_int(&self) -> Interval {
        let lo = self.lo.as_ref().map(|b| {
            let v = if b.strict {
                BigRat::from_int(&b.value.floor() + &BigInt::one())
            } else {
                BigRat::from_int(b.value.ceil())
            };
            Bound::closed(v)
        });
        let hi = self.hi.as_ref().map(|b| {
            let v = if b.strict {
                BigRat::from_int(&b.value.ceil() - &BigInt::one())
            } else {
                BigRat::from_int(b.value.floor())
            };
            Bound::closed(v)
        });
        Interval { lo, hi }
    }

    /// Interval negation: `{-x | x ∈ self}`.
    pub fn neg(&self) -> Interval {
        let flip = |b: &Bound| Bound {
            value: -b.value.clone(),
            strict: b.strict,
        };
        Interval {
            lo: self.hi.as_ref().map(flip),
            hi: self.lo.as_ref().map(flip),
        }
    }

    /// Interval sum: `{x + y | x ∈ self, y ∈ other}`. A missing bound on
    /// either side makes the corresponding result bound unbounded.
    pub fn add(&self, other: &Interval) -> Interval {
        let combine = |a: Option<&Bound>, b: Option<&Bound>| match (a, b) {
            (Some(x), Some(y)) => Some(Bound {
                value: &x.value + &y.value,
                strict: x.strict || y.strict,
            }),
            _ => None,
        };
        Interval {
            lo: combine(self.lo.as_ref(), other.lo.as_ref()),
            hi: combine(self.hi.as_ref(), other.hi.as_ref()),
        }
    }

    /// Interval difference: `{x - y | x ∈ self, y ∈ other}`.
    pub fn sub(&self, other: &Interval) -> Interval {
        self.add(&other.neg())
    }

    /// Interval scaling by a non-zero rational: `{k·x | x ∈ self}`.
    ///
    /// # Panics
    /// Panics if `k` is zero (callers only scale by non-zero coefficients).
    pub fn scale(&self, k: &BigRat) -> Interval {
        assert!(!k.is_zero(), "scale by zero");
        let mul = |b: &Bound| Bound {
            value: &b.value * k,
            strict: b.strict,
        };
        if k.is_positive() {
            Interval {
                lo: self.lo.as_ref().map(mul),
                hi: self.hi.as_ref().map(mul),
            }
        } else {
            Interval {
                lo: self.hi.as_ref().map(mul),
                hi: self.lo.as_ref().map(mul),
            }
        }
    }
}

/// Pick the tighter of two optional bounds. For lower bounds (`is_lo`) that
/// is the larger value; for upper bounds the smaller; on ties, strict wins.
fn tighter(a: Option<&Bound>, b: Option<&Bound>, is_lo: bool) -> Option<Bound> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) | (None, Some(x)) => Some(x.clone()),
        (Some(x), Some(y)) => {
            let pick_x = match x.value.cmp(&y.value) {
                std::cmp::Ordering::Equal => x.strict || !y.strict,
                std::cmp::Ordering::Greater => is_lo,
                std::cmp::Ordering::Less => !is_lo,
            };
            Some(if pick_x { x.clone() } else { y.clone() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> BigRat {
        BigRat::from_int(n)
    }

    fn frac(n: i64, d: i64) -> BigRat {
        BigRat::new(BigInt::from(n), BigInt::from(d))
    }

    #[test]
    fn emptiness_and_membership() {
        let i = Interval::at_least(r(3), false).intersect(&Interval::at_most(r(5), true));
        assert!(!i.is_empty());
        assert!(i.contains(&r(3)));
        assert!(i.contains(&r(4)));
        assert!(!i.contains(&r(5)));

        let e = Interval::at_least(r(5), false).intersect(&Interval::at_most(r(5), true));
        assert!(e.is_empty());
        let p = Interval::point(r(5));
        assert!(!p.is_empty());
        assert_eq!(p.singleton(), Some(&r(5)));
    }

    #[test]
    fn intersect_prefers_tighter_bound() {
        let a = Interval::at_least(r(1), false);
        let b = Interval::at_least(r(1), true);
        let m = a.intersect(&b);
        assert!(m.lo.as_ref().unwrap().strict);
        let c = Interval::at_most(r(10), false).intersect(&Interval::at_most(r(7), true));
        assert_eq!(c.hi.as_ref().unwrap().value, r(7));
    }

    #[test]
    fn integer_tightening() {
        // Integers in (0, 1) — empty.
        let i = Interval::at_least(r(0), true).intersect(&Interval::at_most(r(1), true));
        assert!(i.tighten_int().is_empty());

        // x > 5/2 over the integers means x >= 3.
        let i = Interval::at_least(frac(5, 2), true).tighten_int();
        assert_eq!(i.lo.as_ref().unwrap().value, r(3));
        assert!(!i.lo.as_ref().unwrap().strict);

        // x <= 7/2 over the integers means x <= 3.
        let i = Interval::at_most(frac(7, 2), false).tighten_int();
        assert_eq!(i.hi.as_ref().unwrap().value, r(3));

        // x >= -5/2 means x >= -2.
        let i = Interval::at_least(frac(-5, 2), false).tighten_int();
        assert_eq!(i.lo.as_ref().unwrap().value, r(-2));

        // A strict bound at an integer steps fully inward: x < 4 → x <= 3.
        let i = Interval::at_most(r(4), true).tighten_int();
        assert_eq!(i.hi.as_ref().unwrap().value, r(3));
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::at_least(r(0), false); // [0, inf)
        let b = Interval::at_most(r(-22), false); // (-inf, -22]

        // [0,inf) - (-inf,-22] = [22, inf)
        let d = a.sub(&b);
        assert_eq!(d.lo.as_ref().unwrap().value, r(22));
        assert!(d.hi.is_none());

        let i = Interval::at_least(r(11), false); // [11, inf)
        let s = i.scale(&r(-2)); // (-inf, -22]
        assert!(s.lo.is_none());
        assert_eq!(s.hi.as_ref().unwrap().value, r(-22));

        let j = Interval::at_least(r(1), true).intersect(&Interval::at_most(r(3), false));
        let sum = j.add(&j); // (2, 6]
        assert_eq!(sum.lo.as_ref().unwrap().value, r(2));
        assert!(sum.lo.as_ref().unwrap().strict);
        assert_eq!(sum.hi.as_ref().unwrap().value, r(6));
        assert_eq!(j.neg().neg(), j);
    }

    #[test]
    fn entailment_checks() {
        // Every member satisfies `x ⋈ b` iff no member lies in the region
        // of its negation — the emptiness test `State::can_sat` makes.
        let i = Interval::at_least(r(2), false).intersect(&Interval::at_most(r(5), true));
        let none_in = |region: Interval| i.intersect(&region).is_empty();
        assert!(none_in(Interval::at_least(r(5), true))); // x <= 5
        assert!(none_in(Interval::at_least(r(5), false))); // x < 5
        assert!(!none_in(Interval::at_least(r(4), false))); // not x < 4
        assert!(none_in(Interval::at_most(r(2), true))); // x >= 2
        assert!(!none_in(Interval::at_most(r(2), false))); // not x > 2
        assert!(none_in(Interval::at_most(r(1), false))); // x > 1
        let top_above = Interval::top().intersect(&Interval::at_least(r(100), true));
        assert!(!top_above.is_empty()); // top is not x <= 100
    }
}
