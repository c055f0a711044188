//! Arbitrary-precision integer and rational arithmetic for Sia.
//!
//! The SMT solver ([`sia-smt`](../sia_smt/index.html)) performs simplex
//! pivoting over rationals and Cooper quantifier elimination over integers;
//! both produce intermediate coefficients that overflow `i128` on adversarial
//! inputs, so every theory-level number in the workspace is a [`BigInt`] or a
//! [`BigRat`].
//!
//! They rarely do: on the benchmark's CEGIS bed about one operand in ten
//! thousand is wider than a machine word. So a [`BigInt`] holds any value
//! that fits an `i64` inline and computes on it in `i128`, with no
//! allocation; only a wider value owns limbs (sign + little-endian `u32`,
//! schoolbook multiplication, Knuth-style long division — deliberately
//! simple, correct rather than fast). The form is canonical: a value that
//! fits an `i64` is *never* held as limbs, so equality and hashing are by
//! value and `to_i64` is a variant test. The limb code is the one spill
//! path, not a second implementation: a mixed operation views its inline
//! operand as two limbs on the stack. [`BigRat`] follows: with all four
//! parts inline it cross-multiplies in `i128`, which cannot overflow (each
//! part is below 2^63 in magnitude, so `a*d + c*b` is below 2^127).
//!
//! [`LinForm`] is the linear form `Σ aᵢ·xᵢ + c` every layer above handles —
//! keyed by column name in the predicate language, by variable in the
//! solver — with its integer normalizations.

#![warn(missing_docs)]

mod bigint;
mod bigrat;
mod linform;

pub use bigint::BigInt;
pub use bigrat::BigRat;
pub use linform::LinForm;

/// Greatest common divisor of two `u64`s (binary GCD): the machine-word
/// path of [`BigInt::gcd`] and of [`lcm_u64`].
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Greatest common divisor of two `u128`s: Euclid's steps until both fit
/// a word, then [`gcd_u64`].
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    loop {
        if let (Ok(a), Ok(b)) = (u64::try_from(a), u64::try_from(b)) {
            return u128::from(gcd_u64(a, b));
        }
        if b == 0 {
            return a;
        }
        (a, b) = (b, a % b);
    }
}

/// Least common multiple of two `u64`s; panics on overflow. `sia-core`'s
/// learner scales its enumerated directions with it.
pub fn lcm_u64(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd_u64(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_u64_basics() {
        assert_eq!(gcd_u64(0, 0), 0);
        assert_eq!(gcd_u64(0, 7), 7);
        assert_eq!(gcd_u64(7, 0), 7);
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(17, 13), 1);
        assert_eq!(gcd_u64(u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn lcm_u64_basics() {
        assert_eq!(lcm_u64(0, 5), 0);
        assert_eq!(lcm_u64(4, 6), 12);
        assert_eq!(lcm_u64(7, 13), 91);
    }
}
