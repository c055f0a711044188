//! Differential test of `BigInt` / `BigRat` across the boundary between
//! the inline (`i64`) and the limb representation.
//!
//! Operands are drawn where the representation changes — 0, ±1, ±2^31,
//! ±2^32, `i64::MIN`, `i64::MAX`, ±2^63 ± k, ±2^64, three- and five-limb
//! values — and every public operation is compared with checked `i128`
//! arithmetic where the result fits, and with algebraic identities
//! where it does not. The representation itself is private; what is
//! observable is that a value which left the `i64` range and came back
//! is `==`, `cmp`-equal and hash-equal to one that never left.

use sia_num::{BigInt, BigRat};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, RngCore, SeedableRng};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// An operand with its `i128` twin when it has one.
#[derive(Clone, Debug)]
struct Operand {
    big: BigInt,
    word: Option<i128>,
}

fn from_word(v: i128) -> Operand {
    Operand {
        big: BigInt::from(v),
        word: Some(v),
    }
}

fn rand_i128(r: &mut StdRng) -> i128 {
    (i128::from(r.next_u64()) << 64) | i128::from(r.next_u64())
}

const EDGES: [i128; 21] = [
    0,
    1,
    -1,
    2,
    -2,
    1 << 31,
    -(1 << 31),
    (1 << 31) - 1,
    1 << 32,
    -(1 << 32),
    (1 << 32) - 1,
    i64::MAX as i128,
    i64::MIN as i128,
    i64::MAX as i128 - 1,
    i64::MIN as i128 + 1,
    1 << 63,
    -(1 << 63) - 1,
    1 << 64,
    -(1 << 64),
    (1 << 64) - 1,
    i128::MAX,
];

fn operand(r: &mut StdRng) -> Operand {
    match r.gen_range(0u32..10) {
        0 | 1 => from_word(EDGES[r.gen_range(0usize..EDGES.len())]),
        // ±2^63 ± k, ±2^64 ± k
        2 => {
            let base: i128 = if r.gen_bool_fair() { 1 << 63 } else { 1 << 64 };
            let v = base + i128::from(r.gen_range(-4i64..=4));
            from_word(if r.gen_bool_fair() { v } else { -v })
        }
        // small, as in query predicates
        3 | 4 => from_word(i128::from(r.gen_range(-1000i64..=1000))),
        // any i64
        5 | 6 => from_word(i128::from(r.next_u64() as i64)),
        // three limbs
        7 => from_word(rand_i128(r) >> 36),
        // four limbs
        8 => from_word(rand_i128(r) >> r.gen_range(0u32..8)),
        // five limbs: no `i128` twin
        _ => {
            let hi = BigInt::from(rand_i128(r) >> 8);
            let lo = BigInt::from(r.next_u64());
            Operand {
                big: hi * BigInt::from(1i128 << 64) + lo,
                word: None,
            }
        }
    }
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `a` must be the same value, observably, as `b`: equal, ordered equal,
/// hashed equal, printed equal.
fn assert_same(a: &BigInt, b: &BigInt, what: &str) {
    assert_eq!(a, b, "{what}");
    assert_eq!(a.cmp(b), Ordering::Equal, "{what}: cmp");
    assert_eq!(hash_of(a), hash_of(b), "{what}: hash");
    assert_eq!(a.to_string(), b.to_string(), "{what}: display");
}

/// Checks `got` against the `i128` result when there is one.
fn check_word(got: &BigInt, expect: Option<i128>, what: &str) {
    if let Some(e) = expect {
        assert_same(got, &BigInt::from(e), what);
    }
}

fn floor_div_i128(a: i128, b: i128) -> Option<(i128, i128)> {
    let (q, r) = (a.checked_div(b)?, a.checked_rem(b)?);
    Some(if r != 0 && ((r < 0) != (b < 0)) {
        (q - 1, r + b)
    } else {
        (q, r)
    })
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Horner evaluation over `u32` limbs: what `to_f64` computed before
/// there was an inline form.
fn horner_f64(v: i64) -> f64 {
    let mag = v.unsigned_abs();
    let f = (mag >> 32) as u32 as f64 * 4294967296.0 + mag as u32 as f64;
    if v < 0 {
        -f
    } else {
        f
    }
}

fn check_unary(x: &Operand) {
    let a = &x.big;
    let w = x.word;

    // A trip out of the i64 range and back lands on the same value.
    let wide = BigInt::from(1i128 << 70);
    assert_same(&(&(a + &wide) - &wide), a, "(a + 2^70) - 2^70");
    assert_same(&(&(a - &wide) + &wide), a, "(a - 2^70) + 2^70");
    let mut set = HashSet::new();
    set.insert(a.clone());
    assert!(set.contains(&(&(a * &wide) / &wide)), "a * 2^70 / 2^70");

    // neg, abs, signum
    assert_same(&-&-a, a, "--a");
    assert!((a + &-a).is_zero());
    check_word(&-a, w.and_then(i128::checked_neg), "neg");
    let abs = a.abs();
    assert!(!abs.is_negative());
    assert!(abs == *a || abs == -a);
    check_word(&abs, w.and_then(i128::checked_abs), "abs");
    assert_eq!(a.is_zero(), a.signum() == 0);
    assert_eq!(a.is_positive(), a.signum() == 1);
    assert_eq!(a.is_negative(), a.signum() == -1);
    assert_eq!(a.is_one(), *a == BigInt::from(1i64));
    if let Some(v) = w {
        assert_eq!(i128::from(a.signum()), v.signum());
        assert_eq!(a.is_even(), v % 2 == 0);
        assert_eq!(a.bits(), 128 - v.unsigned_abs().leading_zeros() as usize);
        assert_eq!(a.to_i128(), Some(v));
        assert_eq!(a.to_i64(), i64::try_from(v).ok());
        assert_eq!(a.to_string(), v.to_string());
        let rel = (a.to_f64() - v as f64).abs();
        assert!(rel <= (v as f64).abs() * 1e-15, "to_f64 of {v}");
    } else {
        assert_eq!(a.to_i64(), None);
        assert_eq!(a.to_i128(), None);
    }
    if let Some(v) = a.to_i64() {
        assert_eq!(a.to_f64().to_bits(), (v as f64).to_bits(), "to_f64 {v}");
        assert_eq!(a.to_f64().to_bits(), horner_f64(v).to_bits(), "horner {v}");
    }
    assert_eq!(a.is_even(), (a % BigInt::from(2i64)).is_zero());
    let bits = a.bits();
    if bits > 0 {
        let two = BigInt::from(2i64);
        assert!(two.pow(bits as u32 - 1) <= abs && abs < two.pow(bits as u32));
    } else {
        assert!(a.is_zero());
    }

    // Display -> FromStr
    let parsed: BigInt = a.to_string().parse().expect("own rendering parses");
    assert_same(&parsed, a, "display round trip");

    // pow against repeated multiplication and checked_pow
    let mut acc = BigInt::one();
    for e in 0..5u32 {
        assert_same(&a.pow(e), &acc, "pow");
        check_word(&acc, w.and_then(|v| v.checked_pow(e)), "pow word");
        acc = &acc * a;
    }
}

fn check_binary(x: &Operand, y: &Operand) {
    let (a, b) = (&x.big, &y.big);
    let words = x.word.zip(y.word);

    let (sum, diff, prod) = (a + b, a - b, a * b);
    check_word(&sum, words.and_then(|(v, u)| v.checked_add(u)), "add");
    check_word(&diff, words.and_then(|(v, u)| v.checked_sub(u)), "sub");
    check_word(&prod, words.and_then(|(v, u)| v.checked_mul(u)), "mul");
    assert_same(&(&sum - b), a, "(a + b) - b");
    assert_same(&(&diff + b), a, "(a - b) + b");
    assert_same(&(b + a), &sum, "a + b commutes");
    assert_same(&(b * a), &prod, "a * b commutes");
    let mut acc = a.clone();
    acc += b;
    assert_same(&acc, &sum, "+=");
    acc -= b;
    assert_same(&acc, a, "-=");
    acc *= b;
    assert_same(&acc, &prod, "*=");

    // cmp against i128 and against the sign of the difference
    let ord = a.cmp(b);
    if let Some((v, u)) = words {
        assert_eq!(ord, v.cmp(&u), "cmp {v} {u}");
    }
    assert_eq!(ord, diff.signum().cmp(&0), "cmp vs sign of a - b");
    assert_eq!(b.cmp(a), ord.reverse());
    assert_eq!(ord == Ordering::Equal, a == b);
    assert_eq!(a == b, hash_of(a) == hash_of(b));

    // gcd, lcm
    let g = a.gcd(b);
    assert!(!g.is_negative());
    assert_same(&b.gcd(a), &g, "gcd commutes");
    if g.is_zero() {
        assert!(a.is_zero() && b.is_zero());
    } else {
        assert!((a % &g).is_zero() && (b % &g).is_zero(), "gcd divides");
        assert!((a / &g).gcd(&(b / &g)).is_one(), "gcd is greatest");
    }
    if let Some((v, u)) = words {
        let e = gcd_u128(v.unsigned_abs(), u.unsigned_abs());
        check_word(&g, i128::try_from(e).ok(), "gcd word");
    }
    let l = a.lcm(b);
    assert!(!l.is_negative());
    assert_same(&(&l * &g), &prod.abs(), "lcm * gcd = |a * b|");

    if b.is_zero() {
        return;
    }
    assert_same(&(&prod / b), a, "a * b / b");
    assert!((&prod % b).is_zero(), "a * b % b");

    // truncated division: remainder takes the sign of the dividend
    let (q, r) = a.div_rem(b);
    assert_same(&(&q * b + &r), a, "a = q * b + r");
    assert!(r.abs() < b.abs());
    assert!(r.is_zero() || r.signum() == a.signum());
    assert_same(&(a / b), &q, "/");
    assert_same(&(a % b), &r, "%");
    check_word(&q, words.and_then(|(v, u)| v.checked_div(u)), "div");
    check_word(&r, words.and_then(|(v, u)| v.checked_rem(u)), "rem");

    // floor division: modulus takes the sign of the divisor
    let (fq, fm) = (a.div_floor(b), a.mod_floor(b));
    assert_same(&(&fq * b + &fm), a, "a = floor(a / b) * b + m");
    assert!(fm.abs() < b.abs());
    assert!(fm.is_zero() || fm.signum() == b.signum());
    let floor = words.and_then(|(v, u)| floor_div_i128(v, u));
    check_word(&fq, floor.map(|f| f.0), "div_floor");
    check_word(&fm, floor.map(|f| f.1), "mod_floor");
}

fn assert_normal(x: &BigRat, what: &str) {
    assert!(x.denom().is_positive(), "{what}: den > 0 in {x}");
    assert!(x.numer().gcd(x.denom()).is_one(), "{what}: gcd = 1 in {x}");
    if x.is_zero() {
        assert!(x.denom().is_one(), "{what}: zero is 0/1");
    }
    assert_eq!(x.is_integer(), x.denom().is_one());
    assert_eq!(x.signum(), x.numer().signum());
}

/// Two rationals are observably the same value.
fn assert_same_rat(a: &BigRat, b: &BigRat, what: &str) {
    assert_eq!(a, b, "{what}");
    assert_eq!(a.cmp(b), Ordering::Equal, "{what}: cmp");
    assert_eq!(hash_of(a), hash_of(b), "{what}: hash");
    assert_eq!(a.to_string(), b.to_string(), "{what}: display");
}

/// The reduced `i128` fraction `num / den`, when `den != 0`.
fn reduce_i128(num: i128, den: i128) -> Option<(i128, i128)> {
    let g = i128::try_from(gcd_u128(num.unsigned_abs(), den.unsigned_abs())).ok()?;
    let (n, d) = (num / g, den / g);
    Some(if d < 0 {
        (n.checked_neg()?, d.checked_neg()?)
    } else {
        (n, d)
    })
}

fn check_rat_word(got: &BigRat, expect: Option<(i128, i128)>, what: &str) {
    if let Some((n, d)) = expect {
        assert_same(got.numer(), &BigInt::from(n), what);
        assert_same(got.denom(), &BigInt::from(d), what);
    }
}

fn rational(r: &mut StdRng) -> (BigRat, Option<(i128, i128)>) {
    let num = operand(r);
    let den = loop {
        let d = operand(r);
        if !d.big.is_zero() {
            break d;
        }
    };
    let words = num.word.zip(den.word).and_then(|(n, d)| reduce_i128(n, d));
    (BigRat::new(num.big, den.big), words)
}

fn check_rational(r: &mut StdRng) {
    let (x, xw) = rational(r);
    let (y, yw) = rational(r);
    assert_normal(&x, "new");
    check_rat_word(&x, xw, "new");

    let (sum, diff, prod) = (&x + &y, &x - &y, &x * &y);
    for (v, what) in [(&sum, "+"), (&diff, "-"), (&prod, "*")] {
        assert_normal(v, what);
    }
    assert_same_rat(&(&sum - &y), &x, "(x + y) - y");
    assert_same_rat(&(&diff + &y), &x, "(x - y) + y");
    assert_same_rat(&(&y + &x), &sum, "x + y commutes");
    assert_same_rat(&(&y * &x), &prod, "x * y commutes");
    assert_same_rat(&-&-&x, &x, "--x");
    let mut acc = x.clone();
    acc += &y;
    assert_same_rat(&acc, &sum, "+=");
    acc -= &y;
    assert_same_rat(&acc, &x, "-=");
    acc *= &y;
    assert_same_rat(&acc, &prod, "*=");

    // the i128 fraction, wherever every step fits
    if let (Some((a, b)), Some((c, d))) = (xw, yw) {
        let cross = |s: i128| -> Option<(i128, i128)> {
            let num = a
                .checked_mul(d)?
                .checked_add(c.checked_mul(b)?.checked_mul(s)?)?;
            reduce_i128(num, b.checked_mul(d)?)
        };
        check_rat_word(&sum, cross(1), "+ word");
        check_rat_word(&diff, cross(-1), "- word");
        let times = a
            .checked_mul(c)
            .zip(b.checked_mul(d))
            .and_then(|(n, d)| reduce_i128(n, d));
        check_rat_word(&prod, times, "* word");
        if c != 0 {
            let over = a
                .checked_mul(d)
                .zip(b.checked_mul(c))
                .and_then(|(n, d)| reduce_i128(n, d));
            check_rat_word(&(&x / &y), over, "/ word");
        }
        if let Some((l, r)) = a.checked_mul(d).zip(c.checked_mul(b)) {
            assert_eq!(x.cmp(&y), l.cmp(&r), "cmp word");
        }
    }

    let ord = x.cmp(&y);
    assert_eq!(ord, diff.signum().cmp(&0), "cmp vs sign of x - y");
    assert_eq!(y.cmp(&x), ord.reverse());
    assert_eq!(ord == Ordering::Equal, x == y);

    if !y.is_zero() {
        let quot = &x / &y;
        assert_normal(&quot, "/");
        assert_same_rat(&(&quot * &y), &x, "(x / y) * y");
        assert_same_rat(&(&prod / &y), &x, "(x * y) / y");
        let inv = y.recip();
        assert_normal(&inv, "recip");
        assert_same_rat(&(&y * &inv), &BigRat::one(), "y * 1/y");
        assert_same_rat(&(&x * &inv), &quot, "x * 1/y");
    }

    let abs = x.abs();
    assert_normal(&abs, "abs");
    assert!(!abs.is_negative() && (abs == x || abs == -&x));

    // floor <= x < floor + 1, ceil - 1 < x <= ceil
    let (fl, ce) = (BigRat::from(x.floor()), BigRat::from(x.ceil()));
    assert!(fl <= x && x < &fl + &BigRat::one(), "floor of {x}");
    assert!(&ce - &BigRat::one() < x && x <= ce, "ceil of {x}");
    assert_eq!(fl == ce, x.is_integer());
    if let Some((a, b)) = xw {
        let f = floor_div_i128(a, b).map(|f| f.0);
        check_word(&x.floor(), f, "floor word");
        let c = f.map(|f| if a % b == 0 { f } else { f + 1 });
        check_word(&x.ceil(), c, "ceil word");
    }

    // Display -> FromStr
    let parsed: BigRat = x.to_string().parse().expect("own rendering parses");
    assert_same_rat(&parsed, &x, "display round trip");

    // from_f64 is exact: a dyadic rational that converts back bit for bit
    let v = match r.gen_range(0u32..4) {
        0 => r.gen_range(-1e6f64..1e6),
        1 => r.gen_range(-1e18f64..1e18),
        2 => r.gen_range(-1.0f64..1.0) * 2f64.powi(r.gen_range(-60i32..60)),
        _ => r.next_u64() as i64 as f64,
    };
    let q = BigRat::from_f64(v).expect("finite");
    assert_normal(&q, "from_f64");
    assert_eq!(q.to_f64().to_bits(), (v + 0.0).to_bits(), "from_f64 {v}");
    let den = q.denom();
    let pow2 = BigInt::from(2i64).pow(den.bits() as u32 - 1);
    assert_same(&pow2, den, "from_f64 denominator is a power of two");
    if v.fract() == 0.0 && v.abs() < 9e18 {
        assert_same(q.numer(), &BigInt::from(v as i64), "from_f64 integer");
    }
}

fn run(cases: usize) {
    let mut r = StdRng::seed_from_u64(0x0012_711e_d1ff);
    for _ in 0..cases {
        let (x, y) = (operand(&mut r), operand(&mut r));
        check_unary(&x);
        check_binary(&x, &y);
        check_rational(&mut r);
    }
    // Every edge against every edge, not left to the draw.
    for &v in &EDGES {
        check_unary(&from_word(v));
        for &u in &EDGES {
            check_binary(&from_word(v), &from_word(u));
        }
    }
}

#[test]
fn differential_2k() {
    run(2_000);
}

#[test]
#[ignore = "200 000 cases; run in release (CI's checked job does)"]
fn differential_200k() {
    run(200_000);
}

#[test]
fn canonical_form_survives_a_round_trip() {
    let wide = BigInt::from(1i128 << 70);
    let back = (&wide + BigInt::from(5i64)) - &wide;
    let direct = BigInt::from(5i64);
    assert_same(&back, &direct, "(2^70 + 5) - 2^70");
    let set: HashSet<BigInt> = [direct].into_iter().collect();
    assert!(set.contains(&back));
    assert_eq!(back.to_i64(), Some(5));

    // the same through *, / and a parse
    let big: BigInt = "1180591620717411303429".parse().unwrap(); // 2^70 + 5
    assert_same(&(&big - &wide), &back, "parsed 2^70 + 5");
    assert_same(&(&(&back * &wide) / &wide), &back, "5 * 2^70 / 2^70");
    assert_same(&big.gcd(&BigInt::from(10i64)), &BigInt::one(), "gcd");
}

#[test]
fn i64_min_is_an_ordinary_value() {
    let min = BigInt::from(i64::MIN);
    let two63 = BigInt::from(1i128 << 63);
    assert_same(&-&min, &two63, "-MIN");
    assert_same(&min.abs(), &two63, "|MIN|");
    assert_same(&-&two63, &min, "-(2^63)");
    assert_eq!((-&two63).to_i64(), Some(i64::MIN));
    let minus_one = BigInt::from(-1i64);
    let (q, r) = min.div_rem(&minus_one);
    assert_same(&q, &two63, "MIN / -1");
    assert!(r.is_zero());
    assert_same(&min.div_floor(&minus_one), &two63, "MIN div_floor -1");
    assert!(min.mod_floor(&minus_one).is_zero());
    assert_same(&(&min * &minus_one), &two63, "MIN * -1");
    assert_same(&min.gcd(&min), &two63, "gcd(MIN, MIN)");
    assert_same(&min.gcd(&BigInt::zero()), &two63, "gcd(MIN, 0)");
    assert_eq!(min.bits(), 64);
    assert_eq!(min.to_f64(), i64::MIN as f64);
    let rat = BigRat::new(BigInt::one(), min.clone());
    assert_same(rat.numer(), &minus_one, "1 / MIN numerator");
    assert_same(rat.denom(), &two63, "1 / MIN denominator");
    assert_same_rat(&rat.recip(), &BigRat::from(min), "recip");
}

#[test]
fn the_inline_form_costs_no_space() {
    assert!(std::mem::size_of::<BigInt>() <= 32);
}
