//! Cooper's quantifier-elimination procedure for Presburger arithmetic.
//!
//! Sia generates FALSE training samples (unsatisfaction tuples, Def 4) and
//! decides optimality (Lemma 4) with formulas of the shape
//! `∃ cols′ . φ(cols′) ∧ ∀ others . ¬p(cols′, others)`. The inner universal
//! block is `¬∃ others . p`, so eliminating an existential block from a
//! quantifier-free formula suffices. Over the integers that is Cooper's
//! algorithm (1972): normalize the eliminated variable's coefficient to ±1
//! (at the price of a divisibility constraint), then replace the
//! existential with a finite disjunction over the *lower-bound + offset*
//! witnesses and the "arbitrarily small" limit formula.
//!
//! All variables occurring in the input must be integer-sorted; the
//! procedure is exact (no approximation) but can blow up exponentially in
//! the number of eliminated variables, so a disjunct budget converts
//! pathological inputs into an explicit error instead of an OOM.

use crate::formula::Formula;
use crate::term::{Atom, LinTerm, Rel};
use crate::var::VarId;
use sia_num::{BigInt, BigRat};

/// Budget limits for quantifier elimination.
#[derive(Debug, Clone)]
pub struct QeConfig {
    /// Maximum number of top-level disjuncts generated while eliminating a
    /// single variable (`δ · (|B| + 1)`); exceeding it aborts with
    /// [`QeError::Budget`].
    pub max_disjuncts: usize,
    /// Maximum formula size (AST nodes) of an intermediate result.
    pub max_formula_size: usize,
}

impl Default for QeConfig {
    fn default() -> Self {
        QeConfig {
            max_disjuncts: 4_096,
            max_formula_size: 2_000_000,
        }
    }
}

/// Why elimination failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QeError {
    /// The disjunct or size budget was exceeded.
    Budget(String),
}

impl std::fmt::Display for QeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QeError::Budget(s) => write!(f, "quantifier elimination budget exceeded: {s}"),
        }
    }
}

impl std::error::Error for QeError {}

/// Eliminate `∃ vars . f` over the integers, returning an equivalent
/// quantifier-free formula over the remaining variables.
///
/// Preconditions: `f` is quantifier-free and every arithmetic variable in
/// `f` is integer-valued. Variables are eliminated innermost-first in the
/// order that currently occurs in the fewest atoms (a standard
/// cheapest-first heuristic).
pub fn eliminate_exists(f: &Formula, vars: &[VarId], cfg: &QeConfig) -> Result<Formula, QeError> {
    let _span = sia_obs::span("qe.eliminate");
    let mut g = f.nnf();
    let mut remaining: Vec<VarId> = vars.to_vec();
    while !remaining.is_empty() {
        // Pick the variable with the fewest atom occurrences.
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, v)| (i, count_atom_occurrences(&g, *v)))
            .min_by_key(|(_, n)| *n)
            .unwrap();
        let x = remaining.swap_remove(idx);
        let size_before = if sia_obs::enabled() { g.size() } else { 0 };
        g = eliminate_one(&g, x, cfg)?;
        if sia_obs::enabled() {
            sia_obs::add(sia_obs::Counter::QeEliminations, 1);
            #[allow(clippy::cast_precision_loss)]
            sia_obs::record(
                sia_obs::Hist::QeBlowup,
                g.size() as f64 / size_before.max(1) as f64,
            );
        }
        if g.size() > cfg.max_formula_size {
            return Err(QeError::Budget(format!(
                "intermediate formula has {} nodes",
                g.size()
            )));
        }
    }
    #[cfg(feature = "checked")]
    {
        let audit_cfg = crate::audit::QeAuditConfig::default();
        if let Err(e) = crate::audit::audit_elimination(f, vars, &g, &audit_cfg) {
            panic!("unsound quantifier elimination: {e}");
        }
    }
    Ok(g)
}

fn count_atom_occurrences(f: &Formula, x: VarId) -> usize {
    match f {
        Formula::Atom(a) => usize::from(a.term.mentions(&x)),
        Formula::Divides(_, t) | Formula::NotDivides(_, t) => usize::from(t.mentions(&x)),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().map(|g| count_atom_occurrences(g, x)).sum(),
        Formula::Not(g) => count_atom_occurrences(g, x),
        _ => 0,
    }
}

/// Eliminate a single existential variable with Cooper's method.
fn eliminate_one(f: &Formula, x: VarId, cfg: &QeConfig) -> Result<Formula, QeError> {
    if !f.mentions(x) {
        return Ok(f.clone());
    }
    // Step 1: put every atom mentioning x into integer-normalized form and
    // compute δ₁ = lcm of |coeff(x)|.
    let normalized = normalize_atoms(f, x);
    let mut delta1 = BigInt::one();
    collect_coeff_lcm(&normalized, x, &mut delta1);
    // Step 2: scale each atom so coeff(x') = ±1 where x' = δ₁·x, and turn
    // non-strict atoms into strict ones (valid over the integers).
    let scaled = scale_to_unit(&normalized, x, &delta1);
    // The coefficient change is compensated by requiring δ₁ | x'.
    let with_div = scaled.and(Formula::divides(delta1.clone(), LinTerm::var(x)));
    // Step 3: collect lower-bound terms (B set) and the divisibility lcm δ.
    let mut lower_bounds: Vec<LinTerm> = Vec::new();
    let mut delta = BigInt::one();
    collect_bounds_and_moduli(&with_div, x, &mut lower_bounds, &mut delta);
    dedup_terms(&mut lower_bounds);
    let delta_u = delta
        .to_i64()
        .filter(|v| *v > 0)
        .ok_or_else(|| QeError::Budget(format!("divisibility lcm too large: {delta}")))?;
    let total = (delta_u as usize).saturating_mul(lower_bounds.len() + 1);
    if total > cfg.max_disjuncts {
        return Err(QeError::Budget(format!(
            "{total} disjuncts (δ = {delta_u}, |B| = {})",
            lower_bounds.len()
        )));
    }
    // Step 4: build  ⋁_{j=1..δ} ( F₋∞[x'→j] ∨ ⋁_{b∈B} F[x'→b+j] ).
    let minus_inf = lower_limit(&with_div, x);
    let mut disjuncts: Vec<Formula> = Vec::new();
    for j in 1..=delta_u {
        let jt = LinTerm::constant(BigRat::from(j));
        let d = minus_inf.subst(x, &jt);
        if d == Formula::True {
            return Ok(Formula::True);
        }
        disjuncts.push(d);
        for b in &lower_bounds {
            let repl = b.add(&jt);
            let d = with_div.subst(x, &repl);
            if d == Formula::True {
                return Ok(Formula::True);
            }
            disjuncts.push(d);
        }
    }
    Ok(Formula::or_all(disjuncts))
}

/// Normalize every atom that mentions `x` to coprime integer coefficients.
fn normalize_atoms(f: &Formula, x: VarId) -> Formula {
    map_atoms(f, &|a: &Atom| {
        if a.term.mentions(&x) {
            Formula::Atom(Atom {
                rel: a.rel,
                term: a.term.normalize_integer(),
            })
        } else {
            Formula::Atom(a.clone())
        }
    })
}

fn collect_coeff_lcm(f: &Formula, x: VarId, acc: &mut BigInt) {
    match f {
        Formula::Atom(a) => {
            let c = a.term.coeff(&x);
            if !c.is_zero() {
                debug_assert!(c.is_integer(), "atoms must be integer-normalized");
                *acc = acc.lcm(c.numer());
            }
        }
        Formula::Divides(_, t) | Formula::NotDivides(_, t) => {
            let c = t.coeff(&x);
            if !c.is_zero() {
                // `scale_to_unit` multiplies this term by δ₁/|c|, which must
                // be a positive integer, so δ₁ needs the RAW numerator of c
                // — not the content-normalized one. Divisibility terms are
                // not rewritten by `normalize_atoms` (that would change the
                // modulus semantics), so `d | 2x + 2y` contributes 2 here
                // even though its normalized coefficient is 1.
                *acc = acc.lcm(c.numer());
            }
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                collect_coeff_lcm(g, x, acc);
            }
        }
        Formula::Not(g) => collect_coeff_lcm(g, x, acc),
        _ => {}
    }
}

/// Multiply each atom mentioning `x` so the coefficient of `x` becomes ±1
/// under the reading x ↦ x' = δ₁·x, and convert `≤` to `<` (integers).
fn scale_to_unit(f: &Formula, x: VarId, delta1: &BigInt) -> Formula {
    match f {
        Formula::Atom(a) => {
            let c = a.term.coeff(&x);
            if c.is_zero() {
                return Formula::Atom(a.clone());
            }
            let a_abs = c.numer().abs();
            let m = BigRat::from_int(delta1 / &a_abs);
            let scaled = a.term.scale(&m);
            // Reinterpret coefficient of x: it is now ±δ₁; under x' = δ₁·x
            // the term Σ…±δ₁·x… becomes …±1·x'….
            let sign = scaled.coeff(&x).signum();
            let rest = scaled.sub(&LinTerm::var(x).scale(&scaled.coeff(&x)));
            let unit = rest.add(&LinTerm::var(x).scale(&BigRat::from(sign as i64)));
            let term = match a.rel {
                Rel::Lt => unit,
                // Over integers t ≤ 0 ⟺ t < 1 ⟺ t - 1 < 0.
                Rel::Le => unit.add(&LinTerm::constant(-BigRat::one())),
            };
            Formula::lt0(term)
        }
        Formula::Divides(d, t) => {
            let c = t.coeff(&x);
            if c.is_zero() {
                return Formula::Divides(d.clone(), t.clone());
            }
            // d | t ⟺ (m·d) | (m·t) for positive integer m = δ₁/|a|.
            let a_abs = abs_numer_over_denom(&c);
            let m = &BigRat::from_int(delta1.clone()) / &a_abs;
            debug_assert!(m.is_positive() && m.is_integer());
            let scaled = t.scale(&m);
            let sign = scaled.coeff(&x).signum();
            let rest = scaled.sub(&LinTerm::var(x).scale(&scaled.coeff(&x)));
            let unit = rest.add(&LinTerm::var(x).scale(&BigRat::from(sign as i64)));
            Formula::divides(d * m.numer(), unit)
        }
        Formula::NotDivides(d, t) => {
            scale_to_unit(&Formula::Divides(d.clone(), t.clone()), x, delta1).not()
        }
        Formula::And(fs) => Formula::and_all(fs.iter().map(|g| scale_to_unit(g, x, delta1))),
        Formula::Or(fs) => Formula::or_all(fs.iter().map(|g| scale_to_unit(g, x, delta1))),
        Formula::Not(g) => scale_to_unit(g, x, delta1).not(),
        other => other.clone(),
    }
}

fn abs_numer_over_denom(c: &BigRat) -> BigRat {
    BigRat::new(c.numer().abs(), c.denom().clone())
}

/// Collect the B set (terms `b` from atoms `b < x'`) and the lcm of
/// divisibility moduli involving `x'`. Assumes unit coefficients.
fn collect_bounds_and_moduli(f: &Formula, x: VarId, lower: &mut Vec<LinTerm>, delta: &mut BigInt) {
    match f {
        Formula::Atom(a) => {
            let c = a.term.coeff(&x);
            if c.is_zero() {
                return;
            }
            debug_assert!(a.rel == Rel::Lt, "atoms must be strict after scaling");
            if c.is_negative() {
                // -x' + r < 0  ⟺  r < x'  : lower bound b = r
                let b = a.term.add(&LinTerm::var(x));
                lower.push(b);
            }
        }
        Formula::Divides(d, t) | Formula::NotDivides(d, t) if t.mentions(&x) => {
            *delta = delta.lcm(d);
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                collect_bounds_and_moduli(g, x, lower, delta);
            }
        }
        Formula::Not(g) => collect_bounds_and_moduli(g, x, lower, delta),
        _ => {}
    }
}

fn dedup_terms(ts: &mut Vec<LinTerm>) {
    let mut seen: Vec<LinTerm> = Vec::new();
    ts.retain(|t| {
        if seen.contains(t) {
            false
        } else {
            seen.push(t.clone());
            true
        }
    });
}

/// The limit formula F₋∞: inequality atoms mentioning `x'` are replaced by
/// their value as x' → -∞ (upper bounds true, lower bounds false).
fn lower_limit(f: &Formula, x: VarId) -> Formula {
    match f {
        Formula::Atom(a) => {
            let c = a.term.coeff(&x);
            if c.is_zero() {
                Formula::Atom(a.clone())
            } else if c.is_positive() {
                // x' + r < 0 : true at -∞
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::And(fs) => Formula::and_all(fs.iter().map(|g| lower_limit(g, x))),
        Formula::Or(fs) => Formula::or_all(fs.iter().map(|g| lower_limit(g, x))),
        Formula::Not(g) => lower_limit(g, x).not(),
        other => other.clone(),
    }
}

/// Apply `f` to every atom, leaving other nodes untouched.
fn map_atoms(f: &Formula, m: &impl Fn(&Atom) -> Formula) -> Formula {
    match f {
        Formula::Atom(a) => m(a),
        Formula::And(fs) => Formula::and_all(fs.iter().map(|g| map_atoms(g, m))),
        Formula::Or(fs) => Formula::or_all(fs.iter().map(|g| map_atoms(g, m))),
        Formula::Not(g) => map_atoms(g, m).not(),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SmtResult, Solver};
    use crate::var::Sort;

    fn t1(v: VarId) -> LinTerm {
        LinTerm::var(v)
    }

    fn c(n: i64) -> LinTerm {
        LinTerm::constant(BigRat::from(n))
    }

    /// Reference check: `∃x. f` decided by the solver directly, vs the
    /// QE result with the remaining variables fixed to `vals`.
    fn check_equiv_at(f: &Formula, x: VarId, others: &[(VarId, i64)], solver_vars: usize) {
        let qe = eliminate_exists(f, &[x], &QeConfig::default()).unwrap();
        assert!(!qe.mentions(x), "QE result still mentions {x}: {qe}");
        for &(v, val) in others {
            let _ = (v, val);
        }
        // Substitute the point into both formulas.
        let mut fx = f.clone();
        let mut qx = qe.clone();
        for &(v, val) in others {
            fx = fx.subst(v, &c(val));
            qx = qx.subst(v, &c(val));
        }
        // qx is ground: evaluate.
        let qe_truth = match &qx {
            Formula::True => true,
            Formula::False => false,
            g => {
                // May still contain divisibilities over constants that
                // folded; anything else means x leaked. Evaluate with a
                // dummy assignment (no vars should remain).
                assert!(g.vars().is_empty(), "unexpected free vars in {g}");
                g.eval(&|_| BigRat::zero(), &|_| false)
            }
        };
        // ∃x. fx decided by the solver.
        let mut s = Solver::new();
        for i in 0..solver_vars {
            s.declare(format!("v{i}"), Sort::Int);
        }
        let exists = matches!(s.check(&fx), SmtResult::Sat(_));
        assert_eq!(
            qe_truth, exists,
            "QE disagrees with solver at {others:?} for {f}"
        );
    }

    #[test]
    fn eliminate_simple_bounds() {
        // ∃x. y < x ∧ x < z   ⟺  z - y ≥ 2 (strict integer gap)
        let (x, y, z) = (VarId(0), VarId(1), VarId(2));
        let f = Formula::lt0(t1(y).sub(&t1(x))).and(Formula::lt0(t1(x).sub(&t1(z))));
        for (yv, zv) in [(0i64, 2), (0, 1), (0, 3), (-5, -3), (4, 4), (3, 5)] {
            check_equiv_at(&f, x, &[(y, yv), (z, zv)], 3);
        }
    }

    #[test]
    fn eliminate_with_coefficients() {
        // ∃x. 2x = y  ⟺  2 | y
        let (x, y) = (VarId(0), VarId(1));
        let f = Formula::eq0(t1(x).scale(&BigRat::from(2)).sub(&t1(y)));
        for yv in [-4i64, -3, 0, 1, 2, 7, 8] {
            check_equiv_at(&f, x, &[(y, yv)], 2);
        }
    }

    #[test]
    fn eliminate_mixed_coefficients() {
        // ∃x. 3x ≥ y ∧ 2x ≤ z
        let (x, y, z) = (VarId(0), VarId(1), VarId(2));
        let f = Formula::le0(t1(y).sub(&t1(x).scale(&BigRat::from(3))))
            .and(Formula::le0(t1(x).scale(&BigRat::from(2)).sub(&t1(z))));
        for (yv, zv) in [
            (0i64, 0i64),
            (1, 0),
            (0, 1),
            (5, 3),
            (6, 3),
            (7, 4),
            (-9, -7),
            (-1, -1),
        ] {
            check_equiv_at(&f, x, &[(y, yv), (z, zv)], 3);
        }
    }

    #[test]
    fn eliminate_disjunction() {
        // ∃x. (x < y ∨ x > z) — always true over unbounded integers.
        let (x, y, z) = (VarId(0), VarId(1), VarId(2));
        let f = Formula::lt0(t1(x).sub(&t1(y))).or(Formula::lt0(t1(z).sub(&t1(x))));
        let qe = eliminate_exists(&f, &[x], &QeConfig::default()).unwrap();
        // Must be valid: check at a few points.
        for (yv, zv) in [(0i64, 0i64), (5, -5), (-100, 100)] {
            let g = qe.subst(y, &c(yv)).subst(z, &c(zv));
            assert!(
                matches!(g, Formula::True) || g.eval(&|_| BigRat::zero(), &|_| false),
                "expected true at ({yv},{zv}), got {g}"
            );
        }
    }

    #[test]
    fn eliminate_unsat_core() {
        // ∃x. x < y ∧ y < x is false.
        let (x, y) = (VarId(0), VarId(1));
        let f = Formula::lt0(t1(x).sub(&t1(y))).and(Formula::lt0(t1(y).sub(&t1(x))));
        for yv in [-3i64, 0, 9] {
            check_equiv_at(&f, x, &[(y, yv)], 2);
        }
    }

    #[test]
    fn eliminate_with_divisibility() {
        // ∃x. x ≡ 1 (mod 3) ∧ y ≤ x ∧ x ≤ y + 1
        // ⟺ y ≡ 1 or y+1 ≡ 1 (mod 3).
        let (x, y) = (VarId(0), VarId(1));
        let f = Formula::divides(BigInt::from(3i64), t1(x).sub(&c(1)))
            .and(Formula::le0(t1(y).sub(&t1(x))))
            .and(Formula::le0(t1(x).sub(&t1(y)).sub(&c(1))));
        for yv in 0i64..8 {
            check_equiv_at(&f, x, &[(y, yv)], 2);
        }
    }

    #[test]
    fn eliminate_two_variables() {
        // ∃x₁,x₂. y = x₁ + x₂ ∧ x₁ ≥ 0 ∧ x₂ ≥ 0  ⟺  y ≥ 0
        let (x1, x2, y) = (VarId(0), VarId(1), VarId(2));
        let f = Formula::eq0(t1(x1).add(&t1(x2)).sub(&t1(y)))
            .and(Formula::le0(c(0).sub(&t1(x1))))
            .and(Formula::le0(c(0).sub(&t1(x2))));
        let qe = eliminate_exists(&f, &[x1, x2], &QeConfig::default()).unwrap();
        for yv in [-3i64, -1, 0, 1, 5] {
            let g = qe.subst(y, &c(yv));
            let truth = match &g {
                Formula::True => true,
                Formula::False => false,
                g => g.eval(&|_| BigRat::zero(), &|_| false),
            };
            assert_eq!(truth, yv >= 0, "at y = {yv}: {g}");
        }
    }

    #[test]
    fn motivating_example_projection() {
        // p: a2 - b1 < 20 ∧ a1 - a2 < a2 - b1 + 10 ∧ b1 < 0.
        // ∃b1. p ⟺ a2 ≤ 18 ∧ a1 - a2 ≤ 28 (see sia-expr eval tests).
        let (a1, a2, b1) = (VarId(0), VarId(1), VarId(2));
        let p = Formula::lt0(t1(a2).sub(&t1(b1)).sub(&c(20)))
            .and(Formula::lt0(
                t1(a1).sub(&t1(a2)).sub(&t1(a2).sub(&t1(b1))).sub(&c(10)),
            ))
            .and(Formula::lt0(t1(b1)));
        let qe = eliminate_exists(&p, &[b1], &QeConfig::default()).unwrap();
        let expect = |a1v: i64, a2v: i64| a2v <= 18 && a1v - a2v <= 28;
        for (a1v, a2v) in [
            (0i64, 0i64),
            (-5, 1),
            (2, -6),
            (50, 0),
            (0, 19),
            (0, 18),
            (28, 0),
            (29, 0),
            (-40, -2),
            (47, 18),
            (47, 19),
        ] {
            let g = qe.subst(a1, &c(a1v)).subst(a2, &c(a2v));
            let truth = match &g {
                Formula::True => true,
                Formula::False => false,
                g => g.eval(&|_| BigRat::zero(), &|_| false),
            };
            assert_eq!(truth, expect(a1v, a2v), "at ({a1v},{a2v})");
        }
    }

    #[test]
    fn budget_exceeded() {
        // Huge coefficient forces a large δ; tiny budget trips.
        let (x, y) = (VarId(0), VarId(1));
        let f = Formula::eq0(t1(x).scale(&BigRat::from(97)).sub(&t1(y)));
        let cfg = QeConfig {
            max_disjuncts: 10,
            max_formula_size: 1_000_000,
        };
        assert!(matches!(
            eliminate_exists(&f, &[x], &cfg),
            Err(QeError::Budget(_))
        ));
    }

    #[test]
    fn no_occurrence_is_identity() {
        let (x, y) = (VarId(0), VarId(1));
        let f = Formula::lt0(t1(y));
        assert_eq!(eliminate_exists(&f, &[x], &QeConfig::default()).unwrap(), f);
    }
}
