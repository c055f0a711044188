//! Exact projection by the Omega test's shadows (Pugh, "The Omega test",
//! CACM 1992), where they coincide.
//!
//! Eliminating `x` from a conjunction of integer bounds pairs every lower
//! bound `a·x ≥ L` with every upper bound `b·x ≤ U`. The *real shadow*
//! `a·U ≥ b·L` is Fourier–Motzkin's answer and admits every point that
//! has a rational witness; the *dark shadow* `a·U − b·L ≥ (a−1)(b−1)`
//! admits only points with an integer one. When `a = 1` or `b = 1` for
//! every pair the two are the same formula, so it is the exact integer
//! projection, with no divisibility literal — where Cooper's procedure
//! ([`crate::qe`]) must write one for each non-unit coefficient.
//!
//! [`exact_shadow`] answers only that case and declines (`None`) the
//! rest: a pair with `a > 1` and `b > 1` (a non-unit equality is one), a
//! divisibility literal or boolean variable, or a disjunctive normal form
//! of more than [`MAX_DISJUNCTS`] conjunctions. A disequality arrives as
//! the two-way disjunction `t < 0 ∨ −t < 0` and is projected disjunct by
//! disjunct.

use crate::formula::Formula;
use crate::term::{Atom, LinTerm, Rel};
use crate::var::VarId;
use sia_num::BigRat;

/// The most conjunctions the input's disjunctive normal form may have.
pub const MAX_DISJUNCTS: usize = 8;

/// The most bounds one conjunction may hold after an elimination step
/// (Fourier–Motzkin squares the count in the worst case).
const MAX_ROWS: usize = 64;

/// `∃ vars . f` over the integers when the real and dark shadows of every
/// step coincide; `None` otherwise.
///
/// Preconditions: `f` is quantifier-free and every arithmetic variable in
/// it is integer-valued. Variables are eliminated one at a time, each
/// step taking the first remaining variable whose shadows coincide, and
/// the result is a disjunction of conjunctions of `t ≤ 0` atoms, each with
/// coprime integer coefficients.
pub fn exact_shadow(f: &Formula, vars: &[VarId]) -> Option<Formula> {
    let mut disjuncts = Vec::new();
    for conj in dnf(&f.nnf())? {
        let mut rows = Vec::new();
        for a in &conj {
            push_row(&mut rows, tighten(a));
        }
        let mut remaining = vars.to_vec();
        while !remaining.is_empty() {
            let (i, next) = remaining
                .iter()
                .enumerate()
                .find_map(|(i, &x)| Some((i, eliminate(&rows, x)?)))?;
            remaining.swap_remove(i);
            rows = next;
        }
        disjuncts.push(Formula::and_all(rows.into_iter().map(Formula::le0)));
    }
    let g = Formula::or_all(disjuncts);
    #[cfg(feature = "checked")]
    {
        let audit_cfg = crate::audit::QeAuditConfig::default();
        if let Err(e) = crate::audit::audit_elimination(f, vars, &g, &audit_cfg) {
            panic!("unsound exact shadow: {e}");
        }
    }
    Some(g)
}

/// The conjunctions of atoms whose disjunction is the negation-normal
/// `f`, or `None` past [`MAX_DISJUNCTS`] or on a literal that is not a
/// linear atom.
fn dnf(f: &Formula) -> Option<Vec<Vec<Atom>>> {
    match f {
        Formula::True => Some(vec![Vec::new()]),
        Formula::False => Some(Vec::new()),
        Formula::Atom(a) => Some(vec![vec![a.clone()]]),
        Formula::Or(fs) => {
            let mut out = Vec::new();
            for g in fs {
                out.extend(dnf(g)?);
            }
            (out.len() <= MAX_DISJUNCTS).then_some(out)
        }
        Formula::And(fs) => {
            let mut out = vec![Vec::new()];
            for g in fs {
                let parts = dnf(g)?;
                if out.len() * parts.len() > MAX_DISJUNCTS {
                    return None;
                }
                out = out
                    .iter()
                    .flat_map(|conj| {
                        parts.iter().map(move |part| {
                            let mut c: Vec<Atom> = conj.clone();
                            c.extend(part.iter().cloned());
                            c
                        })
                    })
                    .collect();
            }
            Some(out)
        }
        Formula::Divides(..) | Formula::NotDivides(..) | Formula::BoolVar(_) | Formula::Not(_) => {
            None
        }
    }
}

/// The atom as one `t ≤ 0` row over the integers: denominators cleared,
/// a strict bound moved in by one, the coefficients divided by their gcd
/// and the constant rounded up (`2x − 15 ≤ 0` becomes `x − 7 ≤ 0`).
fn tighten(a: &Atom) -> LinTerm {
    let t = a.term.clear_denominators();
    let t = match a.rel {
        Rel::Le => t,
        Rel::Lt => t.add(&LinTerm::constant(BigRat::one())),
    };
    t.tightened_le()
}

/// Add `row` to a conjunction: a constant row that holds is dropped, and
/// of two rows with the same coefficients only the tighter stays.
fn push_row(rows: &mut Vec<LinTerm>, row: LinTerm) {
    if row.is_constant() && !row.constant_term().is_positive() {
        return;
    }
    let same = |r: &LinTerm| r.iter().eq(row.iter());
    match rows.iter_mut().find(|r| same(r)) {
        Some(r) if r.constant_term() < row.constant_term() => *r = row,
        Some(_) => {}
        None => rows.push(row),
    }
}

/// The rows with `x` eliminated, or `None` when the shadows differ (or
/// the result outgrows [`MAX_ROWS`]). An equality with a ±1 coefficient on
/// `x` — the rows `t ≤ 0` and `−t ≤ 0` — is substituted into the rest.
fn eliminate(rows: &[LinTerm], x: VarId) -> Option<Vec<LinTerm>> {
    let one = BigRat::one();
    let unit_eq = rows
        .iter()
        .position(|t| t.coeff(&x).abs() == one && rows.iter().any(|u| *u == t.negated()));
    let mut out = Vec::new();
    if let Some(i) = unit_eq {
        // c·x + r = 0 with c = ±1 gives x = −c·r.
        let t = &rows[i];
        let c = t.coeff(&x);
        let r = t.sub(&LinTerm::var(x).scale(&c));
        let value = r.scale(&-c);
        for u in rows {
            push_row(&mut out, tighten(&Atom::le(u.subst(&x, &value))));
        }
        return Some(out);
    }
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    for t in rows {
        let k = t.coeff(&x);
        if k.is_zero() {
            push_row(&mut out, t.clone());
        } else if k.is_positive() {
            upper.push((k, t));
        } else {
            lower.push((-k, t));
        }
    }
    // −a·x + l ≤ 0 and b·x + u ≤ 0 combine to b·l + a·u ≤ 0.
    for (a, l) in &lower {
        for (b, u) in &upper {
            if *a != one && *b != one {
                return None;
            }
            push_row(&mut out, tighten(&Atom::le(l.scale(b).add(&u.scale(a)))));
            if out.len() > MAX_ROWS {
                return None;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> LinTerm {
        LinTerm::var(VarId(i))
    }

    fn c(n: i64) -> LinTerm {
        LinTerm::constant(BigRat::from(n))
    }

    fn k(n: i64, t: LinTerm) -> LinTerm {
        t.scale(&BigRat::from(n))
    }

    /// `l ≤ r`
    fn le(l: LinTerm, r: LinTerm) -> Formula {
        Formula::le0(l.sub(&r))
    }

    fn holds(f: &Formula, point: &[i64]) -> bool {
        f.eval(&|x: VarId| BigRat::from(point[x.index()]), &|_| false)
    }

    /// The shadow of `f` over the variables before `free` agrees with a
    /// brute-force search for witnesses among the eliminated ones (the
    /// rest, each in `-30..=30`) on every point of `-8..=8` over `free`.
    fn assert_exact(f: &Formula, free: usize, vars: usize) -> Formula {
        let elim: Vec<VarId> = (free..vars).map(|i| VarId(i as u32)).collect();
        let g = exact_shadow(f, &elim).expect("the shadows coincide");
        assert!(elim.iter().all(|&x| !g.mentions(x)), "{g}");
        let mut point = vec![0i64; vars];
        let free_points = 17usize.pow(free as u32);
        for n in 0..free_points {
            let mut m = n;
            for p in point.iter_mut().take(free) {
                *p = (m % 17) as i64 - 8;
                m /= 17;
            }
            let witnessed = witness(f, &mut point, free);
            assert_eq!(holds(&g, &point), witnessed, "{g} at {point:?}");
        }
        g
    }

    fn witness(f: &Formula, point: &mut [i64], at: usize) -> bool {
        if at == point.len() {
            return holds(f, point);
        }
        (-30..=30).any(|w| {
            point[at] = w;
            witness(f, point, at + 1)
        })
    }

    #[test]
    fn a_unit_upper_bound_is_exact() {
        // ∃r. 2n ≤ 5r ∧ r ≤ 3  ⟺  n ≤ 7 (Cooper adds 5 | …).
        let (n, r) = (v(0), v(1));
        let f = le(k(2, n), k(5, r.clone())).and(le(r, c(3)));
        let g = assert_exact(&f, 1, 2);
        assert_eq!(g.to_string(), "1*v0 - 7 <= 0");
    }

    #[test]
    fn a_unit_lower_bound_is_exact() {
        // ∃y. x < y ∧ 3y ≤ 2z + 1  ⟺  3x + 3 ≤ 2z + 1.
        let (x, z, y) = (v(0), v(1), v(2));
        let f = Formula::lt0(x.sub(&y)).and(le(k(3, y), k(2, z).add(&c(1))));
        assert_exact(&f, 2, 3);
    }

    #[test]
    fn two_variables_are_eliminated_in_turn() {
        // ∃y, w. 2x ≤ 3y ∧ y ≤ w − 1 ∧ x ≤ 2w ∧ w ≤ z + 2.
        let (x, z, y, w) = (v(0), v(1), v(2), v(3));
        let f = le(k(2, x.clone()), k(3, y.clone()))
            .and(le(y, w.clone().sub(&c(1))))
            .and(le(x, k(2, w.clone())))
            .and(le(w, z.add(&c(2))));
        assert_exact(&f, 2, 4);
    }

    #[test]
    fn a_unit_equality_is_substituted() {
        // y = x − 2z pairs 3y ≥ 2x − 4 with 2y ≤ z + 7, which FM alone
        // would decline (3 and 2); substituting y leaves no pair at all.
        let (x, z, y) = (v(0), v(1), v(2));
        let f = Formula::eq0(y.clone().sub(&x).add(&k(2, z.clone())))
            .and(le(k(2, x.clone()).sub(&c(4)), k(3, y.clone())))
            .and(le(k(2, y), z.add(&c(7))));
        assert_exact(&f, 2, 3);
        // Without the equality the same bounds decline.
        let (x, z, y) = (v(0), v(1), v(2));
        let g = le(k(2, x).sub(&c(4)), k(3, y.clone())).and(le(k(2, y), z.add(&c(7))));
        assert_eq!(exact_shadow(&g, &[VarId(2)]), None);
    }

    #[test]
    fn differing_shadows_decline() {
        // ∃y. 3y ≥ 2x ∧ 3y ≤ 2x + 1: the real shadow is TRUE, but x = 2
        // has no integer witness (4 ≤ 3y ≤ 5).
        let (x, y) = (v(0), v(1));
        let f = le(k(2, x.clone()), k(3, y.clone())).and(le(k(3, y), k(2, x).add(&c(1))));
        assert_eq!(exact_shadow(&f, &[VarId(1)]), None);
    }

    #[test]
    fn a_disequality_is_projected_per_disjunct() {
        // ∃y. 2y ≠ x ∧ 0 ≤ y ≤ 1 ∧ … : two disjuncts, each exact.
        let (x, y) = (v(0), v(1));
        let f = Formula::ne0(k(2, y.clone()).sub(&x))
            .and(le(c(0), y.clone()))
            .and(le(y, c(1)));
        assert_exact(&f, 1, 2);
        // Divisibility literals are Cooper's, not the shadow's.
        let d = Formula::divides(sia_num::BigInt::from(3i64), v(1)).and(le(v(0), v(1)));
        assert_eq!(exact_shadow(&d, &[VarId(1)]), None);
    }
}
