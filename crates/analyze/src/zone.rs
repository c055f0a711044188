//! Difference-bound-matrix (zone) domain over exact rationals.
//!
//! A [`Zone`] over variables `x₁ … xₙ` stores, for every ordered pair, an
//! upper bound on the difference `xᵢ - xⱼ ≤ c` (strict or closed). Index 0
//! is the implicit *zero variable*, so unary bounds are just rows/columns
//! against it: `xᵢ ≤ c` is `xᵢ - x₀ ≤ c` and `xᵢ ≥ c` is `x₀ - xᵢ ≤ -c`.
//!
//! The workhorse is shortest-path **closure** (Floyd–Warshall over the
//! bound semiring: values add, strictness ORs): after closure every entry
//! is the tightest difference bound entailed by the conjunction, and an
//! inconsistent system shows up as a negative-weight cycle on the diagonal.
//! Closure is exactly Fourier–Motzkin restricted to difference constraints,
//! which is what makes [`Zone::project`] a *sound and complete* quantifier
//! elimination when all variables share a sort: dropping the rows/columns
//! of the eliminated variables from a closed DBM yields precisely
//! `∃ eliminated . zone` (over the rationals directly; over the integers
//! after per-edge integer tightening, which closure maintains because sums
//! of closed integer bounds stay closed and integral).

use crate::interval::{Bound, Interval};

/// Pick the tighter (smaller, strict-wins-ties) of two upper bounds.
fn tighter_ub(a: Option<&Bound>, b: Option<&Bound>) -> Option<Bound> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) | (None, Some(x)) => Some(x.clone()),
        (Some(x), Some(y)) => {
            let pick_x = match x.value.cmp(&y.value) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => x.strict || !y.strict,
            };
            Some(if pick_x { x.clone() } else { y.clone() })
        }
    }
}

/// `a` is at least as tight as `b` (every point satisfying `x ≤ₐ` also
/// satisfies `x ≤ᵦ`). An absent `b` is the trivial bound, satisfied by all.
fn entails_ub(a: Option<&Bound>, b: Option<&Bound>) -> bool {
    match (a, b) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some(x), Some(y)) => x.value < y.value || (x.value == y.value && (x.strict || !y.strict)),
    }
}

/// Bound addition along a path: values add, strictness ORs.
fn add_ub(a: &Bound, b: &Bound) -> Bound {
    Bound {
        value: &a.value + &b.value,
        strict: a.strict || b.strict,
    }
}

/// A difference-bound matrix over named variables. Matrix index 0 is the
/// zero variable; variable `k` of [`Zone::vars`] lives at index `k + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    vars: Vec<String>,
    /// `ints[i]` — matrix index `i` ranges over the integers (index 0, the
    /// zero variable, always does).
    ints: Vec<bool>,
    /// Row-major `(n+1)²` matrix: `m[i·d + j]` bounds `xᵢ - xⱼ`.
    m: Vec<Option<Bound>>,
}

impl Zone {
    /// The unconstrained zone over `vars`; `is_int` reports which variables
    /// are integer-sorted.
    pub fn top(vars: Vec<String>, is_int: &dyn Fn(&str) -> bool) -> Zone {
        let mut ints = Vec::with_capacity(vars.len() + 1);
        ints.push(true);
        ints.extend(vars.iter().map(|v| is_int(v)));
        let d = vars.len() + 1;
        Zone {
            vars,
            ints,
            m: vec![None; d * d],
        }
    }

    /// The tracked variables (matrix indices `1..`).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    fn dim(&self) -> usize {
        self.vars.len() + 1
    }

    /// Matrix index of `name`, if tracked.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name).map(|k| k + 1)
    }

    /// The current bound on `xᵢ - xⱼ` (matrix indices).
    pub fn get(&self, i: usize, j: usize) -> Option<&Bound> {
        self.m[i * self.dim() + j].as_ref()
    }

    /// Integer-tighten an edge bound when both endpoints are integer-sorted
    /// (a strict or fractional bound on an integer difference rounds inward
    /// to a closed integer one).
    fn tighten(&self, i: usize, j: usize, b: Bound) -> Bound {
        if self.ints[i] && self.ints[j] {
            if let Some(t) = Interval::at_most(b.value.clone(), b.strict)
                .tighten_int()
                .hi
            {
                return t;
            }
        }
        b
    }

    /// Constrain `xᵢ - xⱼ ≤ bound` (matrix indices), meeting with any
    /// existing bound on the pair.
    pub fn constrain(&mut self, i: usize, j: usize, bound: Bound) {
        let bound = self.tighten(i, j, bound);
        let d = self.dim();
        let cell = &mut self.m[i * d + j];
        *cell = tighter_ub(cell.as_ref(), Some(&bound));
    }

    /// Constrain with the two halves of an [`Interval`] over `xᵢ - xⱼ`.
    pub fn constrain_interval(&mut self, i: usize, j: usize, iv: &Interval) {
        if let Some(hi) = &iv.hi {
            self.constrain(i, j, hi.clone());
        }
        if let Some(lo) = &iv.lo {
            self.constrain(
                j,
                i,
                Bound {
                    value: -lo.value.clone(),
                    strict: lo.strict,
                },
            );
        }
    }

    /// The interval `[lo, hi]` the closed matrix assigns to `xᵢ - xⱼ`.
    pub fn diff_interval(&self, i: usize, j: usize) -> Interval {
        Interval {
            lo: self.get(j, i).map(|b| Bound {
                value: -b.value.clone(),
                strict: b.strict,
            }),
            hi: self.get(i, j).cloned(),
        }
    }

    /// Shortest-path closure (Floyd–Warshall). Returns `false` when the
    /// system is inconsistent (a negative cycle reached the diagonal), in
    /// which case the matrix contents are meaningless.
    #[must_use]
    pub fn close(&mut self) -> bool {
        let d = self.dim();
        for k in 0..d {
            for i in 0..d {
                let Some(ik) = self.m[i * d + k].clone() else {
                    continue;
                };
                for j in 0..d {
                    let Some(kj) = &self.m[k * d + j] else {
                        continue;
                    };
                    let via = self.tighten(i, j, add_ub(&ik, kj));
                    let cell = &mut self.m[i * d + j];
                    *cell = tighter_ub(cell.as_ref(), Some(&via));
                }
            }
            if self.diagonal_negative() {
                return false;
            }
        }
        true
    }

    fn diagonal_negative(&self) -> bool {
        let d = self.dim();
        (0..d).any(|i| {
            self.m[i * d + i]
                .as_ref()
                .is_some_and(|b| b.value.is_negative() || (b.value.is_zero() && b.strict))
        })
    }

    /// Does the (closed) zone entail `xᵢ - xⱼ ≤ bound` (or `<` when
    /// `bound.strict`)?
    pub fn entails(&self, i: usize, j: usize, bound: &Bound) -> bool {
        entails_ub(self.get(i, j), Some(bound))
    }

    /// Project a **closed** zone onto the named variables: drop every row
    /// and column of an eliminated variable. On a closed matrix this is
    /// exact existential quantification over the retained constraints.
    #[must_use]
    pub fn project(&self, keep: &dyn Fn(&str) -> bool) -> Zone {
        let kept: Vec<usize> = (1..self.dim())
            .filter(|&i| keep(&self.vars[i - 1]))
            .collect();
        let mut out = Zone {
            vars: kept.iter().map(|&i| self.vars[i - 1].clone()).collect(),
            ints: std::iter::once(true)
                .chain(kept.iter().map(|&i| self.ints[i]))
                .collect(),
            m: vec![None; (kept.len() + 1) * (kept.len() + 1)],
        };
        let old: Vec<usize> = std::iter::once(0).chain(kept.iter().copied()).collect();
        let nd = out.dim();
        for (ni, &oi) in old.iter().enumerate() {
            for (nj, &oj) in old.iter().enumerate() {
                if ni != nj {
                    out.m[ni * nd + nj] = self.get(oi, oj).cloned();
                }
            }
        }
        out
    }

    /// The finite constraints of the matrix as `(i, j, bound)` triples
    /// (off-diagonal only).
    pub fn constraints(&self) -> Vec<(usize, usize, Bound)> {
        let d = self.dim();
        let mut out = Vec::new();
        for i in 0..d {
            for j in 0..d {
                if i != j {
                    if let Some(b) = &self.m[i * d + j] {
                        out.push((i, j, b.clone()));
                    }
                }
            }
        }
        out
    }

    /// Drop constraints entailed by the rest: greedily remove each finite
    /// entry whose closure-of-the-remainder still entails it. Quadratic in
    /// the constraint count times a closure each — fine for the handful of
    /// variables a predicate mentions.
    pub fn minimize(&mut self) {
        let cs = self.constraints();
        let d = self.dim();
        for (i, j, b) in cs {
            let cur = self.m[i * d + j].take();
            let mut rest = self.clone();
            if rest.close() && rest.entails(i, j, &b) {
                continue; // redundant: leave it removed
            }
            self.m[i * d + j] = cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_num::{BigInt, BigRat};

    fn r(n: i64) -> BigRat {
        BigRat::from_int(BigInt::from(n))
    }

    fn int_zone(names: &[&str]) -> Zone {
        Zone::top(names.iter().map(|s| s.to_string()).collect(), &|_| true)
    }

    #[test]
    fn closure_derives_transitive_bounds() {
        // a - b <= 3, b - c <= 4  ⊢  a - c <= 7.
        let mut z = int_zone(&["a", "b", "c"]);
        let (a, b, c) = (1, 2, 3);
        z.constrain(a, b, Bound::closed(r(3)));
        z.constrain(b, c, Bound::closed(r(4)));
        assert!(z.close());
        assert!(z.entails(a, c, &Bound::closed(r(7))));
        assert!(!z.entails(a, c, &Bound::closed(r(6))));
    }

    #[test]
    fn negative_cycle_is_inconsistent() {
        // a - b <= -1 and b - a <= 0 ⟹ a - a <= -1.
        let mut z = int_zone(&["a", "b"]);
        z.constrain(1, 2, Bound::closed(r(-1)));
        z.constrain(2, 1, Bound::closed(r(0)));
        assert!(!z.close());
    }

    #[test]
    fn strictness_propagates_and_integers_tighten() {
        // Over integers, a - b < 3 tightens to <= 2 immediately.
        let mut z = int_zone(&["a", "b"]);
        z.constrain(1, 2, Bound::strict(r(3)));
        assert_eq!(z.get(1, 2), Some(&Bound::closed(r(2))));

        // Over reals the strict bound survives and strictness ORs along
        // paths: a - b < 3, b - c <= 4 gives a - c < 7.
        let mut z = Zone::top(vec!["a".into(), "b".into(), "c".into()], &|_| false);
        z.constrain(1, 2, Bound::strict(r(3)));
        z.constrain(2, 3, Bound::closed(r(4)));
        assert!(z.close());
        assert_eq!(z.get(1, 3), Some(&Bound::strict(r(7))));
    }

    #[test]
    fn unary_bounds_via_zero_column() {
        // a <= 10, b >= 4  ⊢  a - b <= 6.
        let mut z = int_zone(&["a", "b"]);
        z.constrain(1, 0, Bound::closed(r(10)));
        z.constrain(0, 2, Bound::closed(r(-4)));
        assert!(z.close());
        assert!(z.entails(1, 2, &Bound::closed(r(6))));
    }

    #[test]
    fn projection_is_exact_on_closed_zones() {
        // a - o <= 5, o <= 100 ⟹ projecting out o keeps a <= 105 and
        // forgets everything mentioning o.
        let mut z = int_zone(&["a", "o"]);
        z.constrain(1, 2, Bound::closed(r(5)));
        z.constrain(2, 0, Bound::closed(r(100)));
        assert!(z.close());
        let p = z.project(&|v| v == "a");
        assert_eq!(p.vars(), ["a".to_string()]);
        assert!(p.entails(1, 0, &Bound::closed(r(105))));
        assert!(!p.entails(1, 0, &Bound::closed(r(104))));
    }

    #[test]
    fn minimize_drops_transitive_redundancy() {
        let mut z = int_zone(&["a", "b", "c"]);
        z.constrain(1, 2, Bound::closed(r(3)));
        z.constrain(2, 3, Bound::closed(r(4)));
        assert!(z.close());
        // Closure materialized a - c <= 7; minimize must drop it again (and
        // the unary-free matrix keeps exactly the two generators).
        z.minimize();
        let cs = z.constraints();
        assert_eq!(cs.len(), 2);
        assert!(z.get(1, 3).is_none());
    }

    #[test]
    fn minimize_keeps_equality_cycles() {
        // a - b <= 0 and b - a <= 0 entail each other only jointly; the
        // greedy pass must not drop both.
        let mut z = int_zone(&["a", "b"]);
        z.constrain(1, 2, Bound::closed(r(0)));
        z.constrain(2, 1, Bound::closed(r(0)));
        assert!(z.close());
        z.minimize();
        assert_eq!(z.constraints().len(), 2);
    }
}
