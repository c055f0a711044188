//! General simplex for linear real arithmetic, after Dutertre & de Moura,
//! *A Fast Linear-Arithmetic Solver for DPLL(T)* (CAV 2006).
//!
//! Variables carry optional lower/upper bounds (strict bounds encoded with
//! *delta-rationals* `r + k·δ` for an infinitesimal `δ > 0`). Linear
//! combinations are introduced as *slack variables* with a tableau row; the
//! DPLL(T) layer asserts atom literals as bounds on slack variables. `check`
//! restores the invariant that every basic variable is within bounds, or
//! returns a minimal conflict: the set of asserted bound tags that cannot
//! hold together.

use sia_num::BigRat;
use std::cmp::Ordering;
use std::fmt;

/// A delta-rational `r + k·δ` for an infinitesimal positive `δ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QDelta {
    /// Standard (real) part.
    pub r: BigRat,
    /// Coefficient of the infinitesimal.
    pub k: BigRat,
}

impl QDelta {
    /// A pure rational value.
    pub fn rational(r: BigRat) -> Self {
        QDelta {
            r,
            k: BigRat::zero(),
        }
    }

    /// `r + δ` (for strict lower bounds `x > r`).
    pub fn plus_delta(r: BigRat) -> Self {
        QDelta {
            r,
            k: BigRat::one(),
        }
    }

    /// `r - δ` (for strict upper bounds `x < r`).
    pub fn minus_delta(r: BigRat) -> Self {
        QDelta {
            r,
            k: -BigRat::one(),
        }
    }

    /// Zero.
    pub fn zero() -> Self {
        QDelta::rational(BigRat::zero())
    }

    fn add(&self, o: &QDelta) -> QDelta {
        QDelta {
            r: &self.r + &o.r,
            k: &self.k + &o.k,
        }
    }

    fn sub(&self, o: &QDelta) -> QDelta {
        QDelta {
            r: &self.r - &o.r,
            k: &self.k - &o.k,
        }
    }

    fn scale(&self, c: &BigRat) -> QDelta {
        QDelta {
            r: &self.r * c,
            k: &self.k * c,
        }
    }

    /// Materialize with a concrete value for δ.
    pub fn materialize(&self, delta: &BigRat) -> BigRat {
        &self.r + &(&self.k * delta)
    }
}

impl PartialOrd for QDelta {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QDelta {
    fn cmp(&self, other: &Self) -> Ordering {
        self.r.cmp(&other.r).then_with(|| self.k.cmp(&other.k))
    }
}

impl fmt::Display for QDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.k.is_zero() {
            write!(f, "{}", self.r)
        } else {
            write!(
                f,
                "{}{}{}δ",
                self.r,
                if self.k.is_negative() { "-" } else { "+" },
                self.k.abs()
            )
        }
    }
}

/// Tag identifying why a bound was asserted; flows into conflicts.
/// The DPLL(T) layer uses SAT literal codes; [`Expl::INTERNAL`] marks
/// bounds introduced by branch-and-bound (never part of a theory lemma).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Expl(pub u32);

impl Expl {
    /// Marker for solver-internal bounds (integer branching).
    pub const INTERNAL: Expl = Expl(u32::MAX);
}

/// An inconsistent set of asserted bounds.
#[derive(Debug, Clone)]
pub struct Conflict {
    /// Tags of every bound participating in the conflict.
    pub tags: Vec<Expl>,
    /// Farkas multipliers: for each participating bound (by tag), the
    /// strictly positive rational weight under which the bounds' `≤`-form
    /// inequalities sum to a constant contradiction. Meaningless when the
    /// conflict involves an [`Expl::INTERNAL`] bound.
    pub premises: Vec<(Expl, BigRat)>,
}

impl Conflict {
    /// True if the conflict involves a solver-internal (branching) bound,
    /// in which case it cannot be turned into a theory lemma directly.
    pub fn has_internal(&self) -> bool {
        self.tags.contains(&Expl::INTERNAL)
    }
}

#[derive(Debug, Clone)]
struct Bound {
    value: QDelta,
    expl: Expl,
}

#[derive(Debug)]
enum TrailEntry {
    Lower(usize, Option<Bound>),
    Upper(usize, Option<Bound>),
}

/// The simplex solver state.
#[derive(Debug, Default)]
pub struct Simplex {
    /// `rows[i]` is `Some` iff var `i` is basic: `x_i = Σ coeff·x_j` over
    /// nonbasic `x_j`.
    rows: Vec<Option<Vec<(usize, BigRat)>>>,
    beta: Vec<QDelta>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    trail: Vec<TrailEntry>,
    levels: Vec<usize>,
    /// Pivot count (statistics).
    pub pivots: u64,
    /// Bound assertions that actually narrowed a bound (statistics).
    pub tightenings: u64,
    /// The deadline, polled every few dozen pivots
    /// inside [`Simplex::check`]. Unlimited by default.
    pub budget: crate::Budget,
    /// Set when the last [`Simplex::check`] bailed out on an exhausted
    /// budget; its `Ok(())` then means "undecided", not "feasible".
    interrupted: bool,
}

impl Simplex {
    /// Fresh empty solver.
    pub fn new() -> Self {
        Simplex::default()
    }

    /// Declare a new variable (nonbasic, unbounded, value 0).
    pub fn new_var(&mut self) -> usize {
        let v = self.beta.len();
        self.rows.push(None);
        self.beta.push(QDelta::zero());
        self.lower.push(None);
        self.upper.push(None);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.beta.len()
    }

    /// Define variable `s` as the linear combination `Σ coeff·var`.
    /// `s` must be fresh (unbounded, never defined) and the combination
    /// must reference only previously-defined variables. Call before any
    /// bounds are asserted on `s`.
    pub fn define(&mut self, s: usize, combo: Vec<(usize, BigRat)>) {
        debug_assert!(self.rows[s].is_none());
        debug_assert!(self.lower[s].is_none() && self.upper[s].is_none());
        // Substitute any basic variables in the combination by their rows
        // so the row is over nonbasic variables only.
        let mut acc: Vec<(usize, BigRat)> = Vec::new();
        let add = |acc: &mut Vec<(usize, BigRat)>, v: usize, c: &BigRat| {
            if let Some(e) = acc.iter_mut().find(|(u, _)| *u == v) {
                e.1 = &e.1 + c;
            } else {
                acc.push((v, c.clone()));
            }
        };
        for (v, c) in combo {
            match &self.rows[v] {
                Some(row) => {
                    let row = row.clone();
                    for (u, cu) in row {
                        add(&mut acc, u, &(&cu * &c));
                    }
                }
                None => add(&mut acc, v, &c),
            }
        }
        acc.retain(|(_, c)| !c.is_zero());
        self.beta[s] = acc.iter().fold(QDelta::zero(), |sum, (v, c)| {
            sum.add(&self.beta[*v].scale(c))
        });
        self.rows[s] = Some(acc);
    }

    /// Begin a backtracking scope for bound assertions.
    pub fn push(&mut self) {
        self.levels.push(self.trail.len());
    }

    /// Undo all bound assertions since the matching [`Simplex::push`].
    pub fn pop(&mut self) {
        let lim = self.levels.pop().expect("pop without push");
        while self.trail.len() > lim {
            match self.trail.pop().unwrap() {
                TrailEntry::Lower(v, old) => self.lower[v] = old,
                TrailEntry::Upper(v, old) => self.upper[v] = old,
            }
        }
    }

    /// Assert `x ≤ bound`.
    pub fn assert_upper(&mut self, x: usize, bound: QDelta, expl: Expl) -> Result<(), Conflict> {
        if let Some(u) = &self.upper[x] {
            if u.value <= bound {
                return Ok(());
            }
        }
        if let Some(l) = &self.lower[x] {
            if bound < l.value {
                // x ≤ b and x ≥ l with b < l: weights 1 and 1.
                return Err(Conflict {
                    tags: vec![expl, l.expl],
                    premises: vec![(expl, BigRat::one()), (l.expl, BigRat::one())],
                });
            }
        }
        self.tightenings += 1;
        self.trail.push(TrailEntry::Upper(x, self.upper[x].clone()));
        self.upper[x] = Some(Bound {
            value: bound.clone(),
            expl,
        });
        if self.rows[x].is_none() && self.beta[x] > bound {
            self.update(x, bound);
        }
        Ok(())
    }

    /// Assert `x ≥ bound`.
    pub fn assert_lower(&mut self, x: usize, bound: QDelta, expl: Expl) -> Result<(), Conflict> {
        if let Some(l) = &self.lower[x] {
            if l.value >= bound {
                return Ok(());
            }
        }
        if let Some(u) = &self.upper[x] {
            if bound > u.value {
                return Err(Conflict {
                    tags: vec![expl, u.expl],
                    premises: vec![(expl, BigRat::one()), (u.expl, BigRat::one())],
                });
            }
        }
        self.tightenings += 1;
        self.trail.push(TrailEntry::Lower(x, self.lower[x].clone()));
        self.lower[x] = Some(Bound {
            value: bound.clone(),
            expl,
        });
        if self.rows[x].is_none() && self.beta[x] < bound {
            self.update(x, bound);
        }
        Ok(())
    }

    /// Set nonbasic `x` to `v`, adjusting every basic variable.
    fn update(&mut self, x: usize, v: QDelta) {
        let diff = v.sub(&self.beta[x]);
        for b in 0..self.rows.len() {
            if let Some(row) = &self.rows[b] {
                if let Some((_, c)) = row.iter().find(|(u, _)| *u == x) {
                    let delta = diff.scale(c);
                    self.beta[b] = self.beta[b].add(&delta);
                }
            }
        }
        self.beta[x] = v;
    }

    /// Pivot basic `xi` with nonbasic `xj` and set `xi`'s value to `v`.
    fn pivot_and_update(&mut self, xi: usize, xj: usize, v: QDelta) {
        self.pivots += 1;
        let row_i = self.rows[xi].take().expect("xi must be basic");
        let a_ij = row_i
            .iter()
            .find(|(u, _)| *u == xj)
            .expect("xj must appear in row of xi")
            .1
            .clone();
        // theta = (v - beta[xi]) / a_ij
        let theta = v.sub(&self.beta[xi]).scale(&a_ij.recip());
        self.beta[xi] = v;
        self.beta[xj] = self.beta[xj].add(&theta);
        // New row for xj: xj = (xi - Σ_{k≠j} a_k x_k) / a_ij
        let inv = a_ij.recip();
        let mut row_j: Vec<(usize, BigRat)> = vec![(xi, inv.clone())];
        for (u, c) in &row_i {
            if *u != xj {
                row_j.push((*u, -(c * &inv)));
            }
        }
        // Update the other basic rows' values and substitute xj.
        for b in 0..self.rows.len() {
            if b == xj {
                continue;
            }
            let Some(row) = self.rows[b].take() else {
                continue;
            };
            let coeff_j = row.iter().find(|(u, _)| *u == xj).map(|(_, c)| c.clone());
            match coeff_j {
                None => {
                    self.rows[b] = Some(row);
                }
                Some(a_kj) => {
                    let delta = theta.scale(&a_kj);
                    self.beta[b] = self.beta[b].add(&delta);
                    // row' = row - a_kj * xj + a_kj * row_j
                    let mut acc: Vec<(usize, BigRat)> =
                        row.into_iter().filter(|(u, _)| *u != xj).collect();
                    for (u, c) in &row_j {
                        let add = c * &a_kj;
                        if let Some(e) = acc.iter_mut().find(|(w, _)| w == u) {
                            e.1 = &e.1 + &add;
                        } else {
                            acc.push((*u, add));
                        }
                    }
                    acc.retain(|(_, c)| !c.is_zero());
                    self.rows[b] = Some(acc);
                }
            }
        }
        self.rows[xj] = Some(row_j);
    }

    /// True when the previous [`Simplex::check`] was cut short by an
    /// exhausted budget, in which case its `Ok(())` carries no feasibility
    /// verdict and the caller must treat the state as undecided.
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Restore feasibility. Uses Bland's rule (minimum variable index) so
    /// termination is guaranteed.
    ///
    /// Polls the [`Simplex::budget`] every 64 pivot rounds; on exhaustion
    /// it returns `Ok(())` with [`Simplex::interrupted`] set — callers
    /// consult that flag before trusting feasibility.
    pub fn check(&mut self) -> Result<(), Conflict> {
        self.interrupted = false;
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            // Failpoint + budget poll every 64 pivot rounds, including the
            // very first, so an injected stall (`smt.simplex.pivot=delay`)
            // or an already-expired deadline is caught on entry instead of
            // 63 pivots later.
            if rounds & 0x3F == 1 {
                sia_fault::fire("smt.simplex.pivot");
                if self.budget.is_exhausted() {
                    self.interrupted = true;
                    return Ok(());
                }
            }
            // Find the smallest basic variable violating a bound.
            let mut violated: Option<(usize, bool)> = None; // (var, below_lower)
            for xi in 0..self.rows.len() {
                if self.rows[xi].is_none() {
                    continue;
                }
                if let Some(l) = &self.lower[xi] {
                    if self.beta[xi] < l.value {
                        violated = Some((xi, true));
                        break;
                    }
                }
                if let Some(u) = &self.upper[xi] {
                    if self.beta[xi] > u.value {
                        violated = Some((xi, false));
                        break;
                    }
                }
            }
            let Some((xi, below)) = violated else {
                return Ok(());
            };
            let row = self.rows[xi].as_ref().unwrap().clone();
            let target = if below {
                self.lower[xi].as_ref().unwrap().value.clone()
            } else {
                self.upper[xi].as_ref().unwrap().value.clone()
            };
            // Find a nonbasic variable with slack (Bland: smallest index).
            let mut pivot: Option<usize> = None;
            let mut candidates: Vec<(usize, BigRat)> = row.clone();
            candidates.sort_by_key(|(u, _)| *u);
            for (xj, a) in &candidates {
                let can = if below == a.is_positive() {
                    // Need to increase xj·sign: increasing contribution,
                    // allowed if xj below its upper bound.
                    self.upper[*xj]
                        .as_ref()
                        .is_none_or(|u| self.beta[*xj] < u.value)
                } else {
                    self.lower[*xj]
                        .as_ref()
                        .is_none_or(|l| self.beta[*xj] > l.value)
                };
                if can {
                    pivot = Some(*xj);
                    break;
                }
            }
            match pivot {
                Some(xj) => self.pivot_and_update(xi, xj, target),
                None => {
                    // Conflict: xi's violated bound plus the binding bound
                    // of every nonbasic variable in its row. The Farkas
                    // weights come straight from the row identity
                    // xi = Σ a·xj: weight 1 on the violated bound, |a| on
                    // each blocking bound, so the ≤-form inequalities sum
                    // to a constant contradiction.
                    let mut tags = Vec::with_capacity(row.len() + 1);
                    let mut premises: Vec<(Expl, BigRat)> = Vec::with_capacity(row.len() + 1);
                    let violated_expl = if below {
                        self.lower[xi].as_ref().unwrap().expl
                    } else {
                        self.upper[xi].as_ref().unwrap().expl
                    };
                    tags.push(violated_expl);
                    premises.push((violated_expl, BigRat::one()));
                    for (xj, a) in &row {
                        let bound = if below == a.is_positive() {
                            self.upper[*xj].as_ref()
                        } else {
                            self.lower[*xj].as_ref()
                        };
                        let expl = bound.expect("blocked var must be bounded").expl;
                        tags.push(expl);
                        if let Some(e) = premises.iter_mut().find(|(t, _)| *t == expl) {
                            e.1 = &e.1 + &a.abs();
                        } else {
                            premises.push((expl, a.abs()));
                        }
                    }
                    tags.sort_by_key(|e| e.0);
                    tags.dedup();
                    return Err(Conflict { tags, premises });
                }
            }
        }
    }

    /// Current value of a variable (valid after a successful `check`).
    pub fn value(&self, x: usize) -> &QDelta {
        &self.beta[x]
    }

    /// Choose a concrete positive rational for δ that keeps every bound
    /// satisfied when substituted into the current assignment.
    pub fn concrete_delta(&self) -> BigRat {
        let mut best: Option<BigRat> = None;
        let mut consider = |val: &QDelta, bound: &QDelta, val_above: bool| {
            // Need (val - bound) ≥ 0 (or ≤ 0) after materialization.
            let dr = if val_above {
                &val.r - &bound.r
            } else {
                &bound.r - &val.r
            };
            let dk = if val_above {
                &val.k - &bound.k
            } else {
                &bound.k - &val.k
            };
            // dr + dk·δ ≥ 0 must hold; dr ≥ 0 by QDelta order. If dk < 0,
            // require δ ≤ dr / (-dk).
            if dk.is_negative() && dr.is_positive() {
                let lim = &dr / &(-dk);
                if best.as_ref().is_none_or(|b| lim < *b) {
                    best = Some(lim);
                }
            }
        };
        for x in 0..self.beta.len() {
            if let Some(l) = &self.lower[x] {
                consider(&self.beta[x], &l.value, true);
            }
            if let Some(u) = &self.upper[x] {
                consider(&self.beta[x], &u.value, false);
            }
        }
        let one = BigRat::one();
        match best {
            None => one,
            Some(lim) => {
                let half = &lim / &BigRat::from(2);
                if half < one {
                    half
                } else {
                    one
                }
            }
        }
    }

    /// Current lower bound of a variable.
    pub fn lower_bound(&self, x: usize) -> Option<&QDelta> {
        self.lower[x].as_ref().map(|b| &b.value)
    }

    /// Current upper bound of a variable.
    pub fn upper_bound(&self, x: usize) -> Option<&QDelta> {
        self.upper[x].as_ref().map(|b| &b.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64) -> BigRat {
        BigRat::from(n)
    }

    fn qd(n: i64) -> QDelta {
        QDelta::rational(q(n))
    }

    #[test]
    fn qdelta_ordering() {
        assert!(QDelta::minus_delta(q(5)) < qd(5));
        assert!(qd(5) < QDelta::plus_delta(q(5)));
        assert!(QDelta::plus_delta(q(4)) < QDelta::minus_delta(q(5)));
        assert_eq!(qd(3).materialize(&q(1)), q(3));
        assert_eq!(
            QDelta::plus_delta(q(3)).materialize(&BigRat::new(1.into(), 2.into())),
            BigRat::new(7.into(), 2.into())
        );
    }

    #[test]
    fn feasible_box() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        s.assert_lower(x, qd(1), Expl(0)).unwrap();
        s.assert_upper(x, qd(5), Expl(1)).unwrap();
        s.assert_lower(y, qd(-2), Expl(2)).unwrap();
        s.assert_upper(y, qd(0), Expl(3)).unwrap();
        assert!(s.check().is_ok());
        assert!(*s.value(x) >= qd(1) && *s.value(x) <= qd(5));
        assert!(*s.value(y) >= qd(-2) && *s.value(y) <= qd(0));
    }

    #[test]
    fn direct_bound_conflict() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, qd(3), Expl(7)).unwrap();
        let e = s.assert_upper(x, qd(2), Expl(9)).unwrap_err();
        assert_eq!(e.tags.len(), 2);
        assert!(e.tags.contains(&Expl(7)) && e.tags.contains(&Expl(9)));
    }

    #[test]
    fn sum_constraint_feasible() {
        // s = x + y, x ≥ 3, y ≥ 4, s ≤ 10
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sv = s.new_var();
        s.define(sv, vec![(x, q(1)), (y, q(1))]);
        s.assert_lower(x, qd(3), Expl(0)).unwrap();
        s.assert_lower(y, qd(4), Expl(1)).unwrap();
        s.assert_upper(sv, qd(10), Expl(2)).unwrap();
        assert!(s.check().is_ok());
        let vx = s.value(x).clone();
        let vy = s.value(y).clone();
        let vs = s.value(sv).clone();
        assert_eq!(vs, vx.add(&vy));
        assert!(vx >= qd(3) && vy >= qd(4) && vs <= qd(10));
    }

    #[test]
    fn sum_constraint_conflict() {
        // s = x + y, x ≥ 6, y ≥ 5, s ≤ 10: conflict must cite all three.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sv = s.new_var();
        s.define(sv, vec![(x, q(1)), (y, q(1))]);
        s.assert_lower(x, qd(6), Expl(0)).unwrap();
        s.assert_lower(y, qd(5), Expl(1)).unwrap();
        s.assert_upper(sv, qd(10), Expl(2)).unwrap();
        let e = s.check().unwrap_err();
        let mut tags: Vec<u32> = e.tags.iter().map(|t| t.0).collect();
        tags.sort();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    fn strict_bounds_via_delta() {
        // x + y < 2 and x > 1 and y > 1 is infeasible over the reals.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sv = s.new_var();
        s.define(sv, vec![(x, q(1)), (y, q(1))]);
        s.assert_lower(x, QDelta::plus_delta(q(1)), Expl(0))
            .unwrap();
        s.assert_lower(y, QDelta::plus_delta(q(1)), Expl(1))
            .unwrap();
        s.assert_upper(sv, QDelta::minus_delta(q(2)), Expl(2))
            .unwrap();
        assert!(s.check().is_err());
    }

    #[test]
    fn strict_bounds_feasible_and_materialized() {
        // x > 0 and x < 1: feasible; materialized value strictly inside.
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, QDelta::plus_delta(q(0)), Expl(0))
            .unwrap();
        s.assert_upper(x, QDelta::minus_delta(q(1)), Expl(1))
            .unwrap();
        assert!(s.check().is_ok());
        let d = s.concrete_delta();
        let v = s.value(x).materialize(&d);
        assert!(v > q(0) && v < q(1), "got {v}");
    }

    #[test]
    fn push_pop_restores_bounds() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, qd(0), Expl(0)).unwrap();
        s.push();
        s.assert_lower(x, qd(10), Expl(1)).unwrap();
        assert_eq!(s.lower_bound(x), Some(&qd(10)));
        s.pop();
        assert_eq!(s.lower_bound(x), Some(&qd(0)));
        // And a conflict introduced inside a scope disappears after pop.
        s.push();
        s.assert_upper(x, qd(5), Expl(2)).unwrap();
        assert!(s.check().is_ok());
        s.pop();
        assert_eq!(s.upper_bound(x), None);
    }

    #[test]
    fn chained_definitions() {
        // u = x - y; w = u + y (must substitute u's row) == x.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let u = s.new_var();
        s.define(u, vec![(x, q(1)), (y, q(-1))]);
        let w = s.new_var();
        s.define(w, vec![(u, q(1)), (y, q(1))]);
        s.assert_lower(x, qd(7), Expl(0)).unwrap();
        s.assert_upper(w, qd(3), Expl(1)).unwrap();
        // w == x, so x ≥ 7 and w ≤ 3 conflict.
        let e = s.check().unwrap_err();
        assert!(e.tags.len() >= 2);
    }

    #[test]
    fn many_pivots_feasible() {
        // A chain s_i = x_i + x_{i+1} with alternating bounds; feasible.
        let mut s = Simplex::new();
        let xs: Vec<usize> = (0..10).map(|_| s.new_var()).collect();
        let mut tag = 0u32;
        for i in 0..9 {
            let sv = s.new_var();
            s.define(sv, vec![(xs[i], q(1)), (xs[i + 1], q(1))]);
            s.assert_lower(sv, qd(1), Expl(tag)).unwrap();
            tag += 1;
            s.assert_upper(sv, qd(3), Expl(tag)).unwrap();
            tag += 1;
        }
        assert!(s.check().is_ok());
        for i in 0..9 {
            let sum = s.value(xs[i]).add(s.value(xs[i + 1]));
            assert!(sum >= qd(1) && sum <= qd(3));
        }
    }
}
