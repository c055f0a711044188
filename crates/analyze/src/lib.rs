//! `sia-analyze`: abstract interpretation over the Sia predicate language.
//!
//! The synthesizer's inner loop burns most of its time in SMT calls, yet
//! many of those queries — infeasible conjunctions, syntactic implications,
//! interval-closed bounds — are decidable by much cheaper static reasoning.
//! This crate provides a sound, zero-dependency static analyzer over the
//! [`sia_expr::Pred`] AST built from three cooperating abstract domains:
//!
//! * **Intervals** over exact rationals ([`Interval`]), with integer
//!   tightening for integer-sorted variables;
//! * **Zones** (difference-bound matrices, [`Zone`]): relational facts of
//!   the form `x - y ≤ c`, closed under shortest paths and reduced against
//!   the interval state, giving transitive entailments (`a - b ≤ 3 ∧
//!   b - c ≤ 4 ⊢ a - c ≤ 7`) and exact projection ([`Analyzer::derive`]);
//! * **Congruence** facts in the style of the solver's divisibility atoms:
//!   after canonicalizing a linear atom to coprime integer coefficients
//!   ([`CanonAtom`]), the only residual divisibility question is whether the
//!   bound is an integer — which decides equalities and disequalities
//!   against fractional constants outright;
//! * **3VL null-ability**: which columns may be NULL, and therefore whether
//!   a comparison can evaluate to NULL rather than TRUE/FALSE.
//!
//! On top of the domains sits an implication/contradiction oracle
//! ([`Analyzer::implies`], [`Analyzer::statically_unsat`]) used by
//! `sia-core` to skip SMT validity and feasibility calls, and a linter
//! ([`Analyzer::lint`]) surfaced through the `sia lint` CLI subcommand and
//! the serve protocol's `warnings` field.
//!
//! # Soundness contract
//!
//! [`Analyzer::tri`] over-approximates the set of three-valued outcomes a
//! predicate can take: if any tuple makes the predicate TRUE, the returned
//! [`Tri`] has `can_true` set (and likewise for FALSE/NULL). All verdicts
//! derived from it (`statically_unsat`, `implies`, …) err on the side of
//! "don't know" — they may miss a fact, never invent one. The analyzer
//! follows the *solver's* semantics (exact rational arithmetic, composite
//! non-linear terms folded to opaque integer variables), since its verdicts
//! gate SMT calls; under the workspace `checked` feature, `sia-core`
//! cross-checks every verdict against the solver.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use sia_expr::linear::is_quotient_term;
use sia_expr::{CmpOp, DataType, Expr, Pred, Schema};

mod atom;
mod closure;
mod interval;
mod lint;
mod project;
mod state;
mod tri;
mod zone;

pub use atom::{CanonAtom, FormKey};
pub use closure::{Closure, ColumnClasses};
pub use interval::{Bound, Interval};
pub use lint::Warning;
pub use project::Derivation;
pub use tri::Tri;
pub use zone::Zone;

use state::State;

/// The static analyzer: abstract interpretation configured with column
/// type/null-ability facts.
///
/// By default every column is assumed `INTEGER NOT NULL`, matching the
/// solver encoder's default; [`Analyzer::with_schema`] imports a schema's
/// `DOUBLE`/`DATE`/nullable declarations.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    /// Columns that may be NULL.
    pub(crate) nullable: BTreeSet<String>,
    /// Columns ranging over the reals (no integer tightening).
    pub(crate) real: BTreeSet<String>,
    /// Date-typed columns (integer-valued epoch days; used by the linter).
    pub(crate) date: BTreeSet<String>,
}

impl Analyzer {
    /// An analyzer with the default assumptions: all columns integer-sorted
    /// and non-nullable.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Mark columns as possibly NULL.
    #[must_use]
    pub fn with_nullable(mut self, cols: impl IntoIterator<Item = impl Into<String>>) -> Analyzer {
        self.nullable.extend(cols.into_iter().map(Into::into));
        self
    }

    /// Mark columns as real-valued (`DOUBLE`): interval bounds on them are
    /// not tightened to integers.
    #[must_use]
    pub fn with_real(mut self, cols: impl IntoIterator<Item = impl Into<String>>) -> Analyzer {
        self.real.extend(cols.into_iter().map(Into::into));
        self
    }

    /// Whether a variable ranges over the reals: a `DOUBLE` column, or an
    /// opaque quotient `(e / k)`, which may divide a `DOUBLE` and so is
    /// never tightened to an integer.
    pub fn is_real(&self, var: &str) -> bool {
        self.real.contains(var) || is_quotient_term(var)
    }

    /// Whether a column may be NULL.
    pub fn is_nullable(&self, col: &str) -> bool {
        self.nullable.contains(col)
    }

    /// Mark columns as `DATE`-typed (used by the linter's type checks).
    #[must_use]
    pub fn with_date(mut self, cols: impl IntoIterator<Item = impl Into<String>>) -> Analyzer {
        self.date.extend(cols.into_iter().map(Into::into));
        self
    }

    /// Import a schema's column facts: `DOUBLE` columns become real-valued,
    /// `DATE` columns are noted for the linter, and nullable columns are
    /// marked as such.
    #[must_use]
    pub fn with_schema(mut self, schema: &Schema) -> Analyzer {
        for c in schema.columns() {
            match c.ty {
                DataType::Double => {
                    self.real.insert(c.name.clone());
                }
                DataType::Date => {
                    self.date.insert(c.name.clone());
                }
                _ => {}
            }
            if c.nullable {
                self.nullable.insert(c.name.clone());
            }
        }
        self
    }

    /// An analyzer seeded with the column facts of every schema in
    /// `schemas` (see [`Analyzer::with_schema`]); columns of no schema keep
    /// the `INTEGER NOT NULL` default.
    pub fn with_schemas(schemas: impl IntoIterator<Item = impl Borrow<Schema>>) -> Analyzer {
        let mut analyzer = Analyzer::new();
        for schema in schemas {
            analyzer = analyzer.with_schema(schema.borrow());
        }
        analyzer
    }

    /// The set of three-valued outcomes `p` can take over any tuple
    /// (a sound over-approximation; see the crate docs).
    pub fn tri(&self, p: &Pred) -> Tri {
        self.tri_pred(&p.nnf(), &State::top())
    }

    /// `p` can never evaluate TRUE: no tuple passes a filter using it.
    /// (It may still evaluate NULL — this is the WHERE-clause notion of
    /// emptiness, not `p ≡ FALSE`.)
    pub fn statically_unsat(&self, p: &Pred) -> bool {
        self.tri(p).never_true()
    }

    /// `p` evaluates TRUE on every tuple.
    pub fn statically_true(&self, p: &Pred) -> bool {
        self.tri(p).certainly_true()
    }

    /// Sound implication check: whenever `p` evaluates TRUE, so does `q`
    /// (the validity the synthesizer's verifier asks the solver about).
    /// `false` means "could not prove it", not "does not hold".
    pub fn implies(&self, p: &Pred, q: &Pred) -> bool {
        let q = Conjunct::new(self, &q.nnf());
        let pn = p.nnf();
        let disjuncts: Vec<&Pred> = match &pn {
            Pred::Or(ps) => ps.iter().collect(),
            other => vec![other],
        };
        disjuncts
            .into_iter()
            .all(|d| self.entails(&self.conjuncts_of(d), &q))
    }

    /// The top-level conjuncts of `pn` (in NNF), each prepared once.
    pub(crate) fn conjuncts_of(&self, pn: &Pred) -> Vec<Conjunct> {
        let conjuncts = pn.conjuncts().into_iter();
        conjuncts.map(|q| Conjunct::new(self, q)).collect()
    }

    /// With every conjunct of `assumed` TRUE, is `q` certainly TRUE?
    pub(crate) fn entails<'a>(
        &self,
        assumed: impl IntoIterator<Item = &'a Conjunct>,
        q: &Conjunct,
    ) -> bool {
        let mut st = State::top();
        for c in assumed {
            self.assume_conjunct(c, &mut st);
        }
        st.propagate(&|n| !self.is_real(n));
        st.bottom || self.tri_conjunct(q, &st).certainly_true()
    }

    /// Drop top-level disjuncts that can never evaluate TRUE, returning the
    /// pruned predicate and how many disjuncts were removed.
    ///
    /// A dropped disjunct may still evaluate NULL, so this preserves only
    /// *truth* (`IS TRUE`), not full 3VL equivalence — exactly what
    /// WHERE-clause and sample-generation contexts need.
    pub fn prune_never_true_disjuncts(&self, p: &Pred) -> (Pred, usize) {
        match p {
            Pred::Or(ps) => {
                let mut pruned = 0usize;
                let kept: Vec<Pred> = ps
                    .iter()
                    .filter(|d| {
                        let dead = self.tri(d).never_true();
                        if dead {
                            pruned += 1;
                        }
                        !dead
                    })
                    .cloned()
                    .collect();
                (Pred::or_all(kept), pruned)
            }
            _ if self.tri(p).never_true() => (Pred::false_(), 1),
            _ => (p.clone(), 0),
        }
    }

    pub(crate) fn canon(&self, op: CmpOp, lhs: &Expr, rhs: &Expr) -> Option<CanonAtom> {
        CanonAtom::from_cmp(op, lhs, rhs, &|n| self.is_real(n))
    }

    /// Abstract three-valued evaluation of an NNF predicate under `st`.
    fn tri_pred(&self, p: &Pred, st: &State) -> Tri {
        match p {
            Pred::Lit(true) => Tri::true_(),
            Pred::Lit(false) => Tri::false_(),
            Pred::Cmp { .. } => self.tri_conjunct(&Conjunct::new(self, p), st),
            Pred::And(ps) => {
                let conjuncts: Vec<Conjunct> = ps.iter().map(|q| Conjunct::new(self, q)).collect();
                self.tri_conjunction(&conjuncts, st)
            }
            Pred::Or(ps) => ps
                .iter()
                .fold(Tri::false_(), |acc, q| acc.or(self.tri_pred(q, st))),
            Pred::Not(q) => self.tri_pred(q, st).not(),
        }
    }

    /// Abstract evaluation of the conjunction of `conjuncts` under `st`:
    /// the pointwise fold, refined by asking whether one tuple can make
    /// them all TRUE. Each comparison's canonical form serves the fold,
    /// the assumption and the refinement.
    pub(crate) fn tri_conjunction(&self, conjuncts: &[Conjunct], st: &State) -> Tri {
        let folded = conjuncts
            .iter()
            .fold(Tri::true_(), |acc, c| acc.and(self.tri_conjunct(c, st)));
        if !folded.can_true {
            return folded;
        }
        // Refinement pass: can one tuple make *all* conjuncts TRUE?
        let mut rst = st.clone();
        for c in conjuncts {
            self.assume_conjunct(c, &mut rst);
        }
        rst.propagate(&|n| !self.is_real(n));
        let joint = !rst.bottom
            && conjuncts
                .iter()
                .all(|c| self.tri_conjunct(c, &rst).can_true);
        if joint || (!folded.can_false && !folded.can_null) {
            // Keep the result set non-empty: if the pointwise fold
            // says {TRUE} only, the refinement cannot soundly have
            // refuted it (γ(st) would be empty), so trust the fold.
            folded
        } else {
            Tri {
                can_true: false,
                ..folded
            }
        }
    }

    pub(crate) fn tri_conjunct(&self, c: &Conjunct, st: &State) -> Tri {
        let (cols, atom) = match c {
            Conjunct::Cmp { cols, atom } => (cols, atom),
            Conjunct::Other(p) => return self.tri_pred(p, st),
        };
        let can_null = cols.iter().any(|c| !st.is_nonnull(c, &self.nullable));
        match atom {
            None => Tri {
                can_true: true,
                can_false: true,
                can_null,
            },
            Some(atom) => {
                let (can_true, can_false) = st.can_sat(atom);
                if !can_true && !can_false && !can_null {
                    // The state admits no value for this form at all; its
                    // concretization is empty and any answer is sound.
                    return Tri::any();
                }
                Tri {
                    can_true,
                    can_false,
                    can_null,
                }
            }
        }
    }

    /// Assume `p` (in NNF) evaluates TRUE, strengthening `st` in place.
    fn assume_pred(&self, p: &Pred, st: &mut State) {
        match p {
            Pred::Lit(true) => {}
            Pred::Lit(false) => st.bottom = true,
            Pred::And(ps) => {
                for q in ps {
                    self.assume_pred(q, st);
                }
            }
            Pred::Cmp { .. } => self.assume_conjunct(&Conjunct::new(self, p), st),
            // A TRUE disjunction or (post-NNF unreachable) negation pins
            // down no single branch; skipping the refinement is sound.
            Pred::Or(_) | Pred::Not(_) => {}
        }
    }

    fn assume_conjunct(&self, c: &Conjunct, st: &mut State) {
        match c {
            Conjunct::Cmp { cols, atom } => {
                st.note_nonnull(cols.iter().cloned());
                if let Some(atom) = atom {
                    st.assume(atom, &|n| !self.is_real(n));
                }
            }
            Conjunct::Other(p) => self.assume_pred(p, st),
        }
    }
}

/// One conjunct of an NNF predicate, prepared for repeated abstract
/// evaluation: a comparison is reduced, once, to its columns and its
/// canonical form (`None` when it does not linearize) — all that
/// evaluating, assuming or loading it into a zone reads.
#[derive(Debug, Clone)]
pub(crate) enum Conjunct {
    /// A comparison.
    Cmp {
        cols: BTreeSet<String>,
        atom: Option<CanonAtom>,
    },
    /// A literal, disjunction or negation, evaluated structurally.
    Other(Pred),
}

impl Conjunct {
    pub(crate) fn new(an: &Analyzer, p: &Pred) -> Conjunct {
        let Pred::Cmp { op, lhs, rhs } = p else {
            return Conjunct::Other(p.clone());
        };
        let mut cols = BTreeSet::new();
        lhs.collect_columns(&mut cols);
        rhs.collect_columns(&mut cols);
        Conjunct::Cmp {
            cols,
            atom: an.canon(*op, lhs, rhs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{col, lit};

    fn cmp(op: CmpOp, l: Expr, r: Expr) -> Pred {
        l.cmp(op, r)
    }

    #[test]
    fn contradiction_and_tautology() {
        let a = Analyzer::new();
        let p = cmp(CmpOp::Lt, col("x"), lit(1)).and(cmp(CmpOp::Gt, col("x"), lit(2)));
        assert!(a.statically_unsat(&p));
        assert!(!a.statically_true(&p));

        let t = cmp(CmpOp::Le, col("x"), lit(5)).or(cmp(CmpOp::Gt, col("x"), lit(4)));
        // x <= 5 OR x > 4 covers every integer; columns are NOT NULL by
        // default, but the pointwise OR cannot see the correlation, so the
        // analyzer soundly declines to call it a tautology.
        assert!(!a.statically_unsat(&t));

        let t2 = cmp(CmpOp::Ge, col("x"), lit(0)).or(cmp(CmpOp::Lt, col("x"), lit(0)));
        assert!(!a.statically_unsat(&t2));
    }

    #[test]
    fn nullability_blocks_certainty() {
        let p = cmp(CmpOp::Ne, col("x").mul(lit(2)), lit(5));
        // 2x <> 5 is always TRUE over non-null integers…
        assert!(Analyzer::new().statically_true(&p));
        // …but with x nullable the predicate can be NULL.
        let a = Analyzer::new().with_nullable(["x"]);
        assert!(!a.statically_true(&p));
        let t = a.tri(&p);
        assert!(t.can_true && !t.can_false && t.can_null);
    }

    #[test]
    fn implies_interval_and_propagation() {
        let a = Analyzer::new();
        // x >= 10 ⇒ x >= 5
        assert!(a.implies(
            &cmp(CmpOp::Ge, col("x"), lit(10)),
            &cmp(CmpOp::Ge, col("x"), lit(5)),
        ));
        // x >= 5 ⇏ x >= 10
        assert!(!a.implies(
            &cmp(CmpOp::Ge, col("x"), lit(5)),
            &cmp(CmpOp::Ge, col("x"), lit(10)),
        ));
        // b >= 11 AND a >= 2b ⇒ a >= 22
        let p =
            cmp(CmpOp::Ge, col("b"), lit(11)).and(cmp(CmpOp::Ge, col("a"), col("b").mul(lit(2))));
        assert!(a.implies(&p, &cmp(CmpOp::Ge, col("a"), lit(22))));
        assert!(!a.implies(&p, &cmp(CmpOp::Ge, col("a"), lit(23))));
    }

    #[test]
    fn implies_respects_nullability() {
        // x >= 10 ⇒ y >= 0 fails when y may be NULL even if y is bounded…
        let nullable = Analyzer::new().with_nullable(["y"]);
        let p = cmp(CmpOp::Ge, col("x"), lit(10));
        let q = cmp(CmpOp::Ge, col("y").mul(col("y")), lit(0));
        assert!(!nullable.implies(&p, &q));
        // …and mentioning y in p makes it non-null again.
        let p2 = p.and(cmp(CmpOp::Le, col("y"), lit(3)));
        let q2 = cmp(CmpOp::Le, col("y"), lit(4));
        assert!(nullable.implies(&p2, &q2));
    }

    #[test]
    fn implies_per_disjunct() {
        let a = Analyzer::new();
        // (x >= 10 OR x >= 20) ⇒ x >= 10
        let p = cmp(CmpOp::Ge, col("x"), lit(10)).or(cmp(CmpOp::Ge, col("x"), lit(20)));
        assert!(a.implies(&p, &cmp(CmpOp::Ge, col("x"), lit(10))));
        assert!(!a.implies(&p, &cmp(CmpOp::Ge, col("x"), lit(20))));
    }

    #[test]
    fn implies_through_difference_chain() {
        let a = Analyzer::new();
        // a - b <= 3 AND b - c <= 4 ⇒ a - c <= 7 needs the zone closure:
        // no single canonical form relates a and c.
        let p = cmp(CmpOp::Le, col("a").sub(col("b")), lit(3)).and(cmp(
            CmpOp::Le,
            col("b").sub(col("c")),
            lit(4),
        ));
        assert!(a.implies(&p, &cmp(CmpOp::Le, col("a").sub(col("c")), lit(7))));
        assert!(!a.implies(&p, &cmp(CmpOp::Le, col("a").sub(col("c")), lit(6))));
    }

    #[test]
    fn syntactic_form_match_entails() {
        let a = Analyzer::new();
        // a - b <= 3 ⇒ 2a - 2b <= 10 (same canonical form, looser bound).
        let p = cmp(CmpOp::Le, col("a").sub(col("b")), lit(3));
        let q = cmp(
            CmpOp::Le,
            col("a").mul(lit(2)).sub(col("b").mul(lit(2))),
            lit(10),
        );
        assert!(a.implies(&p, &q));
        assert!(!a.implies(&q, &p));
    }

    #[test]
    fn simplify_replaces_certain_subtrees() {
        let a = Analyzer::new();
        // (x < 1 AND x > 2) OR y >= 0: the first disjunct is certainly
        // FALSE (columns non-null by default), so it folds away.
        let dead = cmp(CmpOp::Lt, col("x"), lit(1)).and(cmp(CmpOp::Gt, col("x"), lit(2)));
        let live = cmp(CmpOp::Ge, col("y"), lit(0));
        let (pruned, n) = a.prune_never_true_disjuncts(&dead.or(live.clone()));
        assert_eq!(pruned, live);
        assert_eq!(n, 1);
    }

    #[test]
    fn real_columns_skip_integer_tightening() {
        // 0 < x < 1 is satisfiable for a DOUBLE column, empty for integers.
        let p = cmp(CmpOp::Gt, col("x"), lit(0)).and(cmp(CmpOp::Lt, col("x"), lit(1)));
        assert!(Analyzer::new().statically_unsat(&p));
        assert!(!Analyzer::new().with_real(["x"]).statically_unsat(&p));
    }

    #[test]
    fn tri_of_literals_and_unknown_atoms() {
        let a = Analyzer::new();
        assert!(a.tri(&Pred::true_()).certainly_true());
        assert_eq!(a.tri(&Pred::false_()), Tri::false_());
        // (a+1)*(b+1) < 3 does not linearize even with composite folding.
        let odd = cmp(
            CmpOp::Lt,
            col("a").add(lit(1)).mul(col("b").add(lit(1))),
            lit(3),
        );
        let t = a.tri(&odd);
        assert!(t.can_true && t.can_false && !t.can_null);
    }
}
