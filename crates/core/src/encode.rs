//! Encoding SQL predicates as SMT formulas (§5.2).
//!
//! Three concerns from the paper are handled here:
//!
//! * **Type conversion** — `DATE`/`TIMESTAMP` literals were already lowered
//!   to integer day/second offsets by `sia-expr`; columns are declared with
//!   `Int` sort for integral types and `Real` for `DOUBLE`.
//! * **Three-valued logic** — for verification, each nullable column is a
//!   pair of solver variables *(value, isnull)* following the encoding of
//!   Zhou et al. (PVLDB 2019, reference 49 of the paper); a comparison is TRUE only
//!   when every referenced column is non-NULL and the arithmetic atom
//!   holds. Sample generation uses the plain two-valued encoding, because
//!   samples are non-NULL by construction.
//! * **Non-linear arithmetic** — a product/quotient of two columns is
//!   folded into one opaque *composite column* provided its constituents
//!   do not occur elsewhere in the predicate (the paper's side condition);
//!   otherwise encoding fails. A quotient by a constant truncates, so it
//!   too is one opaque term (real-sorted: it may divide a `DOUBLE`), with
//!   no side condition: proofs say nothing about `e` through `e / k`.

use sia_analyze::Analyzer;
use sia_expr::linear::{is_quotient_term, linearize};
use sia_expr::CmpOp;
use sia_expr::{LinAtom, NonLinearPolicy, Pred};
use sia_smt::{Formula, LinTerm, Solver, Sort, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// Why a predicate could not be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Non-linear arithmetic outside the composite-column escape hatch.
    NonLinear(String),
    /// A composite column's constituents also occur on their own.
    CompositeOverlap(String),
    /// A column has a type Sia does not support (e.g. TEXT).
    UnsupportedType(String),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::NonLinear(e) => write!(f, "non-linear predicate: {e}"),
            EncodeError::CompositeOverlap(c) => write!(
                f,
                "columns of composite {c:?} also occur elsewhere in the predicate"
            ),
            EncodeError::UnsupportedType(c) => write!(f, "unsupported column type for {c:?}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Maps predicate columns to solver variables and encodes predicates.
///
/// One `PredEncoder` owns one [`Solver`]; every formula built through it
/// shares the variable space, so results of different encodings can be
/// conjoined freely (which is how `NotOld`, validity, and optimality
/// queries are assembled).
#[derive(Debug, Default)]
pub struct PredEncoder {
    solver: Solver,
    value_vars: BTreeMap<String, VarId>,
    null_vars: BTreeMap<String, VarId>,
    /// The column facts — sorts and null-ability — shared with the static
    /// tier. Every column defaults to `INTEGER NOT NULL`: the paper's
    /// benchmark columns are, and non-nullable verification is strictly
    /// stronger for them.
    columns: Analyzer,
}

impl PredEncoder {
    /// Encoder where every column defaults to `INTEGER` and `NOT NULL`.
    pub fn new() -> Self {
        PredEncoder::default()
    }

    /// Take column sorts and null-ability from `columns`: its real-valued
    /// columns get `Real` variables, and its nullable ones *(value, isnull)*
    /// pairs and the three-valued encoding in
    /// [`PredEncoder::encode_is_true_3v`].
    pub fn with_columns(mut self, columns: Analyzer) -> Self {
        self.columns = columns;
        self
    }

    /// Access the underlying solver (to run checks on encoded formulas).
    pub fn solver(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// The solver variable carrying a column's value.
    pub fn value_var(&mut self, col: &str) -> VarId {
        if let Some(&v) = self.value_vars.get(col) {
            return v;
        }
        // A quotient `(e / k)` may divide a DOUBLE: it is real-sorted too.
        let sort = if self.columns.is_real(col) {
            Sort::Real
        } else {
            Sort::Int
        };
        let v = self.solver.declare(col.to_string(), sort);
        self.value_vars.insert(col.to_string(), v);
        v
    }

    /// The boolean "is NULL" variable of a nullable column.
    pub fn null_var(&mut self, col: &str) -> VarId {
        if let Some(&v) = self.null_vars.get(col) {
            return v;
        }
        let v = self.solver.declare(format!("{col}.isnull"), Sort::Bool);
        self.null_vars.insert(col.to_string(), v);
        v
    }

    /// Columns declared so far, with their value variables.
    pub fn columns(&self) -> impl Iterator<Item = (&str, VarId)> {
        self.value_vars.iter().map(|(c, v)| (c.as_str(), *v))
    }

    /// The static analyzer over this encoder's column facts, so both tiers
    /// see the same sorts (real-valued columns and quotients `(e / k)`
    /// real, everything else — composite columns included — integer) and
    /// the same null-ability.
    pub(crate) fn analyzer(&self) -> &Analyzer {
        &self.columns
    }

    fn check_composites(&self, p: &Pred) -> Result<(), EncodeError> {
        // Collect "usage units" per atom side: composite names and plain
        // column names as they appear after linearization.
        let mut plain: BTreeSet<String> = BTreeSet::new();
        let mut composite: BTreeSet<String> = BTreeSet::new();
        fn walk(
            p: &Pred,
            plain: &mut BTreeSet<String>,
            composite: &mut BTreeSet<String>,
        ) -> Result<(), EncodeError> {
            match p {
                Pred::Cmp { lhs, rhs, .. } => {
                    for side in [lhs, rhs] {
                        let lin = linearize(side, NonLinearPolicy::FoldComposite)
                            .map_err(|e| EncodeError::NonLinear(e.0))?;
                        // A quotient `(e / k)` only relaxes, whatever else
                        // mentions `e`: only `col OP col` is a composite.
                        for c in lin.columns().into_iter().filter(|c| !is_quotient_term(c)) {
                            if c.contains('*') || c.contains('/') {
                                composite.insert(c);
                            } else {
                                plain.insert(c);
                            }
                        }
                    }
                    Ok(())
                }
                Pred::And(ps) | Pred::Or(ps) => {
                    ps.iter().try_for_each(|q| walk(q, plain, composite))
                }
                Pred::Not(q) => walk(q, plain, composite),
                Pred::Lit(_) => Ok(()),
            }
        }
        walk(p, &mut plain, &mut composite)?;
        for c in &composite {
            let (a, b) = c
                .split_once(['*', '/'])
                .expect("composite name contains operator");
            if plain.contains(a) || plain.contains(b) {
                return Err(EncodeError::CompositeOverlap(c.clone()));
            }
        }
        Ok(())
    }

    fn atom_term(&mut self, atom: &LinAtom) -> LinTerm {
        let mut t = LinTerm::constant(atom.expr.constant_term().clone());
        for (col, k) in atom.expr.terms() {
            let v = self.value_var(col);
            t = t.add(&LinTerm::var(v).scale(k));
        }
        t
    }

    fn cmp_formula(&mut self, op: CmpOp, atom: &LinAtom) -> Formula {
        // atom.expr ⋈ 0
        let t = self.atom_term(atom);
        match op {
            CmpOp::Lt => Formula::lt0(t),
            CmpOp::Le => Formula::le0(t),
            CmpOp::Gt => Formula::lt0(t.negated()),
            CmpOp::Ge => Formula::le0(t.negated()),
            CmpOp::Eq => Formula::eq0(t),
            CmpOp::Ne => Formula::ne0(t),
        }
    }

    /// Two-valued encoding: the formula is satisfied exactly by the
    /// non-NULL tuples the predicate accepts. Used for sample generation
    /// and quantifier elimination (§5.3), where tuples are concrete and
    /// NULL-free by construction.
    pub fn encode(&mut self, p: &Pred) -> Result<Formula, EncodeError> {
        self.check_composites(p)?;
        self.encode_unchecked(p)
    }

    fn encode_unchecked(&mut self, p: &Pred) -> Result<Formula, EncodeError> {
        match p {
            Pred::Lit(true) => Ok(Formula::True),
            Pred::Lit(false) => Ok(Formula::False),
            Pred::Cmp { op, lhs, rhs } => {
                let atom = LinAtom::from_cmp(*op, lhs, rhs, NonLinearPolicy::FoldComposite)
                    .map_err(|e| EncodeError::NonLinear(e.0))?;
                Ok(self.cmp_formula(*op, &atom))
            }
            Pred::And(ps) => {
                let mut acc = Formula::True;
                for q in ps {
                    acc = acc.and(self.encode_unchecked(q)?);
                }
                Ok(acc)
            }
            Pred::Or(ps) => {
                let mut acc = Formula::False;
                for q in ps {
                    acc = acc.or(self.encode_unchecked(q)?);
                }
                Ok(acc)
            }
            Pred::Not(q) => Ok(self.encode_unchecked(q)?.not()),
        }
    }

    /// Three-valued encoding of "`p` evaluates to TRUE" (§5.2): a
    /// comparison is TRUE only if every referenced nullable column is
    /// non-NULL, and AND/OR/NOT follow Kleene logic. Used by `Verify`.
    pub fn encode_is_true_3v(&mut self, p: &Pred) -> Result<Formula, EncodeError> {
        self.check_composites(p)?;
        Ok(self.encode_3v(p)?.0)
    }

    /// Returns (is_true, is_false) formula pair.
    fn encode_3v(&mut self, p: &Pred) -> Result<(Formula, Formula), EncodeError> {
        match p {
            Pred::Lit(true) => Ok((Formula::True, Formula::False)),
            Pred::Lit(false) => Ok((Formula::False, Formula::True)),
            Pred::Cmp { op, lhs, rhs } => {
                let atom = LinAtom::from_cmp(*op, lhs, rhs, NonLinearPolicy::FoldComposite)
                    .map_err(|e| EncodeError::NonLinear(e.0))?;
                let pos = self.cmp_formula(*op, &atom);
                let neg = self.cmp_formula(op.negated(), &atom);
                // Which nullable columns does the comparison touch?
                let mut cols = BTreeSet::new();
                lhs.collect_columns(&mut cols);
                rhs.collect_columns(&mut cols);
                let mut nn = Formula::True;
                for c in &cols {
                    if self.columns.is_nullable(c) {
                        let nv = self.null_var(c);
                        nn = nn.and(Formula::BoolVar(nv).not());
                    }
                }
                Ok((nn.clone().and(pos), nn.and(neg)))
            }
            Pred::And(ps) => {
                let mut t = Formula::True;
                let mut f = Formula::False;
                for q in ps {
                    let (qt, qf) = self.encode_3v(q)?;
                    t = t.and(qt);
                    f = f.or(qf);
                }
                Ok((t, f))
            }
            Pred::Or(ps) => {
                let mut t = Formula::False;
                let mut f = Formula::True;
                for q in ps {
                    let (qt, qf) = self.encode_3v(q)?;
                    t = t.or(qt);
                    f = f.and(qf);
                }
                Ok((t, f))
            }
            Pred::Not(q) => {
                let (qt, qf) = self.encode_3v(q)?;
                Ok((qf, qt))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{col, lit};
    use sia_num::BigRat;
    use sia_sql::parse_predicate;

    #[test]
    fn simple_encoding_sat() {
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a + 10 > b + 20 AND b > 0").unwrap();
        let f = enc.encode(&p).unwrap();
        let r = enc.solver().check(&f);
        let m = r.model().unwrap();
        let a = m.int(enc.value_var("a"));
        let b = m.int(enc.value_var("b"));
        assert!(&a + sia_num::BigInt::from(10i64) > &b + sia_num::BigInt::from(20i64));
        assert!(b.is_positive());
    }

    #[test]
    fn unsat_predicate() {
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a < 0 AND a > 0").unwrap();
        let f = enc.encode(&p).unwrap();
        assert!(enc.solver().check(&f).is_unsat());
    }

    #[test]
    fn date_predicates_encode_as_days() {
        let mut enc = PredEncoder::new();
        let p =
            parse_predicate("l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'")
                .unwrap();
        let f = enc.encode(&p).unwrap();
        let r = enc.solver().check(&f);
        assert!(r.is_sat());
        let m = r.model().unwrap();
        let ship = m.int(enc.value_var("l_shipdate"));
        let cutoff = sia_expr::Date::parse("1993-06-20").unwrap().to_days();
        assert!(ship < sia_num::BigInt::from(cutoff));
    }

    #[test]
    fn composite_column_folding() {
        let mut enc = PredEncoder::new();
        // a*b is opaque; predicate satisfiable.
        let p = parse_predicate("a * b > 10 AND c < 5").unwrap();
        let f = enc.encode(&p).unwrap();
        assert!(enc.solver().check(&f).is_sat());
        // the composite got its own variable
        assert!(enc.value_vars.contains_key("a*b"));
    }

    #[test]
    fn composite_overlap_rejected() {
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a * b > 10 AND a < 5").unwrap();
        match enc.encode(&p) {
            Err(EncodeError::CompositeOverlap(c)) => assert_eq!(c, "a*b"),
            other => panic!("expected CompositeOverlap, got {other:?}"),
        }
    }

    #[test]
    fn nonlinear_compound_rejected() {
        let mut enc = PredEncoder::new();
        let p = col("a").add(lit(1)).mul(col("b")).gt(lit(0));
        assert!(matches!(enc.encode(&p), Err(EncodeError::NonLinear(_))));
    }

    #[test]
    fn implication_check_two_valued() {
        // p = (a > 20) implies p1 = (a > 10): p ∧ ¬p1 unsat.
        let mut enc = PredEncoder::new();
        let p = enc.encode(&parse_predicate("a > 20").unwrap()).unwrap();
        let p1 = enc.encode(&parse_predicate("a > 10").unwrap()).unwrap();
        assert!(enc
            .solver()
            .check(&p.clone().and(p1.clone().not()))
            .is_unsat());
        // and the converse is sat (p1 does not imply p)
        assert!(enc.solver().check(&p1.and(p.not())).is_sat());
    }

    #[test]
    fn three_valued_null_blocks_truth() {
        // With a nullable, (a < 5) OR (b < 5) can be TRUE while a is NULL
        // (via b); any candidate over {a} alone cannot be implied.
        let mut enc = PredEncoder::new().with_columns(Analyzer::new().with_nullable(["a"]));
        let p = parse_predicate("a < 5 OR b < 5").unwrap();
        let p_true = enc.encode_is_true_3v(&p).unwrap();
        let cand = parse_predicate("a < 5").unwrap();
        let cand_true = enc.encode_is_true_3v(&cand).unwrap();
        // p TRUE ∧ candidate not TRUE is satisfiable: a NULL, b = 0.
        let q = p_true.and(cand_true.not());
        let r = enc.solver().check(&q);
        assert!(r.is_sat(), "expected violation via NULL");
        let m = r.model().unwrap();
        // The model indeed uses a NULL a or a large a.
        let a_null = m.boolean(enc.null_var("a"));
        let a_val = m.rat(enc.value_var("a"));
        assert!(a_null || a_val >= BigRat::from(5));
    }

    #[test]
    fn three_valued_not_null_columns_behave_classically() {
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a > 20").unwrap();
        let p1 = parse_predicate("a > 10").unwrap();
        let pt = enc.encode_is_true_3v(&p).unwrap();
        let p1t = enc.encode_is_true_3v(&p1).unwrap();
        assert!(enc.solver().check(&pt.and(p1t.not())).is_unsat());
    }

    #[test]
    fn three_valued_negation_is_not_classical() {
        // NOT(a < 5) with nullable a: TRUE requires a non-NULL and a >= 5.
        let mut enc = PredEncoder::new().with_columns(Analyzer::new().with_nullable(["a"]));
        let p = parse_predicate("NOT a < 5").unwrap();
        let pt = enc.encode_is_true_3v(&p).unwrap();
        let r = enc.solver().check(&pt);
        let m = r.model().unwrap();
        assert!(!m.boolean(enc.null_var("a")));
        assert!(m.rat(enc.value_var("a")) >= BigRat::from(5));
    }

    #[test]
    fn division_by_constant() {
        // `a / 2` truncates: it is one opaque term, and `a` occurring on
        // its own as well is no overlap.
        let mut enc = PredEncoder::new();
        let p = parse_predicate("a / 2 > 10 AND a < 5").unwrap();
        let f = enc.encode(&p).unwrap();
        let r = enc.solver().check(&f);
        let m = r.model().unwrap();
        assert!(m.rat(enc.value_var("(a / 2)")) > BigRat::from(10));
        assert!(m.int(enc.value_var("a")) < sia_num::BigInt::from(5i64));
    }

    #[test]
    fn analyzer_mirrors_encoder_types() {
        let mut enc =
            PredEncoder::new().with_columns(Analyzer::new().with_real(["d"]).with_nullable(["n"]));
        // 0 < d < 1 is satisfiable for a DOUBLE column, in both tiers…
        let p = parse_predicate("d > 0 AND d < 1").unwrap();
        assert!(!enc.analyzer().statically_unsat(&p));
        let f = enc.encode(&p).unwrap();
        assert!(enc.solver().check(&f).is_sat());

        // …and 0 < i < 1 is not for an INTEGER one.
        let q = parse_predicate("i > 0 AND i < 1").unwrap();
        assert!(enc.analyzer().statically_unsat(&q));
        let f = enc.encode(&q).unwrap();
        assert!(enc.solver().check(&f).is_unsat());

        let r = parse_predicate("n <> 0 OR n = 0").unwrap();
        assert!(
            !enc.analyzer().statically_true(&r),
            "nullable n can make this NULL"
        );
    }
}
