//! Static predicate derivation: projection of a zone-representable
//! predicate onto target columns, read back as a movable predicate.
//!
//! This is the analyzer's quantifier-elimination tier. A conjunction whose
//! atoms are all unary bounds (`x ⋈ c`) or unit differences (`x - y ⋈ c`)
//! is exactly a zone; closing the zone and dropping the rows/columns of the
//! non-target variables computes `∃ others . p` precisely (Fourier–Motzkin
//! specializes to shortest paths on difference constraints). Disjunctions
//! distribute through `∃`, so the predicate is expanded to a bounded DNF
//! and derived per-disjunct; nested ORs (IN-lists, grouped alternatives)
//! lose nothing as long as the expansion stays under [`DNF_LIMIT`].
//!
//! The result is graded:
//!
//! * [`Derivation::Exact`] — the returned predicate's solution set equals
//!   the projection of `p` (both directions). The synthesizer can return it
//!   as the *optimal* movable predicate without running CEGIS. Requires
//!   every conjunct to be zone-representable and all involved variables to
//!   share a sort (all integer or all real): integer tightening of a closed
//!   DBM, or plain rational closure, are exact; mixed sorts are not.
//! * [`Derivation::Bounds`] — `p ⇒ q` holds but `q` may be strictly weaker
//!   (some conjunct was dropped, a sort was mixed, or a bound did not
//!   render). Still a sound warm start: it seeds the sampler and bounds the
//!   learner's search region.
//!
//! Either way the caller re-verifies through the exact pipeline before
//! trusting the predicate — this module is an accelerator, not an oracle
//! of last resort.

use sia_expr::{col, CmpOp, Date, Expr, Pred};
use sia_num::BigRat;

use crate::interval::Bound;
use crate::zone::Zone;
use crate::{Analyzer, Conjunct};

/// Cap on DNF expansion inside [`Analyzer::derive`]: generated workloads
/// (§6.3 presets, `sia-gen` shapes with IN-lists and nested groups) stay
/// well under this, while adversarial CNF towers fall back gracefully.
const DNF_LIMIT: usize = 32;

/// A statically derived movable predicate (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Derivation {
    /// `pred ≡ ∃ non-target columns . p`: optimal, CEGIS is unnecessary.
    Exact(Pred),
    /// `p ⇒ pred` only: a sound over-approximation to warm-start CEGIS.
    Bounds(Pred),
}

impl Derivation {
    /// The derived predicate.
    pub fn pred(&self) -> &Pred {
        match self {
            Derivation::Exact(p) | Derivation::Bounds(p) => p,
        }
    }

    /// Whether the derivation is exact (projection-equivalent).
    pub fn is_exact(&self) -> bool {
        matches!(self, Derivation::Exact(_))
    }
}

/// The half of a derivation that does not depend on the target columns:
/// the predicate in bounded DNF, each disjunct's zone closed. Built once
/// by [`Analyzer::zones`], projected any number of times.
#[derive(Debug, Clone)]
pub(crate) struct Zones(Vec<Disjunct>);

#[derive(Debug, Clone)]
enum Disjunct {
    /// No tuple satisfies the disjunct (exactly so, whatever was dropped:
    /// an over-approximation that is already empty).
    Empty,
    /// The closed zone of the representable conjuncts; `exact` unless one
    /// was dropped or the sorts are mixed.
    Closed { zone: Zone, exact: bool },
}

impl Analyzer {
    /// Attempt to statically derive the movable predicate of `p` over the
    /// target columns `keep`. Returns `None` when the zone fragment gets no
    /// purchase on `p` at all (nothing derived beyond TRUE).
    pub fn derive(&self, p: &Pred, keep: &[String]) -> Option<Derivation> {
        let pn = p.nnf();
        self.project(&self.zones(&pn, &self.conjuncts_of(&pn)), keep)
    }

    /// Close the zone of every disjunct of `pn` (in NNF; `conjuncts` are
    /// its prepared top-level conjuncts).
    pub(crate) fn zones(&self, pn: &Pred, conjuncts: &[Conjunct]) -> Zones {
        // A conjunction of comparisons and literals is its own DNF.
        let atomic =
            |c: &Conjunct| matches!(c, Conjunct::Cmp { .. } | Conjunct::Other(Pred::Lit(_)));
        if conjuncts.iter().all(atomic) {
            return Zones(vec![self.zone_of(conjuncts)]);
        }
        // Disjunction distributes through ∃, and DNF expansion is an
        // equivalence, so nested ORs (IN-lists, grouped alternatives) are
        // derived exactly by flattening first — bounded to keep the output
        // readable and the expansion linear in practice. Past the bound,
        // fall back to splitting only a top-level OR; nested ORs then
        // degrade to dropped conjuncts inside `zone_of`.
        let disjuncts: Vec<Pred> = pn.dnf_within(DNF_LIMIT).unwrap_or_else(|| match pn {
            Pred::Or(ps) => ps.clone(),
            other => vec![other.clone()],
        });
        let zone = |d: &Pred| self.zone_of(&self.conjuncts_of(d));
        Zones(disjuncts.iter().map(zone).collect())
    }

    /// Project every disjunct's zone onto `keep` and read the result back.
    pub(crate) fn project(&self, zones: &Zones, keep: &[String]) -> Option<Derivation> {
        let mut exact = true;
        let mut out = Pred::false_();
        for d in &zones.0 {
            let (q, ex) = match d {
                Disjunct::Empty => (Pred::false_(), true),
                Disjunct::Closed { zone, exact } => {
                    let mut proj = zone.project(&|v| keep.iter().any(|k| k == v));
                    proj.minimize();
                    let (pred, rendered_all) = self.render_zone(&proj);
                    (pred, *exact && rendered_all)
                }
            };
            exact &= ex;
            out = out.or(q);
        }
        if !exact && out.is_true() {
            // A vacuous over-approximation carries no information.
            return None;
        }
        Some(if exact {
            Derivation::Exact(out)
        } else {
            Derivation::Bounds(out)
        })
    }

    /// The closed zone of one conjunctive disjunct. Never fails:
    /// unrepresentable conjuncts are dropped (weakening the result), which
    /// only ever downgrades exactness.
    fn zone_of(&self, conjuncts: &[Conjunct]) -> Disjunct {
        let is_int = |n: &str| !self.real.contains(n);
        let mut exact = true;
        // (i, j, bound) constraints against variable *names*; resolved to
        // matrix indices once the full variable set is known.
        let mut cons: Vec<(Option<String>, Option<String>, Bound)> = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        fn note(name: &str, vars: &mut Vec<String>) {
            if !vars.iter().any(|v| v == name) {
                vars.push(name.to_string());
            }
        }
        for c in conjuncts {
            match c {
                Conjunct::Other(Pred::Lit(true)) => {}
                Conjunct::Other(Pred::Lit(false)) => return Disjunct::Empty,
                Conjunct::Cmp { atom, .. } => {
                    let Some(atom) = atom else {
                        exact = false;
                        continue;
                    };
                    if atom.key.is_empty() {
                        // Constant comparison `0 ⋈ bound`.
                        if !const_atom_true(atom.op, &atom.bound) {
                            return Disjunct::Empty;
                        }
                        continue;
                    }
                    // Zone-representable forms: `x ⋈ c` (unit coefficient
                    // after canonicalization) and `x - y ⋈ c`.
                    let (xi, xj) = match atom.key.as_slice() {
                        [(x, a)] if a.is_one() => (Some(x.clone()), None),
                        [(x, a), (y, b)] if a.is_one() && (-b.clone()).is_one() => {
                            (Some(x.clone()), Some(y.clone()))
                        }
                        _ => {
                            exact = false;
                            continue;
                        }
                    };
                    if let Some(x) = &xi {
                        note(x, &mut vars);
                    }
                    if let Some(y) = &xj {
                        note(y, &mut vars);
                    }
                    // `form ⋈ bound` as upper bounds on `form` / `-form`.
                    let ub = |value: BigRat, strict: bool| Bound { value, strict };
                    match atom.op {
                        CmpOp::Le | CmpOp::Lt => {
                            cons.push((xi, xj, ub(atom.bound.clone(), atom.op == CmpOp::Lt)));
                        }
                        CmpOp::Ge | CmpOp::Gt => {
                            cons.push((xj, xi, ub(-atom.bound.clone(), atom.op == CmpOp::Gt)));
                        }
                        CmpOp::Eq => {
                            cons.push((xi.clone(), xj.clone(), ub(atom.bound.clone(), false)));
                            cons.push((xj, xi, ub(-atom.bound.clone(), false)));
                        }
                        // `<>` carves a non-convex hole no zone represents.
                        CmpOp::Ne => exact = false,
                    }
                }
                // Nested OR (or anything else non-atomic) inside a
                // conjunction: drop it rather than distribute.
                Conjunct::Other(_) => exact = false,
            }
        }
        // Projection is exact only over a uniform sort (see module docs).
        if !(vars.iter().all(|v| is_int(v)) || vars.iter().all(|v| !is_int(v))) {
            exact = false;
        }
        let mut zone = Zone::top(vars, &is_int);
        for (x, y, b) in cons {
            let i = x.and_then(|n| zone.index_of(&n)).unwrap_or(0);
            let j = y.and_then(|n| zone.index_of(&n)).unwrap_or(0);
            zone.constrain(i, j, b);
        }
        if !zone.close() {
            // The over-approximation is already empty, so the (stronger)
            // original disjunct certainly is: exact regardless of drops.
            return Disjunct::Empty;
        }
        Disjunct::Closed { zone, exact }
    }

    /// Read a (projected, minimized) zone back as a conjunction of
    /// comparisons. Returns the predicate and whether every constraint
    /// rendered (a bound outside `i64`, or fractional on a real-sorted
    /// difference, is dropped — weaker, so exactness is forfeited).
    fn render_zone(&self, z: &Zone) -> (Pred, bool) {
        let mut atoms: Vec<Pred> = Vec::new();
        let mut rendered_all = true;
        let mut done: Vec<(usize, usize)> = Vec::new();
        for (i, j, ub) in z.constraints() {
            if done.contains(&(i, j)) {
                continue;
            }
            // Fold `x - y <= c` + `y - x <= -c` (both closed) into `=`.
            let eq = !ub.strict
                && z.get(j, i)
                    .is_some_and(|lb| !lb.strict && lb.value == -ub.value.clone());
            let (lhs, value, op) = match (i, j) {
                (i, 0) => (
                    col(&z.vars()[i - 1]),
                    ub.value.clone(),
                    if eq {
                        CmpOp::Eq
                    } else if ub.strict {
                        CmpOp::Lt
                    } else {
                        CmpOp::Le
                    },
                ),
                (0, j) => (
                    col(&z.vars()[j - 1]),
                    -ub.value.clone(),
                    if eq {
                        CmpOp::Eq
                    } else if ub.strict {
                        CmpOp::Gt
                    } else {
                        CmpOp::Ge
                    },
                ),
                (i, j) => (
                    col(&z.vars()[i - 1]).sub(col(&z.vars()[j - 1])),
                    ub.value.clone(),
                    if eq {
                        CmpOp::Eq
                    } else if ub.strict {
                        CmpOp::Lt
                    } else {
                        CmpOp::Le
                    },
                ),
            };
            let unary = i == 0 || j == 0;
            let var = if j == 0 {
                &z.vars()[i - 1]
            } else if i == 0 {
                &z.vars()[j - 1]
            } else {
                &z.vars()[i - 1] // only used for the date check below
            };
            match self.render_value(&value, unary && self.date.contains(var)) {
                Some(rhs) => {
                    atoms.push(lhs.cmp(op, rhs));
                    if eq {
                        done.push((j, i));
                    }
                }
                None => rendered_all = false,
            }
        }
        (Pred::and_all(atoms), rendered_all)
    }

    /// Render a rational bound as an expression: a `DATE` literal for unary
    /// date-column bounds, an integer literal otherwise. `None` when the
    /// value is fractional or outside `i64`.
    fn render_value(&self, v: &BigRat, as_date: bool) -> Option<Expr> {
        if !v.is_integer() {
            return None;
        }
        let n = v.numer().to_i64()?;
        if as_date {
            // Stay inside the four-digit-year range the parser round-trips.
            let d = Date::from_days(n);
            if (1..=9999).contains(&d.year()) {
                return Some(Expr::Date(d));
            }
        }
        Some(Expr::Int(n))
    }
}

/// Truth of the constant comparison `0 ⋈ bound`.
fn const_atom_true(op: CmpOp, bound: &BigRat) -> bool {
    let z = BigRat::zero();
    match op {
        CmpOp::Lt => z < *bound,
        CmpOp::Le => z <= *bound,
        CmpOp::Gt => z > *bound,
        CmpOp::Ge => z >= *bound,
        CmpOp::Eq => z == *bound,
        CmpOp::Ne => z != *bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    fn derive(p: &str, keep: &[&str]) -> Option<Derivation> {
        let keep: Vec<String> = keep.iter().map(|s| s.to_string()).collect();
        Analyzer::new().derive(&parse_predicate(p).unwrap(), &keep)
    }

    #[test]
    fn motivating_example_is_derived_exactly() {
        // §3.2: a2 - b1 < 20 ∧ a1 - a2 < a2 - b1 + 10 is *not* a zone (the
        // second atom has three variables), so only bounds come back; but
        // the pure-difference variant must project exactly.
        let d = derive("a - o <= 5 AND o <= 100 AND o >= 10", &["a"]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.pred().to_string(), "a <= 105");
    }

    #[test]
    fn difference_chain_projects_through_middle_variable() {
        let d = derive("a - o <= 3 AND o - b <= 4", &["a", "b"]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.pred().to_string(), "a - b <= 7");
    }

    #[test]
    fn strict_bounds_tighten_over_integers() {
        let d = derive("a - o < 3 AND o < 10", &["a"]).unwrap();
        assert!(d.is_exact());
        // a - o <= 2 and o <= 9 over integers: a <= 11.
        assert_eq!(d.pred().to_string(), "a <= 11");
    }

    #[test]
    fn contradiction_derives_false() {
        let d = derive("a - o <= -1 AND o - a <= 0", &["a"]).unwrap();
        assert!(d.is_exact());
        assert!(d.pred().is_false());
    }

    #[test]
    fn non_zone_conjunct_downgrades_to_bounds() {
        // `a + o <= 10` has coefficients (1, 1): not a difference.
        let d = derive("a <= 5 AND a + o <= 10", &["a"]).unwrap();
        assert!(!d.is_exact());
        assert_eq!(d.pred().to_string(), "a <= 5");
    }

    #[test]
    fn useless_derivations_return_none() {
        // `(a+1)*(o+1)` does not linearize even with composite folding:
        // nothing zone-shaped at all.
        assert!(derive("(a + 1) * (o + 1) < 3", &["a"]).is_none());
        // A dropped conjunct plus constraints only on the eliminated
        // variable: projects to TRUE but inexactly — no information.
        assert!(derive("(a + 1) * (o + 1) < 3 AND o <= 5", &["a"]).is_none());
    }

    #[test]
    fn folded_composites_are_opaque_variables() {
        // `a * o` folds to an opaque integer variable (solver semantics);
        // it is not a target column, so it projects away exactly.
        let d = derive("a * o <= 10 AND a <= 4", &["a"]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.pred().to_string(), "a <= 4");
    }

    #[test]
    fn exact_true_projection_is_kept() {
        // Fully representable, but every constraint mentions only `o`:
        // ∃o.p ≡ TRUE is a real (optimal) answer.
        let d = derive("o <= 5 AND o >= 0", &["a"]).unwrap();
        assert!(d.is_exact());
        assert!(d.pred().is_true());
    }

    #[test]
    fn disjunctions_distribute() {
        let d = derive("(a - o <= 1 AND o <= 2) OR (a - o <= 2 AND o <= 0)", &["a"]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.pred().to_string(), "a <= 3 OR a <= 2");
    }

    #[test]
    fn nested_disjunctions_distribute_exactly() {
        // An OR *inside* the conjunction (the shape of an IN-list): DNF
        // expansion keeps the derivation exact instead of dropping it.
        let d = derive("a - o <= 1 AND (o = 2 OR o = 5)", &["a"]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.pred().to_string(), "a <= 3 OR a <= 6");
    }

    #[test]
    fn oversized_cnf_falls_back_to_inexact() {
        // 6 binary clauses -> 64 DNF disjuncts > DNF_LIMIT: the expansion
        // aborts and the nested ORs degrade to dropped conjuncts (Bounds).
        let clause = "(o = 1 OR o = 2)";
        let p = format!("a <= 5 AND {}", [clause; 6].join(" AND "));
        let d = derive(&p, &["a"]).unwrap();
        assert!(!d.is_exact());
        assert_eq!(d.pred().to_string(), "a <= 5");
    }

    #[test]
    fn equalities_split_and_refold() {
        let d = derive("a - o = 4 AND o = 1", &["a"]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.pred().to_string(), "a = 5");
    }

    #[test]
    fn mixed_sorts_are_never_exact() {
        let keep = vec!["a".to_string()];
        let a = Analyzer::new().with_real(["x"]);
        let p = parse_predicate("a - x <= 5 AND x <= 2").unwrap();
        let d = a.derive(&p, &keep).unwrap();
        assert!(!d.is_exact());
        // …but the bounds are still sound: a <= 7.
        assert_eq!(d.pred().to_string(), "a <= 7");
    }

    #[test]
    fn date_bounds_render_as_dates() {
        let keep = vec!["d".to_string()];
        let a = Analyzer::new().with_date(["d", "o"]);
        let p = parse_predicate("d - o <= 5 AND o <= DATE '1994-01-01'").unwrap();
        let d = a.derive(&p, &keep).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.pred().to_string(), "d <= DATE '1994-01-06'");
    }
}
