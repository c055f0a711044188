//! Predicate closure — the **transition** step of predicate move-around.
//!
//! Given the conjunction of every predicate gathered from a plan tree
//! (filters plus join equalities), this module computes the set of
//! *derived* predicates entailed by that conjunction:
//!
//! 1. **Equivalence classes**: union-find over column names seeded by
//!    column-to-column equality atoms (`a = b`, the join conditions);
//! 2. **Substitution**: every atom spawns variants with each column
//!    replaced by an equivalent one, iterated to a (capped) fixpoint —
//!    this covers constant propagation (`a = 5 ∧ a = b ⊢ b = 5`) and
//!    carries non-zone atoms (IN-lists, non-unit coefficients) across
//!    equivalence classes;
//! 3. **Transitive bounds**: the difference-bound [`Zone`](crate::Zone)
//!    closure behind [`Analyzer::derive`] adds entailments substitution
//!    cannot see (`a - b ≤ 3 ∧ b - c ≤ 4 ⊢ a - c ≤ 7`), projected onto a
//!    requested column scope.
//!
//! # Build once
//!
//! [`Analyzer::close`] also builds, once, everything later questions read
//! about the closed conjunction: each atom's canonical form, the
//! contradiction verdict, and the closed zone of every DNF disjunct.
//! [`Closure::contradictory`] and [`Closure::entailed_over`] are reads of
//! that state — a projection, a minimization and a rendering per column
//! set — so their answers do not depend on which was asked first, or how
//! often.
//!
//! # Soundness (3VL)
//!
//! Every derived atom `d` satisfies: whenever the input conjunction `P`
//! evaluates **TRUE** under SQL's three-valued logic, so does `d`. For
//! substitution this holds because `a = b` TRUE pins both columns to the
//! same non-NULL value, making `φ` and `φ[a→b]` evaluate identically on
//! that tuple; for zone bounds every column of a derived constraint
//! occurs in some contributing atom that evaluated TRUE, hence is
//! non-NULL, so the derived comparison cannot be NULL. Nothing is claimed
//! when `P` is FALSE or NULL — which is exactly the guarantee WHERE-style
//! filtering below *inner* joins needs (see `sia-engine`'s move-around
//! pass for the boundary rules).

use std::collections::BTreeMap;

use sia_expr::{CmpOp, Expr, Pred};

use crate::project::Zones;
use crate::state::State;
use crate::{Analyzer, Conjunct};

/// Hard cap on the closed atom set: substitution across big equivalence
/// classes is quadratic, and push-down only ever uses a handful of facts
/// per scan, so a runaway closure is all cost and no benefit.
const MAX_ATOMS: usize = 96;

/// Union-find equivalence classes over column names, induced by the
/// column-to-column equality atoms of a conjunction (join conditions).
#[derive(Debug, Clone, Default)]
pub struct ColumnClasses {
    /// Parent links; roots map to themselves. Roots are the
    /// lexicographically smallest member so the structure (and everything
    /// derived from it) is deterministic.
    parent: BTreeMap<String, String>,
}

impl ColumnClasses {
    /// No equivalences.
    pub fn new() -> ColumnClasses {
        ColumnClasses::default()
    }

    /// The class representative of `c` (itself when never unioned).
    pub fn find(&self, c: &str) -> String {
        let mut cur = c;
        while let Some(p) = self.parent.get(cur) {
            if p == cur {
                break;
            }
            cur = p;
        }
        cur.to_string()
    }

    /// Merge the classes of `a` and `b`.
    pub fn union(&mut self, a: &str, b: &str) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent
            .entry(a.to_string())
            .or_insert_with(|| ra.clone());
        self.parent
            .entry(b.to_string())
            .or_insert_with(|| rb.clone());
        if ra == rb {
            return;
        }
        // Smaller root wins; relink the larger root (find chases chains,
        // so leaving interior nodes pointing at the old root is fine).
        let (keep, move_) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(move_, keep);
    }

    /// Are `a` and `b` known equivalent?
    pub fn same(&self, a: &str, b: &str) -> bool {
        self.find(a) == self.find(b)
    }

    /// Every known member of `c`'s class, `c` included, sorted.
    pub fn members(&self, c: &str) -> Vec<String> {
        let root = self.find(c);
        let mut out: Vec<String> = self
            .parent
            .keys()
            .filter(|k| self.find(k) == root)
            .cloned()
            .collect();
        if !out.iter().any(|m| m == c) {
            out.push(c.to_string());
        }
        out.sort();
        out
    }

    /// All non-trivial classes (two or more members), each sorted, ordered
    /// by representative.
    pub fn classes(&self) -> Vec<Vec<String>> {
        let mut by_root: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for k in self.parent.keys() {
            by_root.entry(self.find(k)).or_default().push(k.clone());
        }
        by_root
            .into_values()
            .filter(|v| v.len() > 1)
            .map(|mut v| {
                v.sort();
                v
            })
            .collect()
    }
}

/// The closure of a conjunction: equivalence classes plus the closed,
/// deduplicated atom set (input atoms first, derived atoms after).
#[derive(Debug, Clone)]
pub struct Closure {
    /// Column equivalence classes from the equality atoms.
    pub classes: ColumnClasses,
    /// The closed atom set: input conjuncts followed by derived atoms.
    pub atoms: Vec<Pred>,
    /// Just the atoms added by the closure (a suffix of `atoms`).
    pub derived: Vec<Pred>,
    /// Each atom in NNF, prepared (aligned with `atoms`).
    conjuncts: Vec<Conjunct>,
    /// The closed conjunction can never evaluate TRUE.
    contradictory: bool,
    /// The closed zone of every DNF disjunct of the closed conjunction.
    zones: Zones,
}

/// `a = a` (or any other same-column equality) — true modulo NULL and
/// pure noise in the closed set.
fn trivial_self_cmp(p: &Pred) -> bool {
    matches!(p, Pred::Cmp { lhs: Expr::Column(a), rhs: Expr::Column(b), .. } if a == b)
}

impl Analyzer {
    /// Close the conjuncts of `p` under column equivalence, substitution,
    /// and constant propagation. The closed set is capped (see
    /// [`ColumnClasses`] module docs); the closure is idempotent when the
    /// cap is not hit.
    pub fn close(&self, p: &Pred) -> Closure {
        let mut classes = ColumnClasses::new();
        let mut atoms: Vec<Pred> = Vec::new();
        for c in p.conjuncts() {
            if c.is_true() || trivial_self_cmp(c) {
                continue;
            }
            if let Pred::Cmp {
                op: CmpOp::Eq,
                lhs: Expr::Column(a),
                rhs: Expr::Column(b),
            } = c
            {
                classes.union(a, b);
            }
            if !atoms.contains(c) {
                atoms.push(c.clone());
            }
        }
        let n_input = atoms.len();
        // Worklist substitution to a fixpoint: one column replaced per
        // step; multi-column rewrites arise by processing derived atoms.
        let mut next = 0usize;
        while next < atoms.len() && atoms.len() < MAX_ATOMS {
            let atom = atoms[next].clone();
            next += 1;
            for c in atom.columns() {
                for m in classes.members(&c) {
                    if m == c {
                        continue;
                    }
                    let sub = atom.map_columns(&|n| {
                        if n == c {
                            m.clone()
                        } else {
                            n.to_string()
                        }
                    });
                    if trivial_self_cmp(&sub) || atoms.contains(&sub) {
                        continue;
                    }
                    if atoms.len() >= MAX_ATOMS {
                        break;
                    }
                    atoms.push(sub);
                }
            }
        }
        let derived = atoms[n_input..].to_vec();
        // The abstract state, over exactly what `tri` and `derive` would
        // see of the closed conjunction's NNF.
        let nnf: Vec<Pred> = atoms.iter().map(Pred::nnf).collect();
        let conjuncts: Vec<Conjunct> = nnf.iter().map(|a| Conjunct::new(self, a)).collect();
        // `and_all` flattens a conjunction and absorbs a literal; short of
        // that, the conjunction's conjuncts are the atoms', one for one.
        let one_for_one = !nnf.iter().any(|a| matches!(a, Pred::And(_) | Pred::Lit(_)));
        let pn = Pred::and_all(nnf);
        let flattened;
        let of_pn = if one_for_one {
            &conjuncts
        } else {
            flattened = self.conjuncts_of(&pn);
            &flattened
        };
        let tri = match &pn {
            Pred::And(_) => self.tri_conjunction(of_pn, &State::top()),
            _ => self.tri_pred(&pn, &State::top()),
        };
        let zones = self.zones(&pn, of_pn);
        Closure {
            classes,
            atoms,
            derived,
            conjuncts,
            contradictory: tri.never_true(),
            zones,
        }
    }
}

impl Closure {
    /// The full closed set as one conjunction.
    pub fn conjunction(&self) -> Pred {
        Pred::and_all(self.atoms.iter().cloned())
    }

    /// Can the closed conjunction never evaluate TRUE? (The plan under it
    /// returns no rows.) Decided when the closure was built, by the
    /// analyzer that built it.
    pub fn contradictory(&self) -> bool {
        self.contradictory
    }

    /// The strongest predicate over `cols` entailed by the closed set:
    /// closed atoms fully over `cols`, plus transitive zone bounds (the
    /// closed zones projected onto `cols`, as [`Analyzer::derive`] would
    /// on the closed conjunction), minus conjuncts implied by the rest (so
    /// the result carries no internal redundancy). Returns `TRUE` when
    /// nothing non-trivial is entailed.
    pub fn entailed_over(&self, an: &Analyzer, cols: &[String]) -> Pred {
        let top = State::top();
        let trivial = |c: &Conjunct| an.tri_conjunct(c, &top).certainly_true();
        let mut parts: Vec<(Pred, Conjunct)> = self
            .atoms
            .iter()
            .zip(&self.conjuncts)
            .filter(|(a, _)| !a.columns().is_empty() && a.over_columns(cols))
            .filter(|(_, c)| !trivial(c))
            .map(|(a, c)| (a.clone(), c.clone()))
            .collect();
        if let Some(d) = an.project(&self.zones, cols) {
            for conj in d.pred().conjuncts() {
                if conj.is_true() || parts.iter().any(|(p, _)| p == conj) {
                    continue;
                }
                let c = Conjunct::new(an, &conj.nnf());
                if !trivial(&c) {
                    parts.push((conj.clone(), c));
                }
            }
        }
        // Minimal set: drop any conjunct the remaining ones already imply.
        let mut dropped = vec![false; parts.len()];
        for i in 0..parts.len() {
            let rest: Vec<&(Pred, Conjunct)> = parts
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i && !dropped[*j])
                .map(|(_, part)| part)
                .collect();
            dropped[i] = match rest.as_slice() {
                [] => false,
                // A lone disjunction is split by `implies`, not assumed.
                [(only, Conjunct::Other(_))] => an.implies(only, &parts[i].0),
                _ => an.entails(rest.iter().map(|(_, c)| c), &parts[i].1),
            };
        }
        Pred::and_all(
            parts
                .into_iter()
                .zip(dropped)
                .filter(|(_, d)| !d)
                .map(|((p, _), _)| p),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{col, lit};

    fn eq(a: &str, b: &str) -> Pred {
        col(a).eq_(col(b))
    }

    #[test]
    fn union_find_classes() {
        let mut c = ColumnClasses::new();
        c.union("id1", "id2");
        c.union("id3", "id4");
        c.union("id1", "id3");
        assert!(c.same("id2", "id4"));
        assert!(!c.same("id2", "other"));
        assert_eq!(c.find("id4"), "id1");
        assert_eq!(c.members("id2"), vec!["id1", "id2", "id3", "id4"]);
        assert_eq!(c.classes().len(), 1);
    }

    #[test]
    fn snippet_one_chain_derives_all_bounds() {
        // The four-table chain from SNIPPETS.md snippet 1:
        // id1 = id2 ∧ id3 = id4 ∧ id1 = id3 ∧ id4 > 2020.
        let an = Analyzer::new();
        let p = eq("id1", "id2")
            .and(eq("id3", "id4"))
            .and(eq("id1", "id3"))
            .and(col("id4").gt(lit(2020)));
        let cl = an.close(&p);
        for c in ["id1", "id2", "id3"] {
            let want = col(c).gt(lit(2020));
            assert!(
                cl.derived.contains(&want),
                "missing derived {want} in {:?}",
                cl.derived
            );
            let ent = cl.entailed_over(&an, &[c.to_string()]);
            assert!(
                an.implies(&ent, &want) && an.implies(&want, &ent),
                "entailed_over({c}) = {ent}, want ≡ {want}"
            );
        }
    }

    #[test]
    fn constants_propagate_through_classes() {
        let an = Analyzer::new();
        let p = eq("a", "b").and(col("a").eq_(lit(5)));
        let cl = an.close(&p);
        assert!(cl.atoms.contains(&col("b").eq_(lit(5))));
    }

    #[test]
    fn non_zone_atoms_cross_classes() {
        // 2a ≤ 10 is outside the unit-coefficient zone fragment, but
        // substitution still carries it to the equivalent column.
        let an = Analyzer::new();
        let p = eq("a", "b").and(col("a").mul(lit(2)).le(lit(10)));
        let cl = an.close(&p);
        assert!(cl.atoms.contains(&col("b").mul(lit(2)).le(lit(10))));
    }

    #[test]
    fn entailed_has_transitive_zone_bounds() {
        let an = Analyzer::new();
        let p = col("a")
            .sub(col("b"))
            .le(lit(3))
            .and(col("b").sub(col("c")).le(lit(4)));
        let cl = an.close(&p);
        let ent = cl.entailed_over(&an, &["a".into(), "c".into()]);
        assert!(
            an.implies(&ent, &col("a").sub(col("c")).le(lit(7))),
            "entailed = {ent}"
        );
    }

    #[test]
    fn entailed_is_minimal() {
        // a = b ∧ a > 5: over {b} both "b > 5" variants collapse to one
        // conjunct (no redundant pair).
        let an = Analyzer::new();
        let p = eq("a", "b").and(col("a").gt(lit(5)));
        let cl = an.close(&p);
        let ent = cl.entailed_over(&an, &["b".into()]);
        assert_eq!(ent.conjuncts().len(), 1, "entailed = {ent}");
    }

    #[test]
    fn closure_capped() {
        // A 12-member class with a shared bound would explode without the
        // cap; with it the atom set stays bounded.
        let an = Analyzer::new();
        let mut p = col("c0").lt(lit(1));
        for i in 1..12 {
            p = p.and(eq("c0", &format!("c{i}")));
        }
        let cl = an.close(&p);
        assert!(cl.atoms.len() <= MAX_ATOMS);
    }

    #[test]
    fn contradiction_detected() {
        let an = Analyzer::new();
        let p = eq("a", "b")
            .and(col("a").lt(lit(0)))
            .and(col("b").gt(lit(0)));
        assert!(an.close(&p).contradictory());
        let q = eq("a", "b").and(col("a").lt(lit(0)));
        assert!(!an.close(&q).contradictory());
    }
}
