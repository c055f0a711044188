//! Predicate canonicalization: reduce a predicate to a constant-free
//! template plus a parameter vector, modulo column names and
//! conjunct/disjunct order.
//!
//! Two predicates share a template exactly when one can be obtained from
//! the other by renaming columns, permuting the children of `AND`/`OR`,
//! and changing constants. The template alone is **not** a sound cache
//! key — synthesized predicates depend on the constants — so the cache
//! keys on (template, parameter vector, target columns); the template
//! buys reuse across alpha-renaming and reordering only.
//!
//! Canonical form is computed in three ordered steps whose composition is
//! idempotent (see `tests/canon_prop.rs`):
//!
//! 1. **Rename**: columns sorted by `(length, lexicographic)` become
//!    `c0, c1, …`. Length-first ordering makes the canonical names map to
//!    themselves on re-canonicalization (plain lexicographic order would
//!    put `c10` before `c2` once there are more than ten columns).
//! 2. **Sort**: children of every `AND`/`OR` are sorted by their rendered
//!    string, bottom-up. Kleene three-valued `AND`/`OR` are commutative,
//!    so this preserves semantics even in the presence of NULLs.
//! 3. **Extract**: constants are replaced left-to-right by placeholder
//!    columns `p0, p1, …` and collected into the parameter vector.
//!    Step 1 already renamed every real column, so placeholders cannot
//!    collide with a user column that happens to be called `p0`.

use std::collections::HashMap;

use sia_expr::{Expr, Pred};

/// What a lint reads of one column besides its name: whether it is
/// real-valued (`DOUBLE`), `DATE`-typed and nullable. Lint is not a pure
/// function of a cache key, which renames columns, but it is of the key
/// and these facts per canonical column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnFacts {
    /// The column is real-valued.
    pub real: bool,
    /// The column is `DATE`-typed.
    pub date: bool,
    /// The column may be NULL.
    pub nullable: bool,
}

/// A predicate in canonical form: template, parameters, and the column
/// rename that maps the original predicate into canonical space.
#[derive(Debug, Clone, PartialEq)]
pub struct Canonical {
    /// The constant-free template over columns `c0..` and placeholders
    /// `p0..`.
    pub template: Pred,
    /// Extracted constants, in template traversal order (`p{i}` stands
    /// for `params[i]`).
    pub params: Vec<Expr>,
    /// `(original, canonical)` column pairs, in canonical order.
    pub rename: Vec<(String, String)>,
    /// The column facts the key is typed on, one per canonical column
    /// ([`Canonical::typed`]); empty for an untyped key.
    pub facts: Vec<ColumnFacts>,
}

/// Canonicalize a predicate.
pub fn canonicalize(p: &Pred) -> Canonical {
    let mut cols = p.columns();
    cols.sort_by(|a, b| (a.len(), a.as_str()).cmp(&(b.len(), b.as_str())));
    let map: HashMap<&str, String> = cols
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_str(), format!("c{i}")))
        .collect();
    let renamed = p.map_columns(&|c| map[c].clone());
    let sorted = sort_commutative(&renamed);
    let mut params = Vec::new();
    let template = extract_pred(&sorted, &mut params);
    let rename = cols
        .into_iter()
        .enumerate()
        .map(|(i, c)| (c, format!("c{i}")))
        .collect();
    Canonical {
        template,
        params,
        rename,
        facts: Vec::new(),
    }
}

impl Canonical {
    /// The `template|params` part of a cache key, and `|facts` when the
    /// key is typed. Target columns are appended by the cache, which also
    /// decides the shard.
    pub fn key_fragment(&self) -> String {
        let params: Vec<String> = self.params.iter().map(ToString::to_string).collect();
        let mut key = format!("{}|{}", self.template, params.join(","));
        if !self.facts.is_empty() {
            key.push('|');
            for f in &self.facts {
                key.push(match (f.real, f.date) {
                    (true, _) => 'r',
                    (_, true) => 'd',
                    _ => 'i',
                });
                if f.nullable {
                    key.push('?');
                }
            }
        }
        key
    }

    /// This form keyed also on the `facts` of each original column
    /// ([`Canonical::lint_signature`]), for a caller whose answer depends
    /// on column types: a predicate over an INTEGER column and the same
    /// one over a DOUBLE then never share a cache entry.
    #[must_use]
    pub fn typed(mut self, facts: impl Fn(&str) -> ColumnFacts) -> Canonical {
        self.facts = self.lint_signature(facts);
        self
    }

    /// Map an original column name into canonical space, if it occurs in
    /// the canonicalized predicate.
    pub fn canonical_col(&self, original: &str) -> Option<&str> {
        self.rename
            .iter()
            .find(|(o, _)| o == original)
            .map(|(_, c)| c.as_str())
    }

    /// Map a predicate from original into canonical column space.
    /// Columns outside the rename map keep their name.
    pub fn to_canonical_space(&self, p: &Pred) -> Pred {
        p.map_columns(&|c| {
            self.canonical_col(c)
                .map_or_else(|| c.to_string(), str::to_string)
        })
    }

    /// `facts` of each original column, in canonical column order: the
    /// column-type signature a cache entry's lint verdict is keyed on.
    pub fn lint_signature(&self, facts: impl Fn(&str) -> ColumnFacts) -> Vec<ColumnFacts> {
        self.rename
            .iter()
            .map(|(original, _)| facts(original))
            .collect()
    }

    /// Map a predicate from canonical back into original column space.
    /// Columns outside the rename map keep their name.
    pub fn to_original_space(&self, p: &Pred) -> Pred {
        p.map_columns(&|c| {
            self.rename
                .iter()
                .find(|(_, canon)| canon == c)
                .map_or_else(|| c.to_string(), |(o, _)| o.clone())
        })
    }

    /// Reconstruct the canonical-space predicate by substituting the
    /// parameters back into the template.
    pub fn reconstruct(&self) -> Pred {
        subst_pred(&self.template, &self.params)
    }
}

/// Sort the children of every `AND`/`OR` by rendered string, bottom-up.
fn sort_commutative(p: &Pred) -> Pred {
    match p {
        Pred::And(ps) => Pred::And(sort_children(ps)),
        Pred::Or(ps) => Pred::Or(sort_children(ps)),
        Pred::Not(q) => Pred::Not(Box::new(sort_commutative(q))),
        Pred::Lit(_) | Pred::Cmp { .. } => p.clone(),
    }
}

fn sort_children(ps: &[Pred]) -> Vec<Pred> {
    let mut keyed: Vec<(String, Pred)> = ps
        .iter()
        .map(sort_commutative)
        .map(|q| (q.to_string(), q))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, q)| q).collect()
}

fn extract_pred(p: &Pred, params: &mut Vec<Expr>) -> Pred {
    match p {
        Pred::Lit(b) => Pred::Lit(*b),
        Pred::Cmp { op, lhs, rhs } => Pred::Cmp {
            op: *op,
            lhs: extract_expr(lhs, params),
            rhs: extract_expr(rhs, params),
        },
        Pred::And(ps) => Pred::And(ps.iter().map(|q| extract_pred(q, params)).collect()),
        Pred::Or(ps) => Pred::Or(ps.iter().map(|q| extract_pred(q, params)).collect()),
        Pred::Not(q) => Pred::Not(Box::new(extract_pred(q, params))),
    }
}

fn extract_expr(e: &Expr, params: &mut Vec<Expr>) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(c.clone()),
        Expr::Int(_) | Expr::Double(_) | Expr::Date(_) => {
            let name = format!("p{}", params.len());
            params.push(e.clone());
            Expr::Column(name)
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(extract_expr(lhs, params)),
            rhs: Box::new(extract_expr(rhs, params)),
        },
    }
}

fn subst_pred(p: &Pred, params: &[Expr]) -> Pred {
    match p {
        Pred::Lit(b) => Pred::Lit(*b),
        Pred::Cmp { op, lhs, rhs } => Pred::Cmp {
            op: *op,
            lhs: subst_expr(lhs, params),
            rhs: subst_expr(rhs, params),
        },
        Pred::And(ps) => Pred::And(ps.iter().map(|q| subst_pred(q, params)).collect()),
        Pred::Or(ps) => Pred::Or(ps.iter().map(|q| subst_pred(q, params)).collect()),
        Pred::Not(q) => Pred::Not(Box::new(subst_pred(q, params))),
    }
}

fn subst_expr(e: &Expr, params: &[Expr]) -> Expr {
    match e {
        Expr::Column(c) => c
            .strip_prefix('p')
            .and_then(|s| s.parse::<usize>().ok())
            .and_then(|i| params.get(i))
            .cloned()
            .unwrap_or_else(|| e.clone()),
        Expr::Int(_) | Expr::Double(_) | Expr::Date(_) => e.clone(),
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(subst_expr(lhs, params)),
            rhs: Box::new(subst_expr(rhs, params)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    fn canon_str(s: &str) -> Canonical {
        canonicalize(&parse_predicate(s).unwrap())
    }

    #[test]
    fn alpha_renaming_shares_a_key() {
        let a = canon_str("x < 10 AND y > 20");
        let b = canon_str("u < 10 AND v > 20");
        assert_eq!(a.key_fragment(), b.key_fragment());
        assert_eq!(a.template, b.template);
    }

    #[test]
    fn conjunct_order_is_normalized() {
        let a = canon_str("x < 10 AND y > 20");
        let b = canon_str("y > 20 AND x < 10");
        assert_eq!(a.key_fragment(), b.key_fragment());
    }

    #[test]
    fn different_constants_differ_in_key_but_share_template() {
        let a = canon_str("x < 10");
        let b = canon_str("x < 99");
        assert_eq!(a.template, b.template);
        assert_ne!(a.key_fragment(), b.key_fragment());
    }

    #[test]
    fn typed_keys_differ_by_column_type_only() {
        let facts = |real: bool| {
            move |c: &str| ColumnFacts {
                real: real && c == "p",
                date: false,
                nullable: false,
            }
        };
        let int = canon_str("2 * p <= 5 * r AND r <= 3").typed(facts(false));
        let double = canon_str("2 * p <= 5 * r AND r <= 3").typed(facts(true));
        let renamed = canon_str("2 * x <= 5 * y AND y <= 3").typed(facts(false));
        assert_ne!(int.key_fragment(), double.key_fragment());
        assert_eq!(int.key_fragment(), renamed.key_fragment());
        assert!(int
            .key_fragment()
            .starts_with(&canon_str("2 * p <= 5 * r AND r <= 3").key_fragment()));
    }

    #[test]
    fn rename_sorts_by_length_then_lex() {
        let c = canon_str("bb < 1 AND a < 2 AND ab < 3");
        let names: Vec<&str> = c.rename.iter().map(|(o, _)| o.as_str()).collect();
        assert_eq!(names, ["a", "ab", "bb"]);
        assert_eq!(c.canonical_col("a"), Some("c0"));
        assert_eq!(c.canonical_col("bb"), Some("c2"));
    }

    #[test]
    fn reconstruct_round_trips_into_original_space() {
        let p = parse_predicate("x + 1 < y AND y <= 5").unwrap();
        let c = canonicalize(&p);
        let back = c.to_original_space(&c.reconstruct());
        // Same conjuncts, possibly reordered.
        let mut want: Vec<String> = p.conjuncts().iter().map(ToString::to_string).collect();
        let mut got: Vec<String> = back.conjuncts().iter().map(ToString::to_string).collect();
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let c1 = canon_str("z - 1 < w AND (a > 3 OR w >= 9) AND z <> 0");
        let c2 = canonicalize(&c1.reconstruct());
        assert_eq!(c1.template, c2.template);
        assert_eq!(c1.params, c2.params);
        assert!(c2.rename.iter().all(|(o, n)| o == n));
    }

    #[test]
    fn dates_and_doubles_are_parameters() {
        let c = canon_str("d < DATE '1995-01-01' AND x < 2.5");
        assert_eq!(c.params.len(), 2);
        assert!(c.key_fragment().contains("1995-01-01"));
    }
}
