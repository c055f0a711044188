//! The syntax-driven baseline of §2 and §6.3: the transitive-closure
//! transformation.
//!
//! This is the state of the art Sia is compared against in Table 2. It is
//! *syntactic*: it only fires when conjuncts are unit-coefficient
//! difference constraints, which is exactly why it misses the
//! arithmetic-heavy predicates the benchmark generates.

use sia_analyze::{Bound, Zone};
use sia_expr::{CmpOp, LinAtom, LinExpr, NonLinearPolicy, Pred};
use sia_num::BigRat;

/// Transitive-closure inference: derive difference/bound predicates over
/// `cols` implied by chains of unit-coefficient comparisons in `p`'s
/// conjuncts (Ioannidis & Ramakrishnan, VLDB 1988 style).
///
/// Returns the conjunction of *newly derived* constraints whose columns
/// all lie in `cols`, or `None` when nothing new is derivable or the
/// chains contradict each other. Only conjuncts of the syntactic shapes
/// `x ⋖ y + c`, `x ⋖ c` participate — matching the baseline's documented
/// weakness. The chains are closed in a rational [`Zone`] (no integer
/// tightening: the rule is syntactic, not arithmetic).
pub fn transitive_closure(p: &Pred, cols: &[String]) -> Option<Pred> {
    let bounds: Vec<_> = p
        .conjuncts()
        .into_iter()
        .filter_map(|conj| match conj {
            Pred::Cmp { op, lhs, rhs } => {
                LinAtom::from_cmp(*op, lhs, rhs, NonLinearPolicy::Reject).ok()
            }
            _ => None,
        })
        .flat_map(|atom| difference_form(&atom))
        .collect();
    // Columns in discovery order; matrix index 0 is the zero variable.
    let mut vars: Vec<String> = Vec::new();
    for c in bounds
        .iter()
        .flat_map(|(pos, neg, ..)| [pos, neg])
        .flatten()
    {
        if !vars.contains(c) {
            vars.push(c.clone());
        }
    }
    let at = |c: &Option<String>| {
        c.as_ref().map_or(0, |c| {
            1 + vars.iter().position(|v| v == c).expect("discovered")
        })
    };
    let original: Vec<(usize, usize, Bound)> = bounds
        .into_iter()
        .map(|(pos, neg, value, strict)| (at(&pos), at(&neg), Bound { value, strict }))
        .collect();
    let mut zone = Zone::top(vars, &|_| false);
    for (u, v, b) in &original {
        zone.constrain(*u, *v, b.clone());
    }
    if !zone.close() {
        return None;
    }
    // Emit the closed bounds whose columns are all in `cols`, skipping
    // ones no tighter than a conjunct on the same pair.
    let in_target = |i: usize| i == 0 || cols.contains(&zone.vars()[i - 1]);
    let derived: Vec<Pred> = zone
        .constraints()
        .into_iter()
        .filter(|(u, v, b)| {
            in_target(*u) && in_target(*v) && !original.contains(&(*u, *v, b.clone()))
        })
        .map(|(u, v, b)| {
            // u - v ⋖ w  as a predicate.
            let mut expr = LinExpr::constant(-b.value);
            if u != 0 {
                expr = expr.add(&LinExpr::column(zone.vars()[u - 1].clone()));
            }
            if v != 0 {
                expr = expr.sub(&LinExpr::column(zone.vars()[v - 1].clone()));
            }
            let op = if b.strict { CmpOp::Lt } else { CmpOp::Le };
            LinAtom { op, expr }.to_pred()
        })
        .collect();
    if derived.is_empty() {
        None
    } else {
        Some(Pred::and_all(derived))
    }
}

/// Decompose an atom into difference-bound form if it has the syntactic
/// shape the classic transitive-closure transformation handles: a bare
/// column-to-column comparison `x ⋖ y` (no constant offset — `x - y < 20`
/// is an *arithmetic* predicate the rule cannot see through, which is the
/// very weakness §2 illustrates), or a single-column bound `x ⋖ c`.
/// Equalities produce both directions; the `>`-family is normalized
/// first.
fn difference_form(atom: &LinAtom) -> Vec<(Option<String>, Option<String>, BigRat, bool)> {
    let (op, expr) = (atom.op, &atom.expr);
    // Normalize op direction to <, ≤, or = by flipping the expression.
    let (expr, op) = match op {
        CmpOp::Gt => (expr.scale(&-BigRat::one()), CmpOp::Lt),
        CmpOp::Ge => (expr.scale(&-BigRat::one()), CmpOp::Le),
        other => (expr.clone(), other),
    };
    let terms: Vec<(String, BigRat)> = expr
        .terms()
        .map(|(c, k)| (c.to_string(), k.clone()))
        .collect();
    let unit = |k: &BigRat| k.abs() == BigRat::one();
    let (pos, neg) = match terms.len() {
        1 if unit(&terms[0].1) => {
            if terms[0].1.is_positive() {
                (Some(terms[0].0.clone()), None)
            } else {
                (None, Some(terms[0].0.clone()))
            }
        }
        2 if unit(&terms[0].1)
            && unit(&terms[1].1)
            && terms[0].1.signum() != terms[1].1.signum() =>
        {
            if terms[0].1.is_positive() {
                (Some(terms[0].0.clone()), Some(terms[1].0.clone()))
            } else {
                (Some(terms[1].0.clone()), Some(terms[0].0.clone()))
            }
        }
        _ => return Vec::new(),
    };
    let w = -expr.constant_term().clone();
    // Two-column comparisons participate only without a constant offset.
    if pos.is_some() && neg.is_some() && !w.is_zero() {
        return Vec::new();
    }
    match op {
        CmpOp::Lt => vec![(pos, neg, w, true)],
        CmpOp::Le => vec![(pos, neg, w, false)],
        CmpOp::Eq => vec![
            (pos.clone(), neg.clone(), w.clone(), false),
            (neg, pos, -w, false),
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    fn strs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn classic_transitive_closure() {
        // y1 > x && x > y2  →  y1 > y2 (the §2 example).
        let p = parse_predicate("y1 > x AND x > y2").unwrap();
        let out = transitive_closure(&p, &strs(&["y1", "y2"])).unwrap();
        assert_eq!(out.to_string(), "y2 - y1 < 0");
    }

    #[test]
    fn chains_through_constants() {
        // a < b AND b < 3  →  a < 3 (column-to-column link, constant sink).
        let p = parse_predicate("a < b AND b < 3").unwrap();
        let out = transitive_closure(&p, &strs(&["a"])).unwrap();
        assert_eq!(out.to_string(), "a < 3");
        // …but an arithmetic offset breaks the chain (the §2 weakness).
        let q = parse_predicate("a < b + 5 AND b < 3").unwrap();
        assert!(transitive_closure(&q, &strs(&["a"])).is_none());
    }

    #[test]
    fn motivating_example_defeats_tc() {
        // The §3.2 predicate has a 3-variable term; TC derives nothing
        // over {a1, a2} beyond… nothing (no unit difference chain links
        // a1 to a2).
        let p = parse_predicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0").unwrap();
        // Every term carries arithmetic, so the syntax-driven rule derives
        // nothing at all — exactly the paper's point in §2.
        assert!(transitive_closure(&p, &strs(&["a1", "a2"])).is_none());
    }

    #[test]
    fn equality_chains() {
        // a = b AND b <= 7 → a <= 7.
        let p = parse_predicate("a = b AND b <= 7").unwrap();
        let out = transitive_closure(&p, &strs(&["a"])).unwrap();
        assert!(out.to_string().contains("a <= 7"), "{out}");
    }

    #[test]
    fn nothing_derivable() {
        let p = parse_predicate("a + b < 10").unwrap(); // same-sign coeffs
        assert!(transitive_closure(&p, &strs(&["a"])).is_none());
        let q = parse_predicate("2 * a < b").unwrap(); // non-unit
        assert!(transitive_closure(&q, &strs(&["a"])).is_none());
    }

    #[test]
    fn derived_constraints_are_implied() {
        use sia_expr::{eval_pred, Value};
        use std::collections::HashMap;
        let p = parse_predicate("a < b AND b < c AND c <= 4").unwrap();
        let out = transitive_closure(&p, &strs(&["a", "b"])).unwrap();
        for a in -6i64..6 {
            for b in -6i64..6 {
                for cv in -6i64..6 {
                    let m: HashMap<String, Value> = [
                        ("a".to_string(), Value::Int(a)),
                        ("b".to_string(), Value::Int(b)),
                        ("c".to_string(), Value::Int(cv)),
                    ]
                    .into_iter()
                    .collect();
                    if eval_pred(&p, &m) == Some(true) {
                        assert_eq!(eval_pred(&out, &m), Some(true), "at ({a},{b},{cv})");
                    }
                }
            }
        }
    }

    #[test]
    fn pins_rendering_on_section_6_3_conjunctions() {
        // Date-column chains of the §6.3 workload's shape. Each case pins
        // the exact derived conjunction; a bound equal to an original
        // conjunct on the same pair is not re-emitted.
        let cases = [
            (
                "o_orderdate < l_shipdate AND l_shipdate <= l_commitdate \
                 AND o_orderdate >= DATE '1995-03-15'",
                &["l_shipdate", "l_commitdate"][..],
                "0 - l_shipdate < -9204 AND 0 - l_commitdate < -9204",
            ),
            (
                "l_shipdate = o_orderdate AND o_orderdate < DATE '1996-01-01' \
                 AND l_receiptdate > o_orderdate",
                &["l_shipdate", "l_receiptdate"][..],
                "l_shipdate < 9496 AND l_shipdate - l_receiptdate < 0",
            ),
            (
                "o_orderdate <= l_commitdate AND l_commitdate < l_receiptdate \
                 AND o_orderdate > DATE '1994-06-30' AND l_receiptdate <= DATE '1994-12-31'",
                &["l_commitdate", "l_receiptdate"][..],
                "0 - l_commitdate < -8946 AND 0 - l_receiptdate < -8946 \
                 AND l_commitdate < 9130 AND l_receiptdate - l_commitdate < 184",
            ),
        ];
        for (pred, cols, want) in cases {
            let p = parse_predicate(pred).unwrap();
            let out = transitive_closure(&p, &strs(cols)).expect(pred);
            assert_eq!(out.to_string(), want, "{pred}");
        }
        // A contradictory chain closes to an empty zone: nothing to emit.
        let p = parse_predicate(
            "o_orderdate < l_shipdate AND l_shipdate < l_commitdate \
             AND l_commitdate <= o_orderdate",
        )
        .unwrap();
        assert!(transitive_closure(&p, &strs(&["l_shipdate", "l_commitdate"])).is_none());
    }
}
