//! Property-based checks for the predicate closure engine: everything the
//! closure derives must be implied by its input (checked with
//! `sia_expr::eval_pred`, the executor's semantics — integer division
//! truncates — on random tuples and, around every truncated quotient, on
//! a boundary grid), column substitution under an equality must preserve
//! three-valued results, and closing a closed conjunction must be a no-op.

use std::collections::{BTreeSet, HashMap};

use sia_analyze::Analyzer;
use sia_expr::{col, eval_pred, lit, ArithOp, CmpOp, Expr, Pred, Value};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};

const COLS: [&str; 4] = ["a", "b", "c", "n"];
const NULLABLE: &str = "n";

type Tuple = HashMap<String, Value>;

/// A random atom from the fragments the closure engine works over:
/// unary bounds, unit differences, constant-scaled comparisons, column
/// equalities that feed the union-find, and truncated quotients.
fn rand_atom(g: &mut StdRng) -> Pred {
    let var = |g: &mut StdRng| col(COLS[g.gen_range(0usize..COLS.len())]);
    let op = match g.gen_range(0u32..5) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    };
    match g.gen_range(0u32..6) {
        // Column equality: seeds an equivalence class.
        0 => var(g).eq_(var(g)),
        // Unary bound.
        1 => var(g).cmp(op, lit(g.gen_range(-8i64..=8))),
        // Unit difference (zone fragment).
        2 => var(g).sub(var(g)).cmp(op, lit(g.gen_range(-8i64..=8))),
        // Non-unit coefficient (outside the zone fragment; still must be
        // carried soundly through substitution).
        3 => var(g)
            .mul(lit(g.gen_range(2i64..=3)))
            .cmp(op, lit(g.gen_range(-8i64..=8))),
        // Truncated quotient by k in ±2..=7.
        4 => {
            let k = g.gen_range(2i64..=7) * if g.gen_range(0u32..2) == 0 { 1 } else { -1 };
            var(g).div(lit(k)).cmp(op, lit(g.gen_range(-8i64..=8)))
        }
        // Two-sided scaled comparison.
        _ => var(g)
            .mul(lit(g.gen_range(2i64..=3)))
            .cmp(op, var(g).mul(lit(g.gen_range(2i64..=3)))),
    }
}

fn rand_conjunction(g: &mut StdRng) -> Pred {
    let n = g.gen_range(2usize..=5);
    Pred::and_all((0..n).map(|_| rand_atom(g)))
}

fn rand_tuple(g: &mut StdRng) -> Tuple {
    COLS.iter()
        .map(|&c| {
            let v = if c == NULLABLE && g.gen_range(0u32..3) == 0 {
                Value::Null
            } else {
                Value::Int(g.gen_range(-10i64..=10))
            };
            (c.to_string(), v)
        })
        .collect()
}

/// The integer constants of `p`, and the divisors it truncates by.
fn constants_and_divisors(p: &Pred, ints: &mut Vec<i64>, divisors: &mut Vec<i64>) {
    fn expr(e: &Expr, ints: &mut Vec<i64>, divisors: &mut Vec<i64>) {
        match e {
            Expr::Int(v) => ints.push(*v),
            Expr::Binary { op, lhs, rhs } => {
                if let (ArithOp::Div, Expr::Int(k)) = (op, rhs.as_ref()) {
                    divisors.push(*k);
                }
                expr(lhs, ints, divisors);
                expr(rhs, ints, divisors);
            }
            _ => {}
        }
    }
    match p {
        Pred::Cmp { lhs, rhs, .. } => {
            expr(lhs, ints, divisors);
            expr(rhs, ints, divisors);
        }
        Pred::And(ps) | Pred::Or(ps) => {
            for q in ps {
                constants_and_divisors(q, ints, divisors);
            }
        }
        Pred::Not(q) => constants_and_divisors(q, ints, divisors),
        Pred::Lit(_) => {}
    }
}

/// Where truncation bites: every integer within ±2|k| of each constant
/// of `preds` (the input and what was derived from it), for the largest
/// divisor `k` of `p`. Empty when `p` does not divide.
fn boundary_grid(p: &Pred, preds: &[&Pred]) -> BTreeSet<i64> {
    let (mut ints, mut divisors) = (Vec::new(), Vec::new());
    constants_and_divisors(p, &mut ints, &mut divisors);
    let Some(reach) = divisors.iter().map(|k| 2 * k.abs()).max() else {
        return BTreeSet::new();
    };
    for q in preds {
        constants_and_divisors(q, &mut ints, &mut Vec::new());
    }
    ints.iter()
        .flat_map(|c| (c - reach)..=(c + reach))
        .collect()
}

fn analyzer() -> Analyzer {
    Analyzer::new().with_nullable([NULLABLE])
}

#[test]
fn closure_is_implied_by_its_input() {
    let mut g = StdRng::seed_from_u64(0xC105_0001);
    let an = analyzer();
    let scopes: Vec<Vec<String>> = [&["a"][..], &["a", "b"], &["b", "c", "n"]]
        .iter()
        .map(|s| s.iter().map(|c| c.to_string()).collect())
        .collect();
    let (mut true_hits, mut grid_hits) = (0usize, 0usize);
    for _ in 0..400 {
        let p = rand_conjunction(&mut g);
        let cl = an.close(&p);
        let entailed: Vec<Pred> = scopes.iter().map(|s| cl.entailed_over(&an, s)).collect();
        let derived: Vec<&Pred> = cl
            .atoms
            .iter()
            .chain(&cl.derived)
            .chain(&entailed)
            .collect();
        let grid = boundary_grid(&p, &derived);
        for _ in 0..24 {
            let random = rand_tuple(&mut g);
            // The random tuple, then every one-column move of it onto the
            // boundary grid.
            let moved = COLS.iter().flat_map(|&c| {
                grid.iter().map(|&v| {
                    let mut t = random.clone();
                    t.insert(c.to_string(), Value::Int(v));
                    t
                })
            });
            for (i, tuple) in std::iter::once(random.clone()).chain(moved).enumerate() {
                if eval_pred(&p, &tuple) != Some(true) {
                    continue;
                }
                if i == 0 {
                    true_hits += 1;
                } else {
                    grid_hits += 1;
                }
                // Every atom the closure carries — input and derived — and
                // the strongest entailed predicate over each scope must be
                // TRUE whenever the input conjunction is TRUE.
                for atom in &derived {
                    assert_eq!(
                        eval_pred(atom, &tuple),
                        Some(true),
                        "closure of `{p}` carries `{atom}` which is not TRUE on {tuple:?}"
                    );
                }
                // A contradiction verdict forbids any TRUE tuple.
                assert!(
                    !cl.contradictory(),
                    "`{p}` declared contradictory but {tuple:?} satisfies it"
                );
            }
        }
    }
    // Random conjunctions must actually produce satisfying tuples, and
    // the grid must reach some, or the test is vacuous.
    assert!(true_hits > 100, "too few TRUE tuples ({true_hits})");
    assert!(grid_hits > 100, "too few TRUE grid tuples ({grid_hits})");
}

#[test]
fn substitution_under_equality_preserves_three_valued_results() {
    let mut g = StdRng::seed_from_u64(0xC105_0002);
    for _ in 0..600 {
        let p = rand_conjunction(&mut g);
        let from = COLS[g.gen_range(0usize..COLS.len())];
        let to = COLS[g.gen_range(0usize..COLS.len())];
        let q = p.map_columns(&|n| {
            if n == from {
                to.to_string()
            } else {
                n.to_string()
            }
        });
        for _ in 0..16 {
            let mut tuple = rand_tuple(&mut g);
            // Force the equality `from = to` to hold with both sides
            // non-NULL — the precondition substitution relies on (an
            // equality atom being TRUE pins both columns).
            let v = Value::Int(g.gen_range(-10i64..=10));
            tuple.insert(from.to_string(), v);
            tuple.insert(to.to_string(), v);
            assert_eq!(
                eval_pred(&p, &tuple),
                eval_pred(&q, &tuple),
                "substituting {from}->{to} changed `{p}` to `{q}` on {tuple:?}"
            );
        }
    }
}

#[test]
fn closure_is_idempotent() {
    let mut g = StdRng::seed_from_u64(0xC105_0003);
    let an = analyzer();
    for _ in 0..300 {
        let p = rand_conjunction(&mut g);
        let once = an.close(&p);
        let twice = an.close(&once.conjunction());
        let set =
            |atoms: &[Pred]| -> BTreeSet<String> { atoms.iter().map(|a| a.to_string()).collect() };
        assert_eq!(
            set(&once.atoms),
            set(&twice.atoms),
            "closing `{p}` twice changed the atom set"
        );
        assert!(
            twice.derived.is_empty(),
            "re-closing `{p}` derived new atoms: {:?}",
            twice.derived
        );
        // Equivalence classes are stable too.
        assert_eq!(
            once.classes.classes(),
            twice.classes.classes(),
            "equivalence classes changed on re-closure of `{p}`"
        );
    }
}

#[test]
fn answers_do_not_depend_on_what_was_asked_before() {
    // `close` builds the abstract state once and every question reads it,
    // so a closure asked in any order, any number of times, must answer
    // as a fresh closure asked that one question first.
    let mut g = StdRng::seed_from_u64(0xC105_0004);
    let an = analyzer();
    let scopes: Vec<Vec<String>> = [&["a"][..], &["n"], &["a", "b"], &["b", "c", "n"], &COLS]
        .iter()
        .map(|s| s.iter().map(|c| c.to_string()).collect())
        .collect();
    for _ in 0..300 {
        let p = rand_conjunction(&mut g);
        let alone: Vec<Pred> = scopes
            .iter()
            .map(|s| an.close(&p).entailed_over(&an, s))
            .collect();
        let verdict = an.close(&p).contradictory();
        let shared = an.close(&p);
        for round in 0..3 {
            let mut order: Vec<usize> = (0..scopes.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, g.gen_range(0usize..=i));
            }
            for &i in &order {
                if g.gen_range(0u32..2) == 0 {
                    assert_eq!(shared.contradictory(), verdict, "`{p}` round {round}");
                }
                assert_eq!(
                    shared.entailed_over(&an, &scopes[i]),
                    alone[i],
                    "entailed_over({:?}) of `{p}` changed in round {round}",
                    scopes[i]
                );
            }
        }
        assert_eq!(shared.contradictory(), verdict, "`{p}`");
    }
}
