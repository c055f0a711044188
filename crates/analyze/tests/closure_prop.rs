//! Property-based checks for the predicate closure engine: everything the
//! closure derives must be implied by its input (checked against a
//! concrete Kleene evaluator on random tuples), column substitution under
//! an equality must preserve three-valued results, and closing a closed
//! conjunction must be a no-op.

use std::collections::{BTreeMap, BTreeSet};

use sia_analyze::Analyzer;
use sia_expr::{col, lit, ArithOp, CmpOp, Expr, Pred};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};

const COLS: [&str; 4] = ["a", "b", "c", "n"];
const NULLABLE: &str = "n";

/// A random atom from the fragments the closure engine works over:
/// unary bounds, unit differences, constant-scaled comparisons, and
/// column equalities that feed the union-find.
fn rand_atom(g: &mut StdRng) -> Pred {
    let var = |g: &mut StdRng| col(COLS[g.gen_range(0usize..COLS.len())]);
    let op = match g.gen_range(0u32..5) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    };
    match g.gen_range(0u32..5) {
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

fn rand_tuple(g: &mut StdRng) -> BTreeMap<String, Option<i128>> {
    COLS.iter()
        .map(|&c| {
            let v = if c == NULLABLE && g.gen_range(0u32..3) == 0 {
                None
            } else {
                Some(i128::from(g.gen_range(-10i64..=10)))
            };
            (c.to_string(), v)
        })
        .collect()
}

fn eval_expr(e: &Expr, t: &BTreeMap<String, Option<i128>>) -> Option<i128> {
    match e {
        Expr::Column(c) => *t.get(c).expect("known column"),
        Expr::Int(v) => Some(i128::from(*v)),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_expr(lhs, t)?;
            let r = eval_expr(rhs, t)?;
            match op {
                ArithOp::Add => Some(l + r),
                ArithOp::Sub => Some(l - r),
                ArithOp::Mul => Some(l * r),
                ArithOp::Div => panic!("generator is division-free"),
            }
        }
        other => panic!("generator never emits {other:?}"),
    }
}

fn eval_pred(p: &Pred, t: &BTreeMap<String, Option<i128>>) -> Option<bool> {
    match p {
        Pred::Lit(b) => Some(*b),
        Pred::Cmp { op, lhs, rhs } => {
            let l = eval_expr(lhs, t)?;
            let r = eval_expr(rhs, t)?;
            Some(match op {
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
            })
        }
        Pred::And(ps) => {
            let vs: Vec<Option<bool>> = ps.iter().map(|q| eval_pred(q, t)).collect();
            if vs.contains(&Some(false)) {
                Some(false)
            } else if vs.iter().any(Option::is_none) {
                None
            } else {
                Some(true)
            }
        }
        Pred::Or(ps) => {
            let vs: Vec<Option<bool>> = ps.iter().map(|q| eval_pred(q, t)).collect();
            if vs.contains(&Some(true)) {
                Some(true)
            } else if vs.iter().any(Option::is_none) {
                None
            } else {
                Some(false)
            }
        }
        Pred::Not(q) => eval_pred(q, t).map(|b| !b),
    }
}

fn analyzer() -> Analyzer {
    Analyzer::new().with_nullable([NULLABLE])
}

#[test]
fn closure_is_implied_by_its_input() {
    let mut g = StdRng::seed_from_u64(0xC105_0001);
    let an = analyzer();
    let mut true_hits = 0usize;
    for _ in 0..400 {
        let p = rand_conjunction(&mut g);
        let cl = an.close(&p);
        for _ in 0..24 {
            let tuple = rand_tuple(&mut g);
            if eval_pred(&p, &tuple) != Some(true) {
                continue;
            }
            true_hits += 1;
            // Every atom the closure carries — input and derived — must
            // be TRUE whenever the input conjunction is TRUE.
            for atom in cl.atoms.iter().chain(&cl.derived) {
                assert_eq!(
                    eval_pred(atom, &tuple),
                    Some(true),
                    "closure of `{p}` carries `{atom}` which is not TRUE on {tuple:?}"
                );
            }
            // So must the strongest entailed predicate over any scope.
            for keep in [&["a"][..], &["a", "b"][..], &["b", "c", "n"][..]] {
                let keep: Vec<String> = keep.iter().map(|s| s.to_string()).collect();
                let e = cl.entailed_over(&an, &keep);
                assert_eq!(
                    eval_pred(&e, &tuple),
                    Some(true),
                    "entailed_over({keep:?}) of `{p}` yields `{e}`, not TRUE on {tuple:?}"
                );
            }
            // A contradiction verdict forbids any TRUE tuple.
            assert!(
                !cl.contradictory(),
                "`{p}` declared contradictory but {tuple:?} satisfies it"
            );
        }
    }
    // Random conjunctions must actually produce satisfying tuples or the
    // test is vacuous.
    assert!(true_hits > 100, "too few TRUE tuples ({true_hits})");
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
            let v = Some(i128::from(g.gen_range(-10i64..=10)));
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
