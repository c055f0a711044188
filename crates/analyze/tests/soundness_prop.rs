//! Property-based soundness: on random division-free predicates and
//! random tuples, the abstract three-valued evaluation must
//! over-approximate the concrete Kleene evaluator — every outcome a
//! concrete tuple exhibits must be in the abstract outcome set, and the
//! classifier verdicts (`statically_unsat` / `statically_true` /
//! `implies`) must never contradict a witness tuple.
//!
//! The generator sticks to integer columns and `+`/`-`/`*` arithmetic:
//! that is exactly the fragment where the analyzer's exact-rational
//! semantics and a naive integer evaluator agree (division differs — the
//! engine truncates, the solver is exact — so it is excluded by design).

use std::collections::BTreeMap;

use sia_analyze::{Analyzer, Bound, Zone};
use sia_expr::{col, lit, ArithOp, CmpOp, Expr, Pred};
use sia_num::BigRat;
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};

/// Column pool; `n` is the one nullable column.
const COLS: [&str; 4] = ["a", "b", "c", "n"];
const NULLABLE: &str = "n";

fn rand_expr(g: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || g.gen_range(0u32..4) == 0 {
        return if g.gen_bool_fair() {
            col(COLS[g.gen_range(0usize..COLS.len())])
        } else {
            lit(g.gen_range(-8i64..=8))
        };
    }
    let lhs = rand_expr(g, depth - 1);
    let rhs = rand_expr(g, depth - 1);
    match g.gen_range(0u32..4) {
        0 => lhs.add(rhs),
        1 => lhs.sub(rhs),
        // Keep most products linear (constant × expr); the occasional
        // expr × expr exercises the opaque-composite path.
        2 => lhs.mul(lit(g.gen_range(-3i64..=3))),
        _ => lhs.mul(rhs),
    }
}

fn rand_pred(g: &mut StdRng, depth: usize) -> Pred {
    if depth == 0 || g.gen_range(0u32..3) == 0 {
        if g.gen_range(0u32..12) == 0 {
            return Pred::Lit(g.gen_bool_fair());
        }
        let op = match g.gen_range(0u32..6) {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Gt,
            3 => CmpOp::Ge,
            4 => CmpOp::Eq,
            _ => CmpOp::Ne,
        };
        return rand_expr(g, 2).cmp(op, rand_expr(g, 2));
    }
    match g.gen_range(0u32..3) {
        0 => rand_pred(g, depth - 1).and(rand_pred(g, depth - 1)),
        1 => rand_pred(g, depth - 1).or(rand_pred(g, depth - 1)),
        _ => rand_pred(g, depth - 1).not(),
    }
}

/// A random tuple: every column gets a small integer; the nullable
/// column is NULL about a third of the time.
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

/// Concrete expression evaluation; NULL propagates.
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

/// Concrete three-valued (Kleene) predicate evaluation.
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
fn abstract_eval_over_approximates_concrete() {
    let mut g = StdRng::seed_from_u64(0x500B_D001);
    let an = analyzer();
    for _ in 0..400 {
        let p = rand_pred(&mut g, 3);
        let t = an.tri(&p);
        let unsat = an.statically_unsat(&p);
        let taut = an.statically_true(&p);
        for _ in 0..16 {
            let tuple = rand_tuple(&mut g);
            match eval_pred(&p, &tuple) {
                Some(true) => {
                    assert!(t.can_true, "`{p}` is TRUE on {tuple:?} but tri = {t:?}");
                    assert!(!unsat, "`{p}` is TRUE on {tuple:?} but claimed unsat");
                }
                Some(false) => {
                    assert!(t.can_false, "`{p}` is FALSE on {tuple:?} but tri = {t:?}");
                }
                None => {
                    assert!(t.can_null, "`{p}` is NULL on {tuple:?} but tri = {t:?}");
                }
            }
            if taut {
                assert_eq!(
                    eval_pred(&p, &tuple),
                    Some(true),
                    "`{p}` claimed a tautology but isn't on {tuple:?}"
                );
            }
        }
    }
}

#[test]
fn implication_oracle_is_sound() {
    let mut g = StdRng::seed_from_u64(0x500B_D002);
    let an = analyzer();
    let mut proved = 0usize;
    for _ in 0..400 {
        let p = rand_pred(&mut g, 2);
        let q = rand_pred(&mut g, 2);
        if !an.implies(&p, &q) {
            continue;
        }
        proved += 1;
        for _ in 0..32 {
            let tuple = rand_tuple(&mut g);
            if eval_pred(&p, &tuple) == Some(true) {
                assert_eq!(
                    eval_pred(&q, &tuple),
                    Some(true),
                    "oracle claims `{p}` implies `{q}` but tuple {tuple:?} disagrees"
                );
            }
        }
    }
    // The oracle must actually fire on random pairs, or the test is
    // vacuous (`q OR anything` style pairs show up often enough).
    assert!(proved > 0, "implication oracle never proved anything");
}

/// Random DBM over `names`, all integer-sorted, with small constants.
fn rand_zone(g: &mut StdRng, names: &[&str]) -> Zone {
    let mut z = Zone::top(names.iter().map(|s| s.to_string()).collect(), &|_| true);
    let d = names.len() + 1;
    for _ in 0..g.gen_range(2usize..=6) {
        let i = g.gen_range(0usize..d);
        let j = g.gen_range(0usize..d);
        if i == j {
            continue;
        }
        let v = BigRat::from(g.gen_range(-8i64..=8));
        let b = if g.gen_bool_fair() {
            Bound::closed(v)
        } else {
            Bound::strict(v)
        };
        z.constrain(i, j, b);
    }
    z
}

/// Concrete satisfaction of every finite constraint of `z` by an integer
/// point (the zero variable is 0).
fn zone_sat(z: &Zone, vals: &BTreeMap<String, i64>) -> bool {
    z.constraints().iter().all(|(i, j, b)| {
        let at = |k: usize| if k == 0 { 0 } else { vals[&z.vars()[k - 1]] };
        let d = BigRat::from(at(*i) - at(*j));
        d < b.value || (!b.strict && d == b.value)
    })
}

fn rand_point(g: &mut StdRng, names: &[&str], range: i64) -> BTreeMap<String, i64> {
    names
        .iter()
        .map(|&n| (n.to_string(), g.gen_range(-range..=range)))
        .collect()
}

#[test]
fn zone_closure_idempotent_and_sound() {
    let mut g = StdRng::seed_from_u64(0x500B_D004);
    let names = ["a", "b", "o"];
    for _ in 0..300 {
        let z0 = rand_zone(&mut g, &names);
        let mut z = z0.clone();
        if !z.close() {
            // Claimed inconsistent: no grid point may satisfy the original
            // constraints (constants are ≤ 8, so witnesses of satisfiable
            // systems live well inside ±12 — any hit here is a real bug).
            for a in -12..=12 {
                for b in -12..=12 {
                    for o in -12..=12 {
                        let vals: BTreeMap<String, i64> = [
                            ("a".to_string(), a),
                            ("b".to_string(), b),
                            ("o".to_string(), o),
                        ]
                        .into();
                        assert!(
                            !zone_sat(&z0, &vals),
                            "zone declared empty but {vals:?} satisfies it"
                        );
                    }
                }
            }
            continue;
        }
        // Idempotence: a second closure is a no-op.
        let snap = z.clone();
        assert!(z.close());
        assert_eq!(z, snap, "closure is not idempotent");
        // Soundness: closure only adds *entailed* constraints.
        for _ in 0..32 {
            let vals = rand_point(&mut g, &names, 12);
            if zone_sat(&z0, &vals) {
                assert!(
                    zone_sat(&snap, &vals),
                    "closure invented a constraint: {vals:?} satisfies the \
                     original zone but not its closure"
                );
            }
        }
    }
}

/// Conjunctions of random unary-bound / unit-difference atoms over
/// `a`, `b`, `o` — the zone-representable predicate fragment.
fn rand_zone_atom(g: &mut StdRng) -> Pred {
    const ZVARS: [&str; 3] = ["a", "b", "o"];
    let op = match g.gen_range(0u32..5) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    };
    let c = lit(g.gen_range(-8i64..=8));
    let x = col(ZVARS[g.gen_range(0usize..3)]);
    if g.gen_bool_fair() {
        x.cmp(op, c)
    } else {
        let y = col(ZVARS[g.gen_range(0usize..3)]);
        x.sub(y).cmp(op, c)
    }
}

#[test]
fn zone_projection_sound_and_exact() {
    let mut g = StdRng::seed_from_u64(0x500B_D006);
    let an = Analyzer::new();
    let keep: Vec<String> = vec!["a".into(), "b".into()];
    let mut exact_seen = 0usize;
    for _ in 0..250 {
        let n = g.gen_range(2usize..=5);
        let p = Pred::and_all((0..n).map(|_| rand_zone_atom(&mut g)));
        let Some(d) = an.derive(&p, &keep) else {
            continue;
        };
        // Soundness: every tuple making `p` TRUE makes the derived
        // predicate TRUE (it only mentions kept columns).
        for _ in 0..24 {
            let mut tuple: BTreeMap<String, Option<i128>> =
                rand_point(&mut g, &["a", "b", "o"], 12)
                    .into_iter()
                    .map(|(k, v)| (k, Some(i128::from(v))))
                    .collect();
            tuple.insert("c".into(), Some(0));
            tuple.insert("n".into(), Some(0));
            if eval_pred(&p, &tuple) == Some(true) {
                assert_eq!(
                    eval_pred(d.pred(), &tuple),
                    Some(true),
                    "derivation of `{p}` to `{}` lost TRUE tuple {tuple:?}",
                    d.pred()
                );
            }
        }
        // Exactness: when the derivation claims projection-equivalence,
        // every (a, b) satisfying it must extend to a witness for `p`.
        // Constants are ≤ 8 and conjunctions have ≤ 5 atoms, so closure
        // bounds stay within ±40 and any witness fits well inside ±64.
        if d.is_exact() && !d.pred().is_false() {
            exact_seen += 1;
            for _ in 0..12 {
                let mut tuple: BTreeMap<String, Option<i128>> = rand_point(&mut g, &["a", "b"], 12)
                    .into_iter()
                    .map(|(k, v)| (k, Some(i128::from(v))))
                    .collect();
                tuple.insert("o".into(), Some(0));
                tuple.insert("c".into(), Some(0));
                tuple.insert("n".into(), Some(0));
                if eval_pred(d.pred(), &tuple) != Some(true) {
                    continue;
                }
                let witnessed = (-64i128..=64).any(|o| {
                    tuple.insert("o".into(), Some(o));
                    eval_pred(&p, &tuple) == Some(true)
                });
                assert!(
                    witnessed,
                    "`{}` claims to be the exact projection of `{p}` but \
                     {tuple:?} has no o-extension satisfying p",
                    d.pred()
                );
            }
        }
    }
    assert!(exact_seen > 20, "exact derivations too rare ({exact_seen})");
}

#[test]
fn disjunct_pruning_preserves_true_tuples() {
    let mut g = StdRng::seed_from_u64(0x500B_D003);
    let an = analyzer();
    for _ in 0..300 {
        let p = rand_pred(&mut g, 3);
        let (pruned, n) = an.prune_never_true_disjuncts(&p);
        if n == 0 {
            continue;
        }
        for _ in 0..16 {
            let tuple = rand_tuple(&mut g);
            if eval_pred(&p, &tuple) == Some(true) {
                assert_eq!(
                    eval_pred(&pruned, &tuple),
                    Some(true),
                    "pruning `{p}` to `{pruned}` lost TRUE tuple {tuple:?}"
                );
            }
        }
    }
}
