//! Linearization: normalizing arithmetic expressions into
//! `Σ coeffᵢ·colᵢ + c` form over exact rationals.
//!
//! This is the bridge between the SQL AST and both the SMT solver and the
//! learner: atoms handed to the solver are linear, and learned hyperplanes come
//! back as linear forms that must be rendered as SQL again.
//!
//! Non-linear column products/quotients are folded into *composite columns*
//! (§5.2): `a * b` becomes the single opaque column `"a*b"`. The caller
//! (`sia-core`) is responsible for checking the paper's side condition that
//! the constituent columns do not occur elsewhere in the predicate.
//!
//! Integer division truncates (`sia_expr::eval` and the engine agree), so a
//! quotient by a constant is not the rational `e · (1/k)`: it folds into
//! one opaque term, and nothing is proved about `e` through it.

use crate::expr::{ArithOp, CmpOp, Expr, Pred};
use crate::types::Value;
use sia_num::{BigInt, BigRat, LinForm};
use std::fmt;

/// Error for expressions outside linear arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonLinear(pub String);

impl fmt::Display for NonLinear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "non-linear expression: {}", self.0)
    }
}

impl std::error::Error for NonLinear {}

/// A linear form `Σ coeffᵢ·colᵢ + constant` over columns: the
/// workspace's one linear form, keyed by column name.
pub type LinExpr = LinForm<String>;

/// How to treat products/quotients of columns during linearization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonLinearPolicy {
    /// Reject with [`NonLinear`].
    #[default]
    Reject,
    /// Fold `col OP col` into a composite column named `"lhs OP rhs"`
    /// (§5.2); only *syntactically pure* column-only operands fold. A
    /// quotient by a constant, `e / k`, folds into the opaque term
    /// `"(e / k)"` whatever `e` is.
    FoldComposite,
}

/// Linearize an arithmetic expression.
pub fn linearize(e: &Expr, policy: NonLinearPolicy) -> Result<LinExpr, NonLinear> {
    match e {
        Expr::Column(c) => Ok(LinExpr::var(c.clone())),
        Expr::Int(v) => Ok(LinExpr::constant(BigRat::from(*v))),
        Expr::Date(d) => Ok(LinExpr::constant(BigRat::from(d.to_days()))),
        Expr::Double(v) => BigRat::from_f64(*v)
            .map(LinExpr::constant)
            .ok_or_else(|| NonLinear(format!("non-finite double {v}"))),
        Expr::Binary { op, lhs, rhs } => {
            let l = linearize(lhs, policy)?;
            let r = linearize(rhs, policy)?;
            match op {
                ArithOp::Add => Ok(l.add(&r)),
                ArithOp::Sub => Ok(l.sub(&r)),
                ArithOp::Mul => {
                    if l.is_constant() {
                        Ok(r.scale(l.constant_term()))
                    } else if r.is_constant() {
                        Ok(l.scale(r.constant_term()))
                    } else if policy == NonLinearPolicy::FoldComposite {
                        fold_composite(op, lhs, rhs)
                    } else {
                        Err(NonLinear(e.to_string()))
                    }
                }
                ArithOp::Div => {
                    if r.is_constant() && r.constant_term().is_zero() {
                        Err(NonLinear(format!("division by zero in {e}")))
                    } else if e.columns().is_empty() {
                        // Column-free: computed as the executor computes it.
                        match crate::eval::eval_expr(e, &|_: &str| Value::Null) {
                            Value::Int(v) => linearize(&Expr::Int(v), policy),
                            Value::Double(v) => linearize(&Expr::Double(v), policy),
                            _ => Err(NonLinear(format!("division by zero in {e}"))),
                        }
                    } else if policy == NonLinearPolicy::Reject {
                        Err(NonLinear(e.to_string()))
                    } else if r.is_constant() {
                        // Integer division truncates, so `e / k` is not
                        // `e · (1/k)`: keep the quotient one opaque term.
                        Ok(LinExpr::var(format!("({e})")))
                    } else {
                        fold_composite(op, lhs, rhs)
                    }
                }
            }
        }
    }
}

/// Whether a column of a linear form is an opaque quotient `(e / k)`
/// rather than a table column or a `col OP col` composite.
pub fn is_quotient_term(name: &str) -> bool {
    name.starts_with('(')
}

fn fold_composite(op: &ArithOp, lhs: &Expr, rhs: &Expr) -> Result<LinExpr, NonLinear> {
    match (lhs, rhs) {
        (Expr::Column(a), Expr::Column(b)) => Ok(LinExpr::var(format!("{a}{op}{b}"))),
        _ => Err(NonLinear(format!("{lhs} {op} {rhs}"))),
    }
}

/// A normalized linear atom: `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinAtom {
    /// The comparison against zero.
    pub op: CmpOp,
    /// The linear form compared with zero.
    pub expr: LinExpr,
}

impl LinAtom {
    /// Normalize `lhs op rhs` into `lhs - rhs op 0`.
    pub fn from_cmp(
        op: CmpOp,
        lhs: &Expr,
        rhs: &Expr,
        policy: NonLinearPolicy,
    ) -> Result<LinAtom, NonLinear> {
        let l = linearize(lhs, policy)?;
        let r = linearize(rhs, policy)?;
        Ok(LinAtom {
            op,
            expr: l.sub(&r),
        })
    }

    /// Render back to a predicate AST (`linexpr ⋈ 0`, constant moved to the
    /// right-hand side for readability: `Σ terms ⋈ -constant`).
    ///
    /// Rational coefficients are cleared first (multiplying by a positive
    /// constant preserves the comparison). Cleared parts outside the `i64`
    /// range saturate instead of panicking: a learned plane with
    /// astronomically large weights renders to a *wrong* atom rather than
    /// killing the worker, and the downstream verification step rejects
    /// wrong candidates anyway.
    pub fn to_pred(&self) -> Pred {
        let scaled = self.expr.clear_denominators();
        let rhs = -scaled.constant_term();
        let lhs = scaled.add(&LinExpr::constant(rhs.clone()));
        to_expr(&lhs).cmp(self.op, Expr::int(sat_i64(rhs.numer())))
    }

    /// [`LinAtom::to_pred`] when no part needs saturating: `None` when a
    /// cleared coefficient or the constant lies outside the `i64` range
    /// (or is `i64::MIN`, whose magnitude no `i64` writes).
    pub fn to_pred_exact(&self) -> Option<Pred> {
        let scaled = self.expr.clear_denominators();
        let fits = |k: &BigRat| k.numer().to_i64().is_some_and(|v| v != i64::MIN);
        let exact = scaled.iter().all(|(_, k)| fits(k)) && fits(scaled.constant_term());
        exact.then(|| self.to_pred())
    }
}

/// Render a form with integer parts as an [`Expr`] AST, leading with a
/// positive term when one exists, so `y2 - y1` renders instead of
/// `0 - y1 + y2`.
fn to_expr(form: &LinExpr) -> Expr {
    let mut acc: Option<Expr> = None;
    let mut ordered: Vec<(&String, &BigRat)> = form.iter().collect();
    ordered.sort_by_key(|(_, k)| k.is_negative());
    for (c, k) in ordered {
        let k = sat_i64(k.numer());
        let term = match k {
            1 => Expr::col(c.clone()),
            -1 => Expr::col(c.clone()),
            _ => Expr::int(k.abs()).mul(Expr::col(c.clone())),
        };
        acc = Some(match acc {
            None => {
                if k < 0 {
                    Expr::int(0).sub(term)
                } else {
                    term
                }
            }
            Some(a) => {
                if k < 0 {
                    a.sub(term)
                } else {
                    a.add(term)
                }
            }
        });
    }
    let c = sat_i64(form.constant_term().numer());
    match acc {
        None => Expr::int(c),
        Some(a) if c == 0 => a,
        Some(a) if c < 0 => a.sub(Expr::int(-c)),
        Some(a) => a.add(Expr::int(c)),
    }
}

/// Saturating `BigInt` → `i64` for AST rendering. `i64::MIN` itself is
/// excluded so callers can negate or take `abs()` without overflow.
fn sat_i64(n: &BigInt) -> i64 {
    match n.to_i64() {
        Some(v) if v != i64::MIN => v,
        _ if n.is_negative() => i64::MIN + 1,
        _ => i64::MAX,
    }
}

impl fmt::Display for LinAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} 0", self.expr, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn q(n: i64, d: i64) -> BigRat {
        BigRat::new(BigInt::from(n), BigInt::from(d))
    }

    #[test]
    fn linearize_basics() {
        let e = col("a").add(lit(10));
        let l = linearize(&e, NonLinearPolicy::Reject).unwrap();
        assert_eq!(l.coeff("a"), BigRat::one());
        assert_eq!(l.constant_term(), &BigRat::from(10));
    }

    #[test]
    fn linearize_cancellation() {
        // a - a + 5  →  5
        let e = col("a").sub(col("a")).add(lit(5));
        let l = linearize(&e, NonLinearPolicy::Reject).unwrap();
        assert!(l.is_constant());
        assert_eq!(l.constant_term(), &BigRat::from(5));
    }

    #[test]
    fn linearize_scaling() {
        // 3 * (a + 2) - a  →  2a + 6
        let e = lit(3).mul(col("a").add(lit(2))).sub(col("a"));
        let l = linearize(&e, NonLinearPolicy::Reject).unwrap();
        assert_eq!(l.coeff("a"), BigRat::from(2));
        assert_eq!(l.constant_term(), &BigRat::from(6));
    }

    #[test]
    fn linearize_division_by_constant() {
        // a / 2 truncates: one opaque term, never (1/2)a.
        let e = col("a").add(lit(1)).div(lit(-2));
        assert!(linearize(&e, NonLinearPolicy::Reject).is_err());
        let l = linearize(&e, NonLinearPolicy::FoldComposite).unwrap();
        assert_eq!(l.keys().collect::<Vec<_>>(), ["((a + 1) / -2)"]);
        assert!(l.keys().all(|c| is_quotient_term(c)));
        // Column-free quotients are computed as the executor computes them.
        let seven = |d: Expr| linearize(&d.div(lit(2)), NonLinearPolicy::Reject).unwrap();
        assert_eq!(seven(lit(7)).constant_term(), &BigRat::from(3));
        assert_eq!(seven(Expr::Double(7.0)).constant_term(), &q(7, 2));
        for policy in [NonLinearPolicy::Reject, NonLinearPolicy::FoldComposite] {
            assert!(linearize(&col("a").div(lit(0)), policy).is_err());
            assert!(linearize(&lit(1).div(lit(0)), policy).is_err());
        }
    }

    #[test]
    fn nonlinear_rejected_or_folded() {
        let e = col("a").mul(col("b"));
        assert!(linearize(&e, NonLinearPolicy::Reject).is_err());
        let l = linearize(&e, NonLinearPolicy::FoldComposite).unwrap();
        assert_eq!(l.keys().collect::<Vec<_>>(), ["a*b"]);
        let d = col("a").div(col("b"));
        let l2 = linearize(&d, NonLinearPolicy::FoldComposite).unwrap();
        assert_eq!(l2.keys().collect::<Vec<_>>(), ["a/b"]);
        // compound non-linear operand still rejected
        let bad = col("a").add(lit(1)).mul(col("b"));
        assert!(linearize(&bad, NonLinearPolicy::FoldComposite).is_err());
    }

    #[test]
    fn date_literals_become_day_constants() {
        let e = col("d").sub(Expr::date("1970-01-11"));
        let l = linearize(&e, NonLinearPolicy::Reject).unwrap();
        assert_eq!(l.constant_term(), &BigRat::from(-10));
    }

    #[test]
    fn atom_normalization() {
        // a + 10 > b + 20  →  a - b - 10 > 0
        let a = LinAtom::from_cmp(
            CmpOp::Gt,
            &col("a").add(lit(10)),
            &col("b").add(lit(20)),
            NonLinearPolicy::Reject,
        )
        .unwrap();
        assert_eq!(a.expr.coeff("a"), BigRat::one());
        assert_eq!(a.expr.coeff("b"), -BigRat::one());
        assert_eq!(a.expr.constant_term(), &BigRat::from(-10));
    }

    #[test]
    fn clear_denominators() {
        let l = LinExpr::from_parts(
            vec![("a".to_string(), q(1, 2)), ("b".to_string(), q(1, 3))],
            q(1, 6),
        );
        let scaled = l.clear_denominators();
        assert_eq!(scaled.coeff("a"), BigRat::from(3));
        assert_eq!(scaled.coeff("b"), BigRat::from(2));
        assert_eq!(scaled.constant_term(), &BigRat::one());
    }

    #[test]
    fn to_expr_roundtrip_via_eval() {
        let l = LinExpr::from_parts(
            vec![
                ("a".to_string(), BigRat::from(2)),
                ("b".to_string(), BigRat::from(-1)),
            ],
            BigRat::from(7),
        );
        let e = to_expr(&l);
        assert_eq!(e.to_string(), "2 * a - b + 7");
        let back = linearize(&e, NonLinearPolicy::Reject).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn to_expr_edge_cases() {
        assert_eq!(to_expr(&LinExpr::zero()).to_string(), "0");
        assert_eq!(
            to_expr(&LinExpr::constant(BigRat::from(-3))).to_string(),
            "-3"
        );
        let neg_first =
            LinExpr::from_parts(vec![("a".to_string(), BigRat::from(-1))], BigRat::zero());
        assert_eq!(to_expr(&neg_first).to_string(), "0 - a");
    }

    #[test]
    fn atom_to_pred() {
        let a = LinAtom {
            op: CmpOp::Gt,
            expr: LinExpr::from_parts(
                vec![
                    ("a1".to_string(), BigRat::from(2)),
                    ("a2".to_string(), BigRat::one()),
                ],
                BigRat::from(50),
            ),
        };
        // 2*a1 + a2 + 50 > 0  →  "2 * a1 + a2 > -50"
        assert_eq!(a.to_pred().to_string(), "2 * a1 + a2 > -50");
    }

    #[test]
    fn oversized_constants_saturate_instead_of_panicking() {
        // A learned plane can carry constants far outside i64 (seen in
        // soak runs); rendering must clamp, not panic — the wrong atom
        // is caught by downstream verification.
        let huge = BigRat::from_int(BigInt::from(i64::MAX) * &BigInt::from(16));
        let a = LinAtom {
            op: CmpOp::Ge,
            expr: LinExpr::from_parts(vec![("a".to_string(), BigRat::one())], -huge.clone()),
        };
        assert_eq!(a.to_pred().to_string(), format!("a >= {}", i64::MAX));
        let b = LinAtom {
            op: CmpOp::Le,
            expr: LinExpr::from_parts(vec![("a".to_string(), huge.clone())], BigRat::zero()),
        };
        // The coefficient clamps too; the sign survives.
        assert_eq!(b.to_pred().to_string(), format!("{} * a <= 0", i64::MAX));
        let c = LinExpr::from_parts(Vec::new(), -huge);
        assert_eq!(to_expr(&c).to_string(), (i64::MIN + 1).to_string());
        // The exact rendering declines what the saturating one clamps.
        assert_eq!(a.to_pred_exact(), None);
        assert_eq!(b.to_pred_exact(), None);
        let min = LinAtom {
            op: CmpOp::Ge,
            expr: LinExpr::from_parts(
                vec![("a".to_string(), BigRat::one())],
                BigRat::from(i64::MIN),
            ),
        };
        assert_eq!(min.to_pred_exact(), None);
        let fits = LinAtom {
            op: CmpOp::Ge,
            expr: LinExpr::from_parts(
                vec![("a".to_string(), BigRat::one())],
                BigRat::from(-i64::MAX),
            ),
        };
        assert_eq!(
            fits.to_pred_exact().map(|p| p.to_string()),
            Some(format!("a >= {}", i64::MAX))
        );
    }

    #[test]
    fn display() {
        let l = LinExpr::from_parts(
            vec![
                ("a".to_string(), BigRat::from(2)),
                ("b".to_string(), BigRat::from(-3)),
            ],
            BigRat::from(-7),
        );
        assert_eq!(l.to_string(), "2*a - 3*b - 7");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::eval::eval_expr;
    use crate::expr::{col, lit, Expr};
    use crate::types::Value;
    use sia_rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Random linear expression over columns `x`/`y` with bounded depth,
    /// built from addition, subtraction, and multiplication by constants.
    fn rand_linear_expr(g: &mut sia_rand::rngs::StdRng, depth: u32) -> Expr {
        if depth == 0 || g.gen_bool(0.3) {
            return match g.gen_range(0u32..3) {
                0 => col("x"),
                1 => col("y"),
                _ => lit(g.gen_range(-30i64..30)),
            };
        }
        match g.gen_range(0u32..3) {
            0 => rand_linear_expr(g, depth - 1).add(rand_linear_expr(g, depth - 1)),
            1 => rand_linear_expr(g, depth - 1).sub(rand_linear_expr(g, depth - 1)),
            // multiplication by constants only keeps it linear
            _ => rand_linear_expr(g, depth - 1).mul(lit(g.gen_range(-5i64..5))),
        }
    }

    /// Linearization is semantics-preserving: evaluating the linear
    /// form at integer points matches the tree evaluator.
    #[test]
    fn linearize_agrees_with_eval() {
        let mut g = sia_rand::rngs::StdRng::seed_from_u64(0x11ea4);
        for _ in 0..256 {
            let e = rand_linear_expr(&mut g, 3);
            let x = g.gen_range(-9i64..9);
            let y = g.gen_range(-9i64..9);
            let lin = linearize(&e, NonLinearPolicy::Reject).unwrap();
            let from_lin = lin.eval(|c| BigRat::from(if c == "x" { x } else { y }));
            let tuple: HashMap<String, Value> = [
                ("x".to_string(), Value::Int(x)),
                ("y".to_string(), Value::Int(y)),
            ]
            .into_iter()
            .collect();
            match eval_expr(&e, &tuple) {
                Value::Int(v) => assert_eq!(from_lin, BigRat::from(v)),
                other => panic!("unexpected eval result {other:?}"),
            }
        }
    }

    /// `to_expr` round-trips through `linearize`.
    #[test]
    fn to_expr_roundtrip() {
        let mut g = sia_rand::rngs::StdRng::seed_from_u64(0x11ea5);
        for _ in 0..256 {
            let e = rand_linear_expr(&mut g, 3);
            let lin = linearize(&e, NonLinearPolicy::Reject).unwrap();
            let back = linearize(&to_expr(&lin), NonLinearPolicy::Reject).unwrap();
            assert_eq!(back, lin);
        }
    }
}
