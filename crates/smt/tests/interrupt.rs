//! Regression tests for cooperative interruption: an exhausted budget
//! must surface as `Unknown`/`Interrupted`, never as a definitive
//! verdict. An interrupted solve that reported `Unsat` would
//! poison every caller that treats `Unsat` as proof (the CEGIS
//! feasibility pre-check, the verifier, the `checked` cross-checks).

use sia_num::BigRat;
use sia_smt::sat::{Lit, SatResult, SatSolver};
use sia_smt::{Budget, Formula, LinTerm, SmtResult, Solver, Sort};
use std::time::Duration;

/// A pigeonhole CNF (`pigeons` into `pigeons - 1` holes): unsatisfiable,
/// and far beyond the solver's 512-step budget poll interval.
fn pigeonhole(sat: &mut SatSolver, pigeons: usize) -> bool {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| p * holes + h;
    for _ in 0..pigeons * holes {
        sat.new_var();
    }
    let mut ok = true;
    for p in 0..pigeons {
        ok &= sat.add_clause((0..holes).map(|h| Lit::pos(var(p, h))).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                ok &= sat.add_clause(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
            }
        }
    }
    ok
}

#[test]
fn cancelled_sat_solve_is_interrupted_not_unsat() {
    let mut sat = SatSolver::new();
    assert!(pigeonhole(&mut sat, 8), "no clause is trivially false");
    sat.budget = Budget::with_deadline(Duration::ZERO);
    assert_eq!(sat.solve(), SatResult::Interrupted);
    // The same instance with an unlimited budget really is unsat,
    // proving the interrupted verdict above withheld a real answer.
    sat.budget = Budget::unlimited();
    assert_eq!(sat.solve(), SatResult::Unsat);
}

#[test]
fn cancelled_smt_check_is_unknown_not_unsat() {
    // x >= 1 AND x <= 0: unsat, but an expired budget must say Unknown.
    let mut s = Solver::new();
    let x = s.declare("x", Sort::Int);
    let f = Formula::le0(LinTerm::constant(BigRat::from(1)).sub(&LinTerm::var(x)))
        .and(Formula::le0(LinTerm::var(x)));
    s.budget = Budget::with_deadline(Duration::ZERO);
    assert!(matches!(s.check(&f), SmtResult::Unknown));
    // And a satisfiable formula must not come back Sat either.
    let g = Formula::le0(LinTerm::var(x));
    assert!(matches!(s.check(&g), SmtResult::Unknown));
    // Restoring the budget restores the real verdicts.
    s.budget = Budget::unlimited();
    assert!(matches!(s.check(&g), SmtResult::Sat(_)));
    assert!(matches!(s.check(&f), SmtResult::Unsat));
}
