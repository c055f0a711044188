//! A tour of the from-scratch SMT solver that powers Sia: satisfiability,
//! models, integer reasoning, and Cooper quantifier elimination.
//!
//! ```sh
//! cargo run --example solver_tour
//! ```

use sia::num::BigRat;
use sia::smt::{eliminate_exists, Formula, LinTerm, QeConfig, SmtResult, Solver, Sort};

fn main() {
    // The solver's counts go to the metrics collector, printed at the end.
    sia::obs::enable();
    let mut solver = Solver::new();
    let x = solver.declare("x", Sort::Int);
    let y = solver.declare("y", Sort::Int);

    let tx = LinTerm::var(x);
    let ty = LinTerm::var(y);
    let c = |v: i64| LinTerm::constant(BigRat::from(v));

    // 1. Satisfiability with models: x + y = 10 ∧ x - y = 4.
    let f = Formula::eq0(tx.add(&ty).sub(&c(10))).and(Formula::eq0(tx.sub(&ty).sub(&c(4))));
    match solver.check(&f) {
        SmtResult::Sat(m) => {
            println!(
                "x + y = 10 ∧ x - y = 4  ⇒  x = {}, y = {}",
                m.int(x),
                m.int(y)
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    // 2. Integer reasoning: 0 < x < 1 has no integer solution.
    let gap = Formula::lt0(c(0).sub(&tx)).and(Formula::lt0(tx.sub(&c(1))));
    println!("0 < x < 1 over ℤ: {:?}", verdict(solver.check(&gap)));

    // 3. Divisibility: x ≡ 0 (mod 7) with 13 ≤ x ≤ 15 forces x = 14.
    let div = Formula::divides(7i64.into(), tx.clone())
        .and(Formula::le0(c(13).sub(&tx)))
        .and(Formula::le0(tx.sub(&c(15))));
    if let SmtResult::Sat(m) = solver.check(&div) {
        println!("7 | x ∧ 13 ≤ x ≤ 15  ⇒  x = {}", m.int(x));
    }

    // 4. Quantifier elimination (the engine behind Sia's FALSE samples):
    //    ∃x. 2x = y  ⇔  2 | y.
    let even = Formula::eq0(tx.scale(&BigRat::from(2)).sub(&ty));
    let qe = eliminate_exists(&even, &[x], &QeConfig::default()).expect("within budget");
    println!("∃x. 2x = y  ⇒  {qe}");

    // 5. The motivating example's projection: eliminating o_orderdate from
    //    the §3.2 predicate leaves the region a1-a2 ≤ 28 ∧ a2 ≤ 18.
    let a1 = solver.declare("a1", Sort::Int);
    let a2 = solver.declare("a2", Sort::Int);
    let b1 = solver.declare("b1", Sort::Int);
    let (t1, t2, tb) = (LinTerm::var(a1), LinTerm::var(a2), LinTerm::var(b1));
    let p = Formula::lt0(t2.sub(&tb).sub(&c(20)))
        .and(Formula::lt0(t1.sub(&t2).sub(&t2.sub(&tb)).sub(&c(10))))
        .and(Formula::lt0(tb.clone()));
    let projected = eliminate_exists(&p, &[b1], &QeConfig::default()).expect("within budget");
    // Spot-check two points against the known region.
    for (a1v, a2v, expect) in [(0i64, 0i64, true), (50, 0, false)] {
        let g = projected.subst(a1, &c(a1v)).subst(a2, &c(a2v));
        let truth = matches!(g, Formula::True)
            || (!matches!(g, Formula::False) && g.eval(&|_| BigRat::zero(), &|_| false));
        println!("∃b1.p at (a1={a1v}, a2={a2v}): {truth} (expected {expect})");
        assert_eq!(truth, expect);
    }
    println!("\nsolver metrics:\n{}", sia::obs::summary());
}

fn verdict(r: SmtResult) -> &'static str {
    match r {
        SmtResult::Sat(_) => "sat",
        SmtResult::Unsat => "unsat",
        SmtResult::Unknown => "unknown",
    }
}
