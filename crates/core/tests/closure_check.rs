//! Solver cross-check for the closure engine: every atom `sia-analyze`
//! derives from a conjunction must be *provably* implied by it — checked
//! with the exact `verify_implies` pipeline, not just on sampled tuples.

use sia_analyze::Analyzer;
use sia_core::{verify_implies, PredEncoder, Validity};
use sia_expr::{col, lit, CmpOp, Pred};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};

const COLS: [&str; 4] = ["a", "b", "c", "d"];

fn rand_atom(g: &mut StdRng) -> Pred {
    let var = |g: &mut StdRng| col(COLS[g.gen_range(0usize..COLS.len())]);
    let op = match g.gen_range(0u32..5) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    };
    match g.gen_range(0u32..4) {
        0 => var(g).eq_(var(g)),
        1 => var(g).cmp(op, lit(g.gen_range(-8i64..=8))),
        2 => var(g).sub(var(g)).cmp(op, lit(g.gen_range(-8i64..=8))),
        _ => var(g)
            .mul(lit(g.gen_range(2i64..=3)))
            .cmp(op, lit(g.gen_range(-8i64..=8))),
    }
}

#[test]
fn closure_atoms_are_solver_valid() {
    let mut g = StdRng::seed_from_u64(0xC105_C4EC);
    let an = Analyzer::new();
    let mut derived_total = 0usize;
    for _ in 0..60 {
        let n = g.gen_range(2usize..=4);
        let p = Pred::and_all((0..n).map(|_| rand_atom(&mut g)));
        let cl = an.close(&p);
        // An unsatisfiable input implies anything; skip those so every
        // remaining verdict is informative.
        if cl.contradictory() {
            continue;
        }
        for atom in &cl.derived {
            derived_total += 1;
            let mut enc = PredEncoder::new();
            assert_eq!(
                verify_implies(&mut enc, &p, atom).expect("encodable"),
                Validity::Valid,
                "closure derived `{atom}` from `{p}` but the solver refutes it"
            );
        }
        // The per-scope entailed predicate passes the same bar.
        for keep in [&["a"][..], &["a", "b"][..]] {
            let keep: Vec<String> = keep.iter().map(|s| s.to_string()).collect();
            let e = cl.entailed_over(&an, &keep);
            if e.is_true() {
                continue;
            }
            let mut enc = PredEncoder::new();
            assert_eq!(
                verify_implies(&mut enc, &p, &e).expect("encodable"),
                Validity::Valid,
                "entailed_over({keep:?}) of `{p}` gave `{e}` which the solver refutes"
            );
        }
    }
    assert!(
        derived_total > 30,
        "closure derived too little to test ({derived_total})"
    );
}

#[test]
fn snippet_chain_bounds_are_solver_valid() {
    // The paper's motivating chain: equalities carry the bound on id4 to
    // every other key, and each derived bound is solver-checked.
    let an = Analyzer::new();
    let p = col("id1")
        .eq_(col("id2"))
        .and(col("id3").eq_(col("id4")))
        .and(col("id1").eq_(col("id3")))
        .and(col("id4").gt(lit(2020)));
    let cl = an.close(&p);
    for key in ["id1", "id2", "id3"] {
        let e = cl.entailed_over(&an, &[key.to_string()]);
        assert!(!e.is_true(), "nothing entailed for {key}");
        let mut enc = PredEncoder::new();
        assert_eq!(
            verify_implies(&mut enc, &p, &e).expect("encodable"),
            Validity::Valid,
            "derived `{e}` for {key} is not valid"
        );
    }
}
