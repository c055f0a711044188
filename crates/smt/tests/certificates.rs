//! End-to-end certificate tests: every Unsat verdict's certificate must
//! pass the independent checker, and deliberately corrupted certificates
//! (an injected soundness bug) must be rejected.

use sia_check::{check_refutation, CertifiedUnsat, CheckError, Justification, ProofStep};
use sia_num::BigRat;
use sia_rand::{Rng, SeedableRng};
use sia_smt::{Formula, LinTerm, SmtResult, Solver, Sort, VarId};

fn atom(ax: i64, ay: i64, c: i64, strict: bool, x: VarId, y: VarId) -> Formula {
    let t = LinTerm::var(x)
        .scale(&BigRat::from(ax))
        .add(&LinTerm::var(y).scale(&BigRat::from(ay)))
        .add(&LinTerm::constant(BigRat::from(c)));
    if strict {
        Formula::lt0(t)
    } else {
        Formula::le0(t)
    }
}

/// A directly contradictory conjunction certifies with a Farkas lemma.
#[test]
fn unsat_conjunction_certificate_verifies() {
    let mut s = Solver::new();
    let x = s.declare("x", Sort::Real);
    // x ≥ 2 ∧ x ≤ 1.
    let f = Formula::le0(LinTerm::constant(BigRat::from(2)).sub(&LinTerm::var(x))).and(
        Formula::le0(LinTerm::var(x).sub(&LinTerm::constant(BigRat::from(1)))),
    );
    let (result, cert) = s.check_with_certificate(&f);
    assert!(result.is_unsat());
    let cert = cert.expect("unsat verdict must carry a certificate");
    let report = check_refutation(&cert).expect("certificate must verify");
    assert!(report.inputs >= 1);
    assert!(report.derived >= 1, "must at least derive the empty clause");
    assert!(
        report.farkas_lemmas >= 1,
        "rational conflict needs a Farkas lemma"
    );
}

/// Sat verdicts carry no certificate (the model itself is the witness,
/// and it is replay-validated inside `check`).
#[test]
fn sat_verdict_has_no_certificate() {
    let mut s = Solver::new();
    let x = s.declare("x", Sort::Int);
    let f = Formula::le0(LinTerm::var(x).sub(&LinTerm::constant(BigRat::from(3))));
    let (result, cert) = s.check_with_certificate(&f);
    assert!(matches!(result, SmtResult::Sat(_)));
    assert!(cert.is_none());
}

/// Collect certificates from random unsat disjunctive formulas. These
/// exercise conflict analysis, so the logs contain nonempty learned
/// clauses and Farkas lemmas to corrupt.
fn harvest_certificates() -> Vec<CertifiedUnsat> {
    let mut g = sia_rand::rngs::StdRng::seed_from_u64(0xce47_0001);
    let mut certs = Vec::new();
    while certs.len() < 12 {
        let mut s = Solver::new();
        let x = s.declare("x", Sort::Int);
        let y = s.declare("y", Sort::Int);
        let mut f = Formula::True;
        for _ in 0..g.gen_range(2usize..5) {
            let a = atom(
                g.gen_range(-3i64..=3),
                g.gen_range(-3i64..=3),
                g.gen_range(-8i64..=8),
                g.gen_bool_fair(),
                x,
                y,
            );
            let b = atom(
                g.gen_range(-3i64..=3),
                g.gen_range(-3i64..=3),
                g.gen_range(-8i64..=8),
                g.gen_bool_fair(),
                x,
                y,
            );
            f = f.and(a.or(b));
        }
        let (result, cert) = s.check_with_certificate(&f);
        if let Some(cert) = cert {
            assert!(result.is_unsat());
            check_refutation(&cert).expect("fresh certificate must verify");
            certs.push(cert);
        }
    }
    certs
}

/// The injected soundness bug: flip one literal of a learned clause. The
/// independent checker must reject the tampered certificate.
#[test]
fn flipped_learned_literal_is_caught() {
    let mut tampered_total = 0usize;
    let mut rejected = 0usize;
    let mut saw_not_rup = false;
    for cert in harvest_certificates() {
        let Some(pos) = cert
            .steps
            .iter()
            .position(|s| matches!(s, ProofStep::Derived(c) if !c.is_empty()))
        else {
            continue;
        };
        let mut bad = cert.clone();
        if let ProofStep::Derived(c) = &mut bad.steps[pos] {
            c[0] = -c[0];
        }
        tampered_total += 1;
        if let Err(e) = check_refutation(&bad) {
            rejected += 1;
            if matches!(e, CheckError::NotRup { .. }) {
                saw_not_rup = true;
            }
        }
    }
    assert!(
        tampered_total >= 1,
        "no certificate had a nonempty learned clause"
    );
    assert_eq!(
        rejected, tampered_total,
        "a tampered certificate slipped past the checker"
    );
    assert!(saw_not_rup, "expected at least one NotRup rejection");
}

/// Corrupting a Farkas multiplier (sign flip or zero) must be rejected.
#[test]
fn corrupted_farkas_multiplier_is_caught() {
    let mut tampered_total = 0usize;
    for cert in harvest_certificates() {
        let Some(pos) = cert
            .steps
            .iter()
            .position(|s| matches!(s, ProofStep::Lemma(_, Justification::Farkas(_))))
        else {
            continue;
        };
        for corrupt in [true, false] {
            let mut bad = cert.clone();
            if let ProofStep::Lemma(_, Justification::Farkas(fc)) = &mut bad.steps[pos] {
                if corrupt {
                    fc.terms[0].1 = -fc.terms[0].1.clone();
                } else {
                    fc.terms[0].1 = BigRat::zero();
                }
            }
            tampered_total += 1;
            assert!(
                check_refutation(&bad).is_err(),
                "corrupted multiplier accepted"
            );
        }
    }
    assert!(tampered_total >= 1, "no certificate had a Farkas lemma");
}

/// Removing an atom-table entry referenced by a Farkas certificate must
/// be rejected as an unknown atom.
#[test]
fn missing_atom_entry_is_caught() {
    let mut tampered_total = 0usize;
    for cert in harvest_certificates() {
        let Some(lit) = cert.steps.iter().find_map(|s| match s {
            ProofStep::Lemma(_, Justification::Farkas(fc)) => Some(fc.terms[0].0),
            _ => None,
        }) else {
            continue;
        };
        let mut bad = cert.clone();
        bad.atoms.entries.remove(&lit);
        tampered_total += 1;
        assert!(
            matches!(check_refutation(&bad), Err(CheckError::UnknownAtom { .. })),
            "missing atom entry accepted"
        );
    }
    assert!(tampered_total >= 1, "no certificate had a Farkas lemma");
}

/// With the collector on, every certified `Unsat` verdict flows into the
/// `check.*` metrics: certificates verified, RUP steps replayed, Farkas
/// multipliers validated.
#[cfg(feature = "checked")]
#[test]
fn checked_solving_emits_check_metrics() {
    use sia_obs::Counter as C;
    let mut s = Solver::new();
    let x = s.declare("x", Sort::Real);
    // x ≥ 2 ∧ x ≤ 1 — a rational conflict, so a Farkas lemma is certain.
    let f = Formula::le0(LinTerm::constant(BigRat::from(2)).sub(&LinTerm::var(x))).and(
        Formula::le0(LinTerm::var(x).sub(&LinTerm::constant(BigRat::from(1)))),
    );
    sia_obs::enable();
    assert!(s.check(&f).is_unsat());
    sia_obs::disable();
    let snap = sia_obs::snapshot();
    assert!(
        snap.counter(C::CheckCertificates) >= 1,
        "no certificate counted"
    );
    assert!(snap.counter(C::CheckRupSteps) >= 1, "no RUP steps counted");
    assert!(
        snap.counter(C::CheckFarkasLemmas) >= 1,
        "no Farkas lemma counted"
    );
    assert!(
        snap.span("check.verify").is_some() || snap.span("smt.check/check.verify").is_some(),
        "certificate verification span missing"
    );
}
