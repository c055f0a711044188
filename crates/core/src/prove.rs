//! The implication ladder: the one place in `sia-core` where an
//! implication, unsatisfiability or redundancy question is decided.
//!
//! [`Prover`] walks the tiers cheapest-first and reports which one answered:
//! [`Tier::Static`] is `sia-analyze`'s oracle (itself ordered canonical-form
//! match → intervals with congruence and 3VL null-ability → zone closure),
//! sharing the encoder's column facts so it speaks about exactly the
//! formulas the solver would see; [`Tier::Smt`] is the solver on the encoded
//! refutation formula.
//!
//! Invariant: a static tier may answer only what the solver would also
//! answer. Under the `checked` feature every solver-skipping verdict is
//! re-asked of the solver (`audit`) and a disagreement aborts the process;
//! `analyze.checks` / `analyze.disagreements` make the audit visible and CI
//! gates the latter at zero.

use sia_expr::Pred;
use sia_obs::Counter;
use sia_smt::{Formula, SmtResult};

use crate::encode::{EncodeError, PredEncoder};
use crate::verify::Validity;

/// The tier of the ladder that settled a question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The static analyzer proved it; no solver call was made.
    Static,
    /// The SMT solver decided it.
    Smt,
}

/// The connective whose operands [`Prover::drop_implied`] thins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connective {
    /// Conjuncts: drop one when the others imply it.
    And,
    /// Disjuncts: drop one when it implies the others.
    Or,
}

/// Decides implication, unsatisfiability and redundancy questions over one
/// [`PredEncoder`]. A verdict is [`Validity::Valid`] when the question
/// holds, paired with the [`Tier`] that answered.
#[derive(Debug)]
pub struct Prover<'e>(pub &'e mut PredEncoder);

impl Prover<'_> {
    /// `Verify` (§5.5): does `p` imply `q` under three-valued logic, i.e.
    /// is `is_true(p) ∧ ¬is_true(q)` unsatisfiable?
    pub fn implies(&mut self, p: &Pred, q: &Pred) -> Result<(Validity, Tier), EncodeError> {
        // Encoded before any tier answers, so an unencodable predicate is
        // an error rather than a static verdict.
        let p_true = self.0.encode_is_true_3v(p)?;
        let refutation = p_true.and(self.0.encode_is_true_3v(q)?.not());
        let proven = self.0.analyzer().implies(p, q);
        let claim = || format!("`{p}` implies `{q}`");
        self.decide(Counter::AnalyzeImplied, proven, claim, |_| Ok(refutation))
    }

    /// Can `p` never evaluate TRUE (the WHERE-clause notion of emptiness)?
    pub fn unsat(&mut self, p: &Pred) -> Result<(Validity, Tier), EncodeError> {
        let proven = self.0.analyzer().statically_unsat(p);
        let claim = || format!("`{p}` is unsatisfiable");
        self.decide(Counter::AnalyzeUnsat, proven, claim, |enc| enc.encode(p))
    }

    /// Drop every operand of a conjunction (or disjunction) that the
    /// remaining ones make redundant, front to back. Two-valued reasoning:
    /// the result is equivalent to the input on non-NULL tuples, and
    /// callers re-verify under three-valued logic. An operand that cannot
    /// be encoded is kept.
    pub fn drop_implied(&mut self, mut parts: Vec<Pred>, connective: Connective) -> Vec<Pred> {
        let mut i = 0;
        while i < parts.len() && parts.len() > 1 {
            let mut rest = parts.clone();
            let part = rest.remove(i);
            let (p, q) = match connective {
                Connective::And => (Pred::and_all(rest), part),
                Connective::Or => (part, Pred::or_all(rest)),
            };
            let proven = self.0.analyzer().implies(&p, &q);
            let claim = || format!("`{p}` implies `{q}`");
            let refutation = |enc: &mut PredEncoder| Ok(enc.encode(&p)?.and(enc.encode(&q)?.not()));
            match self.decide(Counter::AnalyzeImplied, proven, claim, refutation) {
                Ok((Validity::Valid, _)) => drop(parts.remove(i)),
                _ => i += 1,
            }
        }
        parts
    }

    /// Drop the top-level disjuncts of `p` that can never evaluate TRUE;
    /// `None` when there are none. Static tier only: a solver call per
    /// disjunct would cost more than the elimination work pruning saves.
    pub fn prune_dead_disjuncts(&mut self, p: &Pred) -> Option<Pred> {
        let (live, pruned) = self.0.analyzer().prune_never_true_disjuncts(p);
        if pruned == 0 {
            return None;
        }
        let claim = || format!("pruning `{p}` to `{live}` keeps its models");
        let lost =
            |enc: &mut PredEncoder| Some(enc.encode(p).ok()?.and(enc.encode(&live).ok()?.not()));
        audit(self.0, Counter::AnalyzeDisjunctsPruned, pruned, claim, lost);
        Some(live)
    }

    /// The ladder. `proven` is the static tier's answer; `refutation`
    /// builds the formula whose models are exactly the counter-examples,
    /// and runs only when the solver is asked.
    fn decide(
        &mut self,
        counter: Counter,
        proven: bool,
        claim: impl FnOnce() -> String,
        refutation: impl FnOnce(&mut PredEncoder) -> Result<Formula, EncodeError>,
    ) -> Result<(Validity, Tier), EncodeError> {
        if proven {
            audit(self.0, counter, 1, claim, |enc| refutation(enc).ok());
            return Ok((Validity::Valid, Tier::Static));
        }
        sia_obs::add(Counter::AnalyzeFallbacks, 1);
        let f = refutation(self.0)?;
        let validity = match self.0.solver().check(&f) {
            SmtResult::Unsat => Validity::Valid,
            SmtResult::Sat(_) => Validity::Invalid,
            SmtResult::Unknown => Validity::Unknown,
        };
        Ok((validity, Tier::Smt))
    }
}

/// Record `count` solver-skipping verdicts and, under `checked`, cross-check
/// them: a model of `refutation` is a soundness violation, worded by
/// `claim`. No formula (encoding or QE budget failure) and `Unknown` are not
/// refutations — the analyzer may know more than a budget-limited solver.
pub(crate) fn audit(
    enc: &mut PredEncoder,
    counter: Counter,
    count: usize,
    claim: impl FnOnce() -> String,
    refutation: impl FnOnce(&mut PredEncoder) -> Option<Formula>,
) {
    sia_obs::add(counter, count as u64);
    if cfg!(feature = "checked") {
        sia_obs::add(Counter::AnalyzeChecks, 1);
        let model = refutation(enc).map(|f| enc.solver().check(&f));
        if matches!(model, Some(SmtResult::Sat(_))) {
            sia_obs::add(Counter::AnalyzeDisagreements, 1);
            panic!("sia-analyze soundness violation: claimed {}", claim());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    #[test]
    fn drop_implied_table() {
        use crate::verify::{remove_redundant_conjuncts, remove_redundant_disjuncts};
        use Connective::{And, Or};
        let cases = [
            (
                And,
                "a < 5 AND a < 10 AND a < 7 AND b > 0",
                "a < 5 AND b > 0",
            ),
            (And, "a < 5 AND b > 0", "a < 5 AND b > 0"),
            (And, "a < 5", "a < 5"),
            // Beyond the analyzer: only the solver sees that the first two
            // conjuncts bound a + b.
            (And, "a < 5 AND b < 5 AND a + b < 100", "a < 5 AND b < 5"),
            (Or, "a < 5 OR a < 10", "a < 10"),
            (Or, "a < 5 OR a > 10", "a < 5 OR a > 10"),
            (Or, "a < 5", "a < 5"),
        ];
        for (connective, input, expect) in cases {
            let mut enc = PredEncoder::new();
            let p = parse_predicate(input).unwrap();
            let out = match connective {
                And => remove_redundant_conjuncts(&mut enc, &p),
                Or => remove_redundant_disjuncts(&mut enc, &p),
            };
            assert_eq!(out.to_string(), expect, "{connective:?} over `{input}`");
        }
    }

    #[test]
    fn reports_the_answering_tier() {
        let mut enc = PredEncoder::new();
        let mut prover = Prover(&mut enc);
        let pred = |s: &str| parse_predicate(s).unwrap();
        // Interval-shaped: settled without the solver.
        let verdict = prover.implies(&pred("a > 20 AND b < 5"), &pred("a > 10"));
        assert_eq!(verdict, Ok((Validity::Valid, Tier::Static)));
        // §3.2: a1 - a2 <= 28 follows only by combining all three
        // conjuncts, one of them outside the zone fragment.
        let p = pred("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0");
        let verdict = prover.implies(&p, &pred("a1 - a2 <= 28"));
        assert_eq!(verdict, Ok((Validity::Valid, Tier::Smt)));
        let verdict = prover.implies(&p, &pred("a1 - a2 <= 20"));
        assert_eq!(verdict, Ok((Validity::Invalid, Tier::Smt)));
        // Unsatisfiability walks the same ladder.
        let verdict = prover.unsat(&pred("a > 0 AND a < 1"));
        assert_eq!(verdict, Ok((Validity::Valid, Tier::Static)));
        assert_eq!(prover.unsat(&p), Ok((Validity::Invalid, Tier::Smt)));
    }
}
