//! The SMT solver: lazy DPLL(T) over the CDCL SAT core and the simplex
//! theory solver, with integer branch-and-bound for `Int`-sorted variables
//! and preprocessing of divisibility constraints.
//!
//! The loop is the classic lazy scheme: the SAT solver proposes a boolean
//! assignment of the atom skeleton, the theory checks the implied
//! conjunction of bounds, and each theory conflict comes back as a
//! blocking clause (theory lemma) built from the simplex explanation.

use crate::formula::Formula;
use crate::sat::{dimacs, Lit, SatResult, SatSolver};
use crate::simplex::{Conflict, Expl, QDelta, Simplex};
use crate::term::{LinTerm, Rel};
use crate::var::{Sort, VarId, VarTable};
use sia_check::{AtomTable, CertifiedUnsat, FarkasCertificate, Justification, LinearIneq};
use sia_num::{BigInt, BigRat};
use std::borrow::Cow;
use std::collections::HashMap;

/// Result of an SMT `check`.
#[derive(Debug, Clone)]
pub enum SmtResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Resource budget exhausted before a verdict.
    Unknown,
}

impl SmtResult {
    /// True iff `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// True iff `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// The model, if `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SmtResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// A satisfying assignment.
#[derive(Debug, Clone, Default)]
pub struct Model {
    arith: HashMap<VarId, BigRat>,
    bools: HashMap<VarId, bool>,
}

impl Model {
    /// Rational value of an arithmetic variable (0 if unconstrained).
    pub fn rat(&self, v: VarId) -> BigRat {
        self.arith.get(&v).cloned().unwrap_or_else(BigRat::zero)
    }

    /// Integer value of an `Int` variable.
    ///
    /// # Panics
    /// Panics if the model value is not integral (cannot happen for
    /// variables declared `Int`).
    pub fn int(&self, v: VarId) -> BigInt {
        let r = self.rat(v);
        assert!(r.is_integer(), "model value of {v} is not integral: {r}");
        r.numer().clone()
    }

    /// Boolean value of a `Bool` variable (false if unconstrained).
    pub fn boolean(&self, v: VarId) -> bool {
        self.bools.get(&v).copied().unwrap_or(false)
    }

    /// Evaluate a formula under this model.
    pub fn eval(&self, f: &Formula) -> bool {
        f.eval(&|v| self.rat(v), &|v| self.boolean(v))
    }
}

/// Maximum lazy DPLL(T) rounds before `Unknown`. Formulas from query
/// predicates solve in tens of lazy rounds; thousands signal a
/// pathological (Cooper-blowup) region that callers handle by degrading
/// to CEGQI — so fail fast.
const MAX_ROUNDS: u64 = 4_000;

/// Maximum branch-and-bound nodes per theory check before `Unknown`.
const MAX_BB_NODES: u64 = 5_000;

/// The SMT solver façade: declare variables, then [`Solver::check`]
/// formulas over them. Each `check` is self-contained (no assertion
/// stack); callers conjoin what they need.
#[derive(Debug, Default)]
pub struct Solver {
    vars: VarTable,
    /// The deadline. Copied into the CDCL and simplex cores on every
    /// [`Solver::check`], which return `Unknown` promptly once it is
    /// exhausted. Unlimited by default.
    pub budget: crate::Budget,
}

impl Solver {
    /// Fresh solver.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Declare a variable.
    pub fn declare(&mut self, name: impl Into<String>, sort: Sort) -> VarId {
        self.vars.declare(name, sort)
    }

    /// The variable table (names, sorts).
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Decide satisfiability of `f` and produce a model if satisfiable.
    ///
    /// Every `Sat` verdict is validated by replaying the model through the
    /// formula evaluator before it is returned. Under the `checked` cargo
    /// feature, every `Unsat` verdict additionally carries a certificate
    /// that is verified by the independent `sia-check` crate; a rejected
    /// certificate panics rather than returning an unsound verdict.
    ///
    /// Before it searches, a check tries the bounds presolve, which can
    /// only answer `Unsat` (`smt.presolved` counts how often it does).
    #[cfg(not(feature = "checked"))]
    pub fn check(&mut self, f: &Formula) -> SmtResult {
        let _span = sia_obs::span("smt.check");
        if self.presolve(f) {
            sia_obs::add(sia_obs::Counter::SmtChecks, 1);
            return SmtResult::Unsat;
        }
        let mut ctx = CheckCtx::new(&self.vars, false, self.budget);
        let result = ctx.run(f);
        record_check_metrics(&ctx);
        result
    }

    /// Decide satisfiability of `f`, self-verifying every verdict (the
    /// `checked` build): `Sat` models replay through the evaluator, and
    /// `Unsat` certificates must pass [`sia_check::check_refutation`].
    /// The certified search runs even on a formula the bounds presolve
    /// refutes, and a model of it panics; its `Unknown` is inconclusive,
    /// so the presolved `Unsat` stands, as in the default build.
    #[cfg(feature = "checked")]
    pub fn check(&mut self, f: &Formula) -> SmtResult {
        let presolved = self.presolve(f);
        let (result, cert) = self.check_with_certificate(f);
        if let Some(cert) = cert {
            let _span = sia_obs::span("check.verify");
            match sia_check::check_refutation(&cert) {
                Ok(report) => {
                    use sia_obs::Counter as C;
                    sia_obs::add(C::CheckCertificates, 1);
                    sia_obs::add(C::CheckRupSteps, report.derived as u64);
                    sia_obs::add(C::CheckFarkasLemmas, report.farkas_lemmas as u64);
                    sia_obs::add(C::CheckBranchLemmas, report.branch_lemmas as u64);
                }
                Err(e) => panic!("unsound Unsat verdict: certificate rejected: {e}"),
            }
        }
        if presolved {
            assert!(
                !result.is_sat(),
                "unsound bounds presolve: the search found a model of {f}"
            );
            return SmtResult::Unsat;
        }
        result
    }

    /// Whether the bounds presolve refutes `f`, counted in `smt.presolved`.
    /// It does not run once the budget is exhausted, so such a check still
    /// answers `Unknown`.
    fn presolve(&self, f: &Formula) -> bool {
        let refuted = !self.budget.is_exhausted() && refuted_by_bounds(f);
        if refuted {
            sia_obs::add(sia_obs::Counter::SmtPresolved, 1);
        }
        refuted
    }

    /// Like `check`, but when the verdict is `Unsat` also return the
    /// certificate (atom table plus clause-proof log) for independent
    /// verification with [`sia_check::check_refutation`].
    pub fn check_with_certificate(&mut self, f: &Formula) -> (SmtResult, Option<CertifiedUnsat>) {
        let _span = sia_obs::span("smt.check");
        let mut ctx = CheckCtx::new(&self.vars, true, self.budget);
        let result = ctx.run(f);
        record_check_metrics(&ctx);
        let cert = result.is_unsat().then(|| ctx.into_certificate());
        (result, cert)
    }
}

/// Flush one check's solver counters into the observability collector.
///
/// The CDCL and simplex hot loops keep plain local counters (`SatStats`,
/// `Simplex::pivots`, …); batching the flush here — once per `check`
/// rather than per decision/propagation/pivot — is what keeps the no-op
/// instrumentation overhead inside the <3% budget.
fn record_check_metrics(ctx: &CheckCtx<'_>) {
    if !sia_obs::enabled() {
        return;
    }
    use sia_obs::Counter as C;
    let sat = &ctx.sat.stats;
    sia_obs::add(C::SmtChecks, 1);
    sia_obs::add(C::SatDecisions, sat.decisions);
    sia_obs::add(C::SatConflicts, sat.conflicts);
    sia_obs::add(C::SatPropagations, sat.propagations);
    sia_obs::add(C::SatRestarts, sat.restarts);
    sia_obs::add(C::SimplexPivots, ctx.simplex.pivots);
    sia_obs::add(C::SimplexTightenings, ctx.simplex.tightenings);
    sia_obs::add(C::SmtRounds, ctx.rounds);
    sia_obs::add(C::SmtTheoryLemmas, ctx.lemmas);
    sia_obs::add(C::SmtBbNodes, ctx.bb_nodes);
}

/// One end of an interval: `value`, excluded when `strict`.
struct End {
    value: BigRat,
    strict: bool,
}

impl End {
    /// Whether `self` is a tighter upper end than `other` (`upper`), or a
    /// tighter lower end (`!upper`).
    fn tighter(&self, other: &End, upper: bool) -> bool {
        match self.value.cmp(&other.value) {
            std::cmp::Ordering::Equal => self.strict && !other.strict,
            ord => (ord == std::cmp::Ordering::Less) == upper,
        }
    }
}

/// The interval hull of each variable bounded by a top-level one-variable
/// atom: `(variable, lower end, upper end)`.
type Hull = Vec<(VarId, Option<End>, Option<End>)>;

/// The bounds presolve: true when `f` is unsatisfiable over the reals by
/// its own variable bounds alone. The hull of each variable comes from the
/// one-variable atoms of `f`'s top-level conjunction, so every model of `f`
/// lies in it; `f` is refuted when two bounds on one variable cross, or
/// when `f` reads false in Kleene three-valued logic over the hull (an
/// atom is false when its term's range over the hull lies wholly on the
/// wrong side of zero; divisibility and boolean literals are unknown).
/// It only ever answers "refuted", so a check it decides returns what the
/// search would have, and one it does not decide runs the search.
fn refuted_by_bounds(f: &Formula) -> bool {
    let mut hull = Hull::new();
    collect_hull(f, &mut hull);
    if hull.is_empty() {
        return false;
    }
    let crossed = hull.iter().any(|(_, lo, hi)| match (lo, hi) {
        (Some(lo), Some(hi)) => {
            lo.value > hi.value || (lo.value == hi.value && (lo.strict || hi.strict))
        }
        _ => false,
    });
    crossed || kleene(f, &hull) == Some(false)
}

/// Narrow `hull` by each one-variable atom of `f`'s top-level conjunction.
fn collect_hull(f: &Formula, hull: &mut Hull) {
    match f {
        Formula::And(fs) => fs.iter().for_each(|g| collect_hull(g, hull)),
        Formula::Atom(a) if a.term.num_vars() == 1 => {
            // c·v + k ⋈ 0  ⇔  v ⋈ -k/c, flipped when c < 0.
            let (v, c) = a.term.iter().next().expect("one variable");
            let end = End {
                value: -(a.term.constant_term() / c),
                strict: a.rel == Rel::Lt,
            };
            let upper = c.is_positive();
            let slot = match hull.iter().position(|(w, ..)| w == v) {
                Some(i) => &mut hull[i],
                None => {
                    hull.push((*v, None, None));
                    hull.last_mut().expect("just pushed")
                }
            };
            let side = if upper { &mut slot.2 } else { &mut slot.1 };
            if side.as_ref().is_none_or(|old| end.tighter(old, upper)) {
                *side = Some(end);
            }
        }
        _ => {}
    }
}

/// The greatest (`upper`) or least value of `t` over the hull, with
/// whether it is excluded; `None` when `t` is unbounded that way.
fn term_extreme(t: &LinTerm, hull: &Hull, upper: bool) -> Option<End> {
    let mut acc = End {
        value: t.constant_term().clone(),
        strict: false,
    };
    for (v, c) in t.iter() {
        let (_, lo, hi) = hull.iter().find(|(w, ..)| w == v)?;
        let end = if c.is_positive() == upper { hi } else { lo };
        let end = end.as_ref()?;
        acc.value += &(c * &end.value);
        acc.strict |= end.strict;
    }
    Some(acc)
}

/// `f`'s truth value over every point of the hull: `Some(b)` when all of
/// them agree, `None` when they may not.
fn kleene(f: &Formula, hull: &Hull) -> Option<bool> {
    match f {
        Formula::True => Some(true),
        Formula::False => Some(false),
        Formula::Atom(a) => {
            let lt = a.rel == Rel::Lt;
            // t ≤ 0 fails where t > 0 everywhere, t < 0 where t ≥ 0.
            let min = term_extreme(&a.term, hull, false);
            if min.is_some_and(|m| m.value.is_positive() || (m.value.is_zero() && (lt || m.strict)))
            {
                return Some(false);
            }
            let max = term_extreme(&a.term, hull, true);
            if max
                .is_some_and(|m| m.value.is_negative() || (m.value.is_zero() && (!lt || m.strict)))
            {
                return Some(true);
            }
            None
        }
        Formula::Divides(..) | Formula::NotDivides(..) | Formula::BoolVar(_) => None,
        Formula::Not(g) => kleene(g, hull).map(|b| !b),
        Formula::And(fs) => fold_kleene(fs, hull, false),
        Formula::Or(fs) => fold_kleene(fs, hull, true),
    }
}

/// Kleene disjunction (`absorbing` true) or conjunction (`absorbing`
/// false): one child reading `absorbing` decides it, and an unknown child
/// leaves it unknown otherwise.
fn fold_kleene(fs: &[Formula], hull: &Hull, absorbing: bool) -> Option<bool> {
    let mut acc = Some(!absorbing);
    for g in fs {
        match kleene(g, hull) {
            Some(b) if b == absorbing => return Some(absorbing),
            Some(_) => {}
            None => acc = None,
        }
    }
    acc
}

/// Canonical key for an arithmetic atom's variable combination.
type ComboKey = Vec<(VarId, BigRat)>;

/// One atom's translation: which simplex variable it bounds and how.
#[derive(Debug, Clone)]
struct AtomInfo {
    simplex_var: usize,
    /// Bound asserted when the atom literal is TRUE.
    on_true: BoundSpec,
    /// Bound asserted when the atom literal is FALSE (the negation).
    on_false: BoundSpec,
    /// `≤`-form inequalities over original variables for the TRUE and the
    /// FALSE literal, as the certificate checker sees them. Built only
    /// when the check certifies.
    ineqs: Option<(LinearIneq, LinearIneq)>,
}

#[derive(Debug, Clone)]
enum BoundSpec {
    Upper(QDelta),
    Lower(QDelta),
}

/// Write a bound on the canonical combination as `Σ c·x ≤ b` (`<` when
/// strict): upper bounds directly, lower bounds with both sides negated.
fn le_form(key: &ComboKey, spec: &BoundSpec) -> (Vec<(u32, BigRat)>, BigRat, bool) {
    match spec {
        BoundSpec::Upper(q) => (
            key.iter()
                .map(|(v, c)| (v.index() as u32, c.clone()))
                .collect(),
            q.r.clone(),
            q.k.is_negative(),
        ),
        BoundSpec::Lower(q) => (
            key.iter()
                .map(|(v, c)| (v.index() as u32, -c.clone()))
                .collect(),
            -q.r.clone(),
            q.k.is_positive(),
        ),
    }
}

/// The checker-facing inequality for a (possibly integer-tightened) bound;
/// when tightening changed the bound, records the original for the checker
/// to re-validate the rounding.
fn ineq_of(key: &ComboKey, spec: &BoundSpec, raw: &BoundSpec) -> LinearIneq {
    let (coeffs, bound, strict) = le_form(key, spec);
    let (_, raw_bound, raw_strict) = le_form(key, raw);
    let mut ineq = LinearIneq::new(coeffs, bound, strict);
    if ineq.bound != raw_bound || ineq.strict != raw_strict {
        ineq.tightened_from = Some((raw_bound, raw_strict));
    }
    ineq
}

struct CheckCtx<'a> {
    vars: &'a VarTable,
    sat: SatSolver,
    simplex: Simplex,
    /// VarId → simplex var (for arithmetic vars incl. fresh ones).
    arith_map: HashMap<VarId, usize>,
    /// simplex var → VarId for model extraction of declared vars.
    back_map: HashMap<usize, VarId>,
    /// combo key → slack simplex var.
    combos: HashMap<ComboKey, usize>,
    /// sat var → atom translation (None for pure boolean vars).
    atoms: Vec<Option<AtomInfo>>,
    /// canonical atom → sat var, so repeated atoms share one literal.
    atom_memo: HashMap<(Rel, bool, BigRat, ComboKey), usize>,
    /// VarId (bool) → sat var.
    bool_map: HashMap<VarId, usize>,
    /// simplex vars that must take integral values.
    int_simplex_vars: Vec<usize>,
    /// next fresh VarId (beyond the declared table).
    next_fresh: u32,
    /// record a proof log and atom table for an Unsat certificate.
    certify: bool,
    /// The deadline, also copied into `sat` and `simplex`; polled once
    /// per lazy round and branch-and-bound node.
    budget: crate::Budget,
    rounds: u64,
    lemmas: u64,
    bb_nodes: u64,
}

impl<'a> CheckCtx<'a> {
    fn new(vars: &'a VarTable, certify: bool, budget: crate::Budget) -> Self {
        let mut sat = SatSolver::new();
        sat.budget = budget;
        let mut simplex = Simplex::new();
        simplex.budget = budget;
        CheckCtx {
            vars,
            certify,
            budget,
            sat,
            simplex,
            arith_map: HashMap::new(),
            back_map: HashMap::new(),
            combos: HashMap::new(),
            atoms: Vec::new(),
            atom_memo: HashMap::new(),
            bool_map: HashMap::new(),
            int_simplex_vars: Vec::new(),
            next_fresh: vars.len() as u32,
            rounds: 0,
            lemmas: 0,
            bb_nodes: 0,
        }
    }

    fn fresh_int(&mut self) -> VarId {
        let id = VarId(self.next_fresh);
        self.next_fresh += 1;
        id
    }

    fn sort_of(&self, v: VarId) -> Sort {
        if v.index() < self.vars.len() {
            self.vars.sort(v)
        } else {
            Sort::Int // fresh vars are always divisibility witnesses
        }
    }

    fn simplex_var(&mut self, v: VarId) -> usize {
        if let Some(&s) = self.arith_map.get(&v) {
            return s;
        }
        let s = self.simplex.new_var();
        self.arith_map.insert(v, s);
        self.back_map.insert(s, v);
        if self.sort_of(v) == Sort::Int {
            self.int_simplex_vars.push(s);
        }
        s
    }

    /// The formula Tseitin encodes: `f` in NNF with its divisibility
    /// literals lowered. `f` itself when it already is one, so a check
    /// copies its input only when it must rewrite it.
    fn prepare<'f>(&mut self, f: &'f Formula) -> Cow<'f, Formula> {
        let nnf = if f.is_nnf() {
            Cow::Borrowed(f)
        } else {
            Cow::Owned(f.nnf())
        };
        if nnf.has_divisibility() {
            Cow::Owned(self.lower_divisibility(&nnf))
        } else {
            nnf
        }
    }

    /// Rewrite divisibility literals into linear constraints with fresh
    /// integer witnesses: `m | t` ⇒ `t = m·k`; `m ∤ t` ⇒ `t = m·k + r ∧
    /// 1 ≤ r ≤ m-1`. The formula must already be in NNF.
    fn lower_divisibility(&mut self, f: &Formula) -> Formula {
        match f {
            Formula::Divides(m, t) => {
                let k = self.fresh_int();
                let mk = LinTerm::var(k).scale(&BigRat::from_int(m.clone()));
                Formula::eq0(t.sub(&mk))
            }
            Formula::NotDivides(m, t) => {
                let k = self.fresh_int();
                let r = self.fresh_int();
                let mk = LinTerm::var(k).scale(&BigRat::from_int(m.clone()));
                let rt = LinTerm::var(r);
                let def = Formula::eq0(t.sub(&mk).sub(&rt));
                // 1 ≤ r ≤ m-1  ⇔  1 - r ≤ 0 ∧ r - (m-1) ≤ 0
                let low = Formula::le0(LinTerm::constant(BigRat::one()).sub(&rt));
                let hi = Formula::le0(rt.add(&LinTerm::constant(BigRat::from_int(
                    BigInt::one() - m.clone(),
                ))));
                def.and(low).and(hi)
            }
            Formula::And(fs) => Formula::and_all(fs.iter().map(|g| self.lower_divisibility(g))),
            Formula::Or(fs) => Formula::or_all(fs.iter().map(|g| self.lower_divisibility(g))),
            Formula::Not(g) => {
                // NNF guarantees Not only wraps BoolVar.
                Formula::Not(Box::new(self.lower_divisibility(g)))
            }
            other => other.clone(),
        }
    }

    /// Get/create the SAT variable for a canonical atom, registering its
    /// bound translation.
    fn atom_sat_var(&mut self, rel: Rel, term: &LinTerm) -> Lit {
        // term rel 0  ⇔  Σ aᵢxᵢ rel -c. Scale the variable part to its
        // primitive form, so that `combo` and `-combo` share a slack
        // variable; `flipped` records that the scale was negative, which
        // turns the relation around.
        assert!(!term.is_constant(), "atom with variables");
        let factor = term.primitive_scale();
        let flipped = factor.is_negative();
        let bound_val = -(term.constant_term() * &factor);
        let key: ComboKey = term.iter().map(|(v, k)| (*v, k * &factor)).collect();
        let memo_key = (rel, flipped, bound_val, key);
        if let Some(&sv) = self.atom_memo.get(&memo_key) {
            return Lit::pos(sv);
        }
        let (_, _, bound_val, key) = &memo_key;
        let bound_val = bound_val.clone();
        let simplex_var = match self.combos.get(key) {
            Some(&s) => s,
            None => {
                let s = if key.len() == 1 && key[0].1 == BigRat::one() {
                    self.simplex_var(key[0].0)
                } else {
                    let parts: Vec<(usize, BigRat)> = key
                        .iter()
                        .map(|(v, k)| (self.simplex_var(*v), k.clone()))
                        .collect();
                    let s = self.simplex.new_var();
                    self.simplex.define(s, parts);
                    // A combination of integer variables with integer
                    // coefficients is itself integral. Branching on the
                    // slack gives branch-and-bound GCD-style cuts for free
                    // (e.g. 2x - 2y = 1 refutes by branching on x - y at
                    // value 1/2) — without it, unbounded diophantine
                    // conflicts diverge.
                    let integral = key
                        .iter()
                        .all(|(v, k)| self.sort_of(*v) == Sort::Int && k.is_integer());
                    if integral {
                        self.int_simplex_vars.push(s);
                    }
                    s
                };
                self.combos.insert(key.clone(), s);
                s
            }
        };
        // Effective relation after the potential flip:
        //   combo rel bound   (no flip)
        //   combo rel' bound  with rel' = flipped direction (flip)
        // rel ∈ {Le, Lt} means term ≤/< 0 i.e. combo ≤/< bound originally;
        // after flip: combo ≥/> bound.
        let (on_true, on_false) = if !flipped {
            match rel {
                Rel::Le => (
                    BoundSpec::Upper(QDelta::rational(bound_val.clone())),
                    BoundSpec::Lower(QDelta::plus_delta(bound_val)),
                ),
                Rel::Lt => (
                    BoundSpec::Upper(QDelta::minus_delta(bound_val.clone())),
                    BoundSpec::Lower(QDelta::rational(bound_val)),
                ),
            }
        } else {
            match rel {
                Rel::Le => (
                    BoundSpec::Lower(QDelta::rational(bound_val.clone())),
                    BoundSpec::Upper(QDelta::minus_delta(bound_val)),
                ),
                Rel::Lt => (
                    BoundSpec::Lower(QDelta::plus_delta(bound_val.clone())),
                    BoundSpec::Upper(QDelta::rational(bound_val)),
                ),
            }
        };
        // Integer bound tightening: an integral combination satisfies
        // `s < c` iff `s ≤ ⌈c⌉-1` and `s > c` iff `s ≥ ⌊c⌋+1`. This turns
        // strict-window infeasibilities (e.g. 18 < s < 20 ∧ s = 19 is the
        // only slot but excluded elsewhere) into direct simplex conflicts,
        // and makes branch-and-bound unnecessary for most queries.
        let combo_integral = key
            .iter()
            .all(|(v, k)| self.sort_of(*v) == Sort::Int && k.is_integer());
        let (raw_true, raw_false) = (on_true, on_false);
        let (on_true, on_false) = if combo_integral {
            (
                tighten_int(raw_true.clone()),
                tighten_int(raw_false.clone()),
            )
        } else {
            (raw_true.clone(), raw_false.clone())
        };
        let ineqs = self.certify.then(|| {
            (
                ineq_of(key, &on_true, &raw_true),
                ineq_of(key, &on_false, &raw_false),
            )
        });
        let sv = self.sat.new_var();
        debug_assert_eq!(sv, self.atoms.len());
        self.atoms.push(Some(AtomInfo {
            simplex_var,
            on_true,
            on_false,
            ineqs,
        }));
        self.atom_memo.insert(memo_key, sv);
        Lit::pos(sv)
    }

    /// Add an encoding clause, logging it as a proof [`sia_check::ProofStep::Input`]
    /// first (the log call is a no-op unless proof logging is enabled).
    fn add_input_clause(&mut self, clause: Vec<Lit>) -> bool {
        self.sat.log_input(&clause);
        self.sat.add_clause(clause)
    }

    fn bool_sat_var(&mut self, v: VarId) -> usize {
        if let Some(&sv) = self.bool_map.get(&v) {
            return sv;
        }
        let sv = self.sat.new_var();
        debug_assert_eq!(sv, self.atoms.len());
        self.atoms.push(None);
        self.bool_map.insert(v, sv);
        sv
    }

    /// Tseitin conversion of an NNF, divisibility-free formula. Returns
    /// the literal equivalent to (implying) the formula.
    fn tseitin(&mut self, f: &Formula) -> Result<Lit, bool> {
        match f {
            Formula::True => Err(true),
            Formula::False => Err(false),
            Formula::Atom(a) => Ok(self.atom_sat_var(a.rel, &a.term)),
            Formula::BoolVar(v) => Ok(Lit::pos(self.bool_sat_var(*v))),
            Formula::Not(g) => match g.as_ref() {
                Formula::BoolVar(v) => Ok(Lit::neg(self.bool_sat_var(*v))),
                _ => unreachable!("NNF leaves negation only on bool vars"),
            },
            Formula::Divides(..) | Formula::NotDivides(..) => {
                unreachable!("divisibility lowered before tseitin")
            }
            Formula::And(fs) => {
                let mut lits = Vec::with_capacity(fs.len());
                for g in fs {
                    match self.tseitin(g) {
                        Ok(l) => lits.push(l),
                        Err(true) => {}
                        Err(false) => return Err(false),
                    }
                }
                if lits.is_empty() {
                    return Err(true);
                }
                if lits.len() == 1 {
                    return Ok(lits[0]);
                }
                let y = self.sat.new_var();
                self.atoms.push(None);
                // y → lᵢ for each i (Plaisted–Greenbaum, positive polarity
                // suffices for NNF input).
                for l in &lits {
                    self.add_input_clause(vec![Lit::neg(y), *l]);
                }
                Ok(Lit::pos(y))
            }
            Formula::Or(fs) => {
                let mut lits = Vec::with_capacity(fs.len());
                for g in fs {
                    match self.tseitin(g) {
                        Ok(l) => lits.push(l),
                        Err(false) => {}
                        Err(true) => return Err(true),
                    }
                }
                if lits.is_empty() {
                    return Err(false);
                }
                if lits.len() == 1 {
                    return Ok(lits[0]);
                }
                let y = self.sat.new_var();
                self.atoms.push(None);
                // y → (l₁ ∨ … ∨ lₙ)
                let mut clause = vec![Lit::neg(y)];
                clause.extend(lits.iter().copied());
                self.add_input_clause(clause);
                Ok(Lit::pos(y))
            }
        }
    }

    fn run(&mut self, f: &Formula) -> SmtResult {
        if self.certify {
            self.sat.enable_proof();
        }
        let input = self.prepare(f);
        match self.tseitin(&input) {
            Err(false) => {
                // The encoding collapsed to ⊥ by constant folding: log an
                // axiomatic empty clause so the certificate closes.
                self.sat.log_input(&[]);
                let _ = self.sat.add_clause(vec![]);
                return SmtResult::Unsat;
            }
            Err(true) => return SmtResult::Sat(Model::default()),
            Ok(root) => {
                self.add_input_clause(vec![root]);
            }
        }
        loop {
            if self.rounds >= MAX_ROUNDS || self.budget.is_exhausted() {
                return SmtResult::Unknown;
            }
            self.rounds += 1;
            match self.sat.solve() {
                SatResult::Unsat => return SmtResult::Unsat,
                SatResult::Interrupted => return SmtResult::Unknown,
                SatResult::Sat => {}
            }
            // Assert the theory literals implied by the boolean model.
            self.simplex.push();
            let mut conflict: Option<Conflict> = None;
            let mut asserted: Vec<Lit> = Vec::new();
            for sv in 0..self.atoms.len() {
                let Some(info) = &self.atoms[sv] else {
                    continue;
                };
                let truth = self.sat.model_value(sv);
                let lit = Lit::with_sign(sv, truth);
                let spec = if truth {
                    info.on_true.clone()
                } else {
                    info.on_false.clone()
                };
                let tag = Expl(lit_code(lit));
                let res = match spec {
                    BoundSpec::Upper(b) => self.simplex.assert_upper(info.simplex_var, b, tag),
                    BoundSpec::Lower(b) => self.simplex.assert_lower(info.simplex_var, b, tag),
                };
                asserted.push(lit);
                if let Err(c) = res {
                    conflict = Some(c);
                    break;
                }
            }
            if conflict.is_none() {
                conflict = self.simplex.check().err();
                if conflict.is_none() && self.simplex.interrupted() {
                    self.simplex.pop();
                    return SmtResult::Unknown;
                }
            }
            match conflict {
                Some(c) => {
                    self.simplex.pop();
                    self.learn_conflict(&c, &asserted);
                }
                None => {
                    // Rational model found; enforce integrality.
                    let mut budget = MAX_BB_NODES;
                    let bb = self.branch_and_bound(&mut budget, 0);
                    match bb {
                        BbResult::Sat => {
                            let model = self.extract_model();
                            self.simplex.pop();
                            // Every Sat verdict is replayed through the
                            // formula evaluator before being returned; a
                            // failure here is a solver soundness bug.
                            if !model.eval(f) {
                                if cfg!(any(debug_assertions, feature = "checked")) {
                                    panic!("unsound Sat verdict: model does not satisfy {f}");
                                }
                                return SmtResult::Unknown;
                            }
                            return SmtResult::Sat(model);
                        }
                        BbResult::Infeasible => {
                            self.simplex.pop();
                            // Weak lemma: not this exact combination of
                            // theory literals. Rests on branch-and-bound's
                            // integer search, so it has no Farkas witness.
                            let clause: Vec<Lit> = asserted.iter().map(|l| l.negated()).collect();
                            self.lemmas += 1;
                            self.sat.log_lemma(&clause, Justification::IntegerBranch);
                            if !self.sat.add_clause(clause) {
                                return SmtResult::Unsat;
                            }
                        }
                        BbResult::Budget => {
                            self.simplex.pop();
                            return SmtResult::Unknown;
                        }
                    }
                }
            }
        }
    }

    fn learn_conflict(&mut self, c: &Conflict, asserted: &[Lit]) {
        self.lemmas += 1;
        if c.has_internal() {
            // A branch-and-bound bound participates: no rational witness,
            // fall back to blocking the whole assignment.
            let clause: Vec<Lit> = asserted.iter().map(|l| l.negated()).collect();
            self.sat.log_lemma(&clause, Justification::IntegerBranch);
            let _ = self.sat.add_clause(clause);
        } else {
            let clause: Vec<Lit> = c
                .tags
                .iter()
                .map(|t| lit_from_code(t.0).negated())
                .collect();
            let terms = c
                .premises
                .iter()
                .map(|(e, m)| (dimacs(lit_from_code(e.0)), m.clone()))
                .collect();
            self.sat
                .log_lemma(&clause, Justification::Farkas(FarkasCertificate { terms }));
            let _ = self.sat.add_clause(clause);
        }
    }

    /// Branch and bound over the integer simplex variables. On `Sat` the
    /// simplex state (with all branching bounds pushed) is left in place so
    /// the model can be read; otherwise the state is restored.
    fn branch_and_bound(&mut self, budget: &mut u64, depth: u32) -> BbResult {
        // Recursion depth cap: deep chains of branchings indicate an
        // unbounded diophantine search; give up rather than overflow.
        if *budget == 0 || depth > 120 || self.budget.is_exhausted() {
            return BbResult::Budget;
        }
        *budget -= 1;
        self.bb_nodes += 1;
        if self.simplex.check().is_err() {
            return BbResult::Infeasible;
        }
        if self.simplex.interrupted() {
            return BbResult::Budget;
        }
        let delta = self.simplex.concrete_delta();
        // Prefer branching on doubly-bounded fractional variables (equality
        // slacks and boxed variables): their branches refute or fix
        // immediately, whereas branching on an unbounded variable of an
        // unsatisfiable diophantine system descends forever.
        let mut branch_var: Option<(usize, BigRat)> = None;
        let mut fallback: Option<(usize, BigRat)> = None;
        for &x in &self.int_simplex_vars {
            let v = self.simplex.value(x).materialize(&delta);
            if !v.is_integer() {
                let boxed =
                    self.simplex.lower_bound(x).is_some() && self.simplex.upper_bound(x).is_some();
                if boxed {
                    branch_var = Some((x, v));
                    break;
                }
                if fallback.is_none() {
                    fallback = Some((x, v));
                }
            }
        }
        let Some((x, v)) = branch_var.or(fallback) else {
            return BbResult::Sat;
        };
        let fl = v.floor();
        // Branch x ≤ ⌊v⌋.
        self.simplex.push();
        if self
            .simplex
            .assert_upper(
                x,
                QDelta::rational(BigRat::from_int(fl.clone())),
                Expl::INTERNAL,
            )
            .is_ok()
        {
            match self.branch_and_bound(budget, depth + 1) {
                BbResult::Sat => return BbResult::Sat,
                BbResult::Budget => {
                    self.simplex.pop();
                    return BbResult::Budget;
                }
                BbResult::Infeasible => {}
            }
        }
        self.simplex.pop();
        // Branch x ≥ ⌊v⌋+1.
        self.simplex.push();
        if self
            .simplex
            .assert_lower(
                x,
                QDelta::rational(BigRat::from_int(fl + BigInt::one())),
                Expl::INTERNAL,
            )
            .is_ok()
        {
            match self.branch_and_bound(budget, depth + 1) {
                BbResult::Sat => return BbResult::Sat,
                BbResult::Budget => {
                    self.simplex.pop();
                    return BbResult::Budget;
                }
                BbResult::Infeasible => {}
            }
        }
        self.simplex.pop();
        BbResult::Infeasible
    }

    /// The literal → inequality table for the certificate checker: each
    /// theory atom contributes one entry per polarity, plus the set of
    /// integer-sorted variables (declared and fresh witnesses) needed to
    /// validate integer bound tightenings.
    fn build_atom_table(&self) -> AtomTable {
        let mut table = AtomTable::default();
        for (sv, info) in self.atoms.iter().enumerate() {
            let Some(info) = info else {
                continue;
            };
            let (true_ineq, false_ineq) = info.ineqs.clone().expect("certifying check");
            let lit = sv as i64 + 1;
            table.entries.insert(lit, true_ineq);
            table.entries.insert(-lit, false_ineq);
        }
        for v in self.arith_map.keys() {
            if self.sort_of(*v) == Sort::Int {
                table.int_vars.insert(v.index() as u32);
            }
        }
        table
    }

    /// Package the proof log and atom table recorded during an Unsat run.
    fn into_certificate(mut self) -> CertifiedUnsat {
        CertifiedUnsat {
            atoms: self.build_atom_table(),
            steps: self.sat.take_proof(),
        }
    }

    fn extract_model(&self) -> Model {
        let delta = self.simplex.concrete_delta();
        let mut model = Model::default();
        for (v, &s) in &self.arith_map {
            if v.index() < self.vars.len() {
                let mut val = self.simplex.value(s).materialize(&delta);
                if self.vars.sort(*v) == Sort::Int && !val.is_integer() {
                    // An Int var outside every atom may carry a spurious
                    // fractional part from delta materialization; it is
                    // unconstrained in that direction, so round.
                    val = BigRat::from_int(val.floor());
                }
                model.arith.insert(*v, val);
            }
        }
        for (v, &sv) in &self.bool_map {
            model.bools.insert(*v, self.sat.model_value(sv));
        }
        model
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbResult {
    Sat,
    Infeasible,
    Budget,
}

/// Tighten a bound on an integer-valued variable to the nearest integer:
/// upper bounds round down (strict `< c` ⇒ `≤ ⌈c⌉-1`), lower bounds round
/// up (strict `> c` ⇒ `≥ ⌊c⌋+1`).
fn tighten_int(spec: BoundSpec) -> BoundSpec {
    match spec {
        BoundSpec::Upper(q) => {
            let v = if q.k.is_negative() {
                // strict: largest integer strictly below r
                let c = q.r.ceil();
                BigRat::from_int(c - BigInt::one())
            } else {
                BigRat::from_int(q.r.floor())
            };
            BoundSpec::Upper(QDelta::rational(v))
        }
        BoundSpec::Lower(q) => {
            let v = if q.k.is_positive() {
                let f = q.r.floor();
                BigRat::from_int(f + BigInt::one())
            } else {
                BigRat::from_int(q.r.ceil())
            };
            BoundSpec::Lower(QDelta::rational(v))
        }
    }
}

fn lit_code(l: Lit) -> u32 {
    ((l.var() as u32) << 1) | u32::from(l.is_neg())
}

fn lit_from_code(code: u32) -> Lit {
    if code & 1 == 1 {
        Lit::neg((code >> 1) as usize)
    } else {
        Lit::pos((code >> 1) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula as F;

    fn int_solver(names: &[&str]) -> (Solver, Vec<VarId>) {
        let mut s = Solver::new();
        let vs = names.iter().map(|n| s.declare(*n, Sort::Int)).collect();
        (s, vs)
    }

    fn t1(v: VarId) -> LinTerm {
        LinTerm::var(v)
    }

    fn c(n: i64) -> LinTerm {
        LinTerm::constant(BigRat::from(n))
    }

    #[test]
    fn trivial() {
        let mut s = Solver::new();
        assert!(s.check(&F::True).is_sat());
        assert!(s.check(&F::False).is_unsat());
    }

    #[test]
    fn single_bound() {
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        // x - 5 <= 0
        let f = F::le0(t1(x).sub(&c(5)));
        let r = s.check(&f);
        let m = r.model().unwrap();
        assert!(m.int(x) <= BigInt::from(5i64));
    }

    #[test]
    fn conflicting_bounds() {
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        // x <= 2 and x >= 5
        let f = F::le0(t1(x).sub(&c(2))).and(F::le0(c(5).sub(&t1(x))));
        assert!(s.check(&f).is_unsat());
    }

    #[test]
    fn strict_integer_gap() {
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        // 0 < x < 1 has no integer solution (but is real-feasible).
        let f = F::lt0(c(0).sub(&t1(x))).and(F::lt0(t1(x).sub(&c(1))));
        assert!(s.check(&f).is_unsat());
    }

    #[test]
    fn strict_real_gap_is_sat() {
        let mut s = Solver::new();
        let x = s.declare("x", Sort::Real);
        let f = F::lt0(c(0).sub(&t1(x))).and(F::lt0(t1(x).sub(&c(1))));
        let r = s.check(&f);
        let m = r.model().unwrap();
        let v = m.rat(x);
        assert!(v > BigRat::zero() && v < BigRat::one(), "got {v}");
    }

    #[test]
    fn equality_and_sum() {
        let (mut s, vs) = int_solver(&["x", "y"]);
        let (x, y) = (vs[0], vs[1]);
        // x + y = 10 and x - y = 4  →  x = 7, y = 3
        let f = F::eq0(t1(x).add(&t1(y)).sub(&c(10))).and(F::eq0(t1(x).sub(&t1(y)).sub(&c(4))));
        let r = s.check(&f);
        let m = r.model().unwrap();
        assert_eq!(m.int(x), BigInt::from(7i64));
        assert_eq!(m.int(y), BigInt::from(3i64));
    }

    #[test]
    fn disequality() {
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        // 0 <= x <= 1 and x != 0 and x != 1 → unsat
        let f = F::le0(c(0).sub(&t1(x)))
            .and(F::le0(t1(x).sub(&c(1))))
            .and(F::ne0(t1(x)))
            .and(F::ne0(t1(x).sub(&c(1))));
        assert!(s.check(&f).is_unsat());
        // allowing x = 2 works
        let g = F::le0(c(0).sub(&t1(x)))
            .and(F::le0(t1(x).sub(&c(2))))
            .and(F::ne0(t1(x)))
            .and(F::ne0(t1(x).sub(&c(1))));
        let m = s.check(&g);
        assert_eq!(m.model().unwrap().int(x), BigInt::from(2i64));
    }

    #[test]
    fn disjunction() {
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        // (x <= -10 or x >= 10) and -5 <= x <= 5 → unsat
        let f = F::le0(t1(x).add(&c(10)))
            .or(F::le0(c(10).sub(&t1(x))))
            .and(F::le0(t1(x).sub(&c(5))))
            .and(F::le0(c(-5).sub(&t1(x))));
        assert!(s.check(&f).is_unsat());
    }

    #[test]
    fn integer_cut_diagonal() {
        let (mut s, vs) = int_solver(&["x", "y"]);
        let (x, y) = (vs[0], vs[1]);
        // 2x = 2y + 1 has no integer solution.
        let two = BigRat::from(2);
        let f = F::eq0(t1(x).scale(&two).sub(&t1(y).scale(&two)).sub(&c(1)));
        assert!(s.check(&f).is_unsat());
    }

    #[test]
    fn divisibility() {
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        // 10 <= x <= 12 and 7 | x  →  unsat; 7 | x with 13 <= x <= 15 → x = 14
        let dom = |lo: i64, hi: i64| F::le0(c(lo).sub(&t1(x))).and(F::le0(t1(x).sub(&c(hi))));
        let f = dom(10, 12).and(F::divides(BigInt::from(7i64), t1(x)));
        assert!(s.check(&f).is_unsat());
        let g = dom(13, 15).and(F::divides(BigInt::from(7i64), t1(x)));
        let m = s.check(&g);
        assert_eq!(m.model().unwrap().int(x), BigInt::from(14i64));
    }

    #[test]
    fn not_divides() {
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        // 4 <= x <= 6 and 2 ∤ x  →  x = 5
        let f = F::le0(c(4).sub(&t1(x)))
            .and(F::le0(t1(x).sub(&c(6))))
            .and(F::Divides(BigInt::from(2i64), t1(x)).not());
        let m = s.check(&f);
        assert_eq!(m.model().unwrap().int(x), BigInt::from(5i64));
    }

    #[test]
    fn boolean_mixing() {
        let mut s = Solver::new();
        let x = s.declare("x", Sort::Int);
        let p = s.declare("p", Sort::Bool);
        // (p or x <= 0) and (not p) and x >= 1  →  unsat
        let f = F::BoolVar(p)
            .or(F::le0(t1(x)))
            .and(F::BoolVar(p).not())
            .and(F::le0(c(1).sub(&t1(x))));
        assert!(s.check(&f).is_unsat());
        // drop x >= 1: sat with p=false, x<=0
        let g = F::BoolVar(p).or(F::le0(t1(x))).and(F::BoolVar(p).not());
        let r = s.check(&g);
        let m = r.model().unwrap();
        assert!(!m.boolean(p));
        assert!(m.int(x) <= BigInt::zero());
    }

    #[test]
    fn motivating_example_true_sample() {
        // p: a2 - b1 < 20 ∧ a1 - a2 < a2 - b1 + 10 ∧ b1 < 0 is satisfiable.
        let (mut s, vs) = int_solver(&["a1", "a2", "b1"]);
        let (a1, a2, b1) = (vs[0], vs[1], vs[2]);
        let p = F::lt0(t1(a2).sub(&t1(b1)).sub(&c(20)))
            .and(F::lt0(
                t1(a1).sub(&t1(a2)).sub(&t1(a2).sub(&t1(b1))).sub(&c(10)),
            ))
            .and(F::lt0(t1(b1)));
        let r = s.check(&p);
        let m = r.model().unwrap();
        // Verify model against the formula itself.
        assert!(m.eval(&p));
    }

    #[test]
    fn models_are_verified() {
        // Random-ish conjunctions/disjunctions; every SAT answer must
        // produce a model that evaluates to true.
        let (mut s, vs) = int_solver(&["x", "y", "z"]);
        let (x, y, z) = (vs[0], vs[1], vs[2]);
        let cases = [
            F::le0(t1(x).add(&t1(y)).sub(&c(3))).and(F::lt0(c(1).sub(&t1(x)))),
            F::eq0(t1(x).scale(&BigRat::from(3)).sub(&t1(y)).sub(&c(7)))
                .and(F::le0(t1(y).sub(&c(100))))
                .and(F::le0(c(-100).sub(&t1(y)))),
            F::ne0(t1(x).sub(&t1(y)))
                .and(F::ne0(t1(y).sub(&t1(z))))
                .and(F::le0(t1(x).sub(&c(1))))
                .and(F::le0(t1(y).sub(&c(1))))
                .and(F::le0(t1(z).sub(&c(1))))
                .and(F::le0(c(0).sub(&t1(x))))
                .and(F::le0(c(0).sub(&t1(y))))
                .and(F::le0(c(0).sub(&t1(z)))),
        ];
        for (i, f) in cases.iter().enumerate() {
            match s.check(f) {
                SmtResult::Sat(m) => assert!(m.eval(f), "case {i}: bad model"),
                SmtResult::Unsat => {
                    if i == 2 {
                        // x,y,z ∈ {0,1} pairwise-adjacent distinct: x≠y, y≠z is satisfiable (x=z=0,y=1)
                        panic!("case 2 should be satisfiable");
                    }
                }
                SmtResult::Unknown => panic!("case {i}: unknown"),
            }
        }
    }

    /// A random term over `vs` with at least one variable and integer
    /// coefficients.
    fn random_term(rng: &mut impl sia_rand::Rng, vs: &[VarId]) -> LinTerm {
        let mut t = LinTerm::constant(BigRat::from(rng.gen_range(-6i64..=6)));
        while t.is_constant() {
            for &v in vs {
                if rng.gen_range(0..2) == 0 {
                    t = t.add(&t1(v).scale(&BigRat::from(rng.gen_range(-3i64..=3))));
                }
            }
        }
        t
    }

    /// A random formula built with the raw constructors, so it carries the
    /// shapes `nnf` rewrites: negated connectives, one-child and nested
    /// connectives, constant children and divisibility literals.
    fn random_formula(rng: &mut impl sia_rand::Rng, vs: &[VarId], p: VarId, depth: u32) -> F {
        if depth == 0 || rng.gen_range(0..3) == 0 {
            return match rng.gen_range(0..12) {
                0 => F::True,
                1 => F::False,
                2 | 3 => F::BoolVar(p),
                4 => F::Divides(BigInt::from(rng.gen_range(2i64..=4)), random_term(rng, vs)),
                5 => F::NotDivides(BigInt::from(rng.gen_range(2i64..=4)), random_term(rng, vs)),
                6..=8 => F::Atom(crate::term::Atom::le(random_term(rng, vs))),
                _ => F::Atom(crate::term::Atom::lt(random_term(rng, vs))),
            };
        }
        let shape = rng.gen_range(0..5);
        let mut kids: Vec<F> = (0..rng.gen_range(1..=3))
            .map(|_| random_formula(rng, vs, p, depth - 1))
            .collect();
        match shape {
            0 | 1 => F::And(kids),
            2 | 3 => F::Or(kids),
            _ => F::Not(Box::new(kids.swap_remove(0))),
        }
    }

    #[test]
    fn a_check_encodes_its_input_unchanged_only_when_nnf_would_not_change_it() {
        use sia_rand::SeedableRng;
        let mut rng = sia_rand::rngs::StdRng::seed_from_u64(0x0a7f);
        let (mut s, vs) = int_solver(&["x", "y", "z"]);
        let p = s.declare("p", Sort::Bool);
        let (mut direct, mut rewritten) = (0, 0);
        for _ in 0..600 {
            let f = random_formula(&mut rng, &vs, p, 3);
            let nnf = f.nnf();
            let mut ctx = CheckCtx::new(&s.vars, false, crate::Budget::default());
            let prepared = ctx.prepare(&f);
            // What a check encoded before it skipped anything: the NNF
            // copy with its divisibility lowered.
            let mut full = CheckCtx::new(&s.vars, false, crate::Budget::default());
            assert_eq!(*prepared, full.lower_divisibility(&nnf), "{f}");
            if let Cow::Borrowed(g) = prepared {
                assert!(std::ptr::eq(g, &f));
                assert_eq!(nnf, f, "{f}");
                assert!(!f.has_divisibility(), "{f}");
                direct += 1;
            } else {
                rewritten += 1;
            }
            match (s.check(&f), s.check(&nnf)) {
                (SmtResult::Sat(a), SmtResult::Sat(b)) => {
                    for &v in &vs {
                        assert_eq!(a.rat(v), b.rat(v), "{f}: model of {v}");
                    }
                    assert_eq!(a.boolean(p), b.boolean(p), "{f}: model of p");
                }
                (SmtResult::Unsat, SmtResult::Unsat) | (SmtResult::Unknown, SmtResult::Unknown) => {
                }
                (a, b) => panic!("{f}: verdicts differ: {a:?} against {b:?}"),
            }
        }
        assert!(
            direct > 100 && rewritten > 100,
            "{direct} direct, {rewritten} rewritten"
        );
    }

    /// `lo ≤ v` (`lo < v` when strict) and `v ≤ hi` (`v < hi`).
    fn bound(v: VarId, lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> F {
        let atom = |t: LinTerm, strict: bool| if strict { F::lt0(t) } else { F::le0(t) };
        let lo = lo.map_or(F::True, |(b, strict)| atom(c(b).sub(&t1(v)), strict));
        let hi = hi.map_or(F::True, |(b, strict)| atom(t1(v).sub(&c(b)), strict));
        lo.and(hi)
    }

    #[test]
    fn bounds_presolve_refutes_crossed_bounds() {
        let (mut s, vs) = int_solver(&["x", "y"]);
        let (x, y) = (vs[0], vs[1]);
        let open = F::le0(t1(x).add(&t1(y)));
        for (lo, hi, refuted) in [
            ((5, false), (2, false), true),
            ((3, false), (3, false), false),
            ((3, true), (3, false), true),
            ((3, false), (3, true), true),
            ((-4, true), (9, true), false),
        ] {
            let f = bound(x, Some(lo), Some(hi)).and(open.clone());
            assert_eq!(refuted_by_bounds(&f), refuted, "{f}");
            assert_eq!(s.check(&f).is_unsat(), refuted, "{f}");
        }
        // A later, tighter bound on the same variable crosses an earlier one.
        let f = bound(x, Some((0, false)), Some((10, false)))
            .and(bound(x, None, Some((-1, false))))
            .and(bound(y, Some((0, false)), None));
        assert!(refuted_by_bounds(&f), "{f}");
    }

    #[test]
    fn bounds_presolve_refutes_a_disjunction_its_box_falsifies() {
        let (mut s, vs) = int_solver(&["x", "y"]);
        let (x, y) = (vs[0], vs[1]);
        // (x + y ≤ -10 ∨ 2x - y > 50) over 0 ≤ x ≤ 10, 0 ≤ y ≤ 20: the sum
        // is at least 0 and 2x - y at most 20 on the whole box.
        let either = F::le0(t1(x).add(&t1(y)).add(&c(10))).or(F::lt0(
            c(50).sub(&t1(x).scale(&BigRat::from(2))).add(&t1(y)),
        ));
        let f = either
            .clone()
            .and(bound(x, Some((0, false)), Some((10, false))))
            .and(bound(y, Some((0, false)), Some((20, false))));
        assert!(refuted_by_bounds(&f), "{f}");
        assert!(s.check(&f).is_unsat());
        // Negated as a whole, the same disjunction reads true on the box.
        let g = F::Not(Box::new(either))
            .and(bound(x, Some((0, false)), Some((10, false))))
            .and(bound(y, Some((0, false)), Some((20, false))));
        assert!(!refuted_by_bounds(&g), "{g}");
        assert!(s.check(&g).is_sat());
    }

    #[test]
    fn bounds_presolve_leaves_what_the_hull_cannot_decide_to_the_search() {
        let (mut s, vs) = int_solver(&["x", "y"]);
        let (x, y) = (vs[0], vs[1]);
        // x + y = 5 with x, y ∈ [0, 2]: the sum ranges over [0, 4] and the
        // equality's `-(x + y) + 5 ≤ 0` half is false everywhere.
        let box2 = || {
            bound(x, Some((0, false)), Some((2, false))).and(bound(
                y,
                Some((0, false)),
                Some((2, false)),
            ))
        };
        let sum = F::eq0(t1(x).add(&t1(y)).sub(&c(5)));
        assert!(refuted_by_bounds(&sum.clone().and(box2())));
        // x + y = 3 meets the box: undecided, and the search finds a model.
        let f = F::eq0(t1(x).add(&t1(y)).sub(&c(3))).and(box2());
        assert!(!refuted_by_bounds(&f), "{f}");
        assert!(s.check(&f).is_sat());
        // 2x = 2y + 1 is unsat over ℤ but not over the reals: the presolve
        // leaves it to branch and bound.
        let two = BigRat::from(2);
        let g = F::eq0(t1(x).scale(&two).sub(&t1(y).scale(&two)).sub(&c(1))).and(box2());
        assert!(!refuted_by_bounds(&g), "{g}");
        assert!(s.check(&g).is_unsat());
        // Divisibility and boolean literals read unknown.
        let p = s.declare("p", Sort::Bool);
        let h = F::divides(BigInt::from(3i64), t1(x).add(&t1(y)).sub(&c(5)))
            .or(F::BoolVar(p))
            .and(box2());
        assert!(!refuted_by_bounds(&h), "{h}");
        // An exhausted budget answers Unknown even where bounds would refute.
        s.budget = crate::Budget::with_deadline(std::time::Duration::ZERO);
        assert!(matches!(s.check(&sum.and(box2())), SmtResult::Unknown));
    }

    #[test]
    fn bounds_presolve_never_refutes_what_the_certified_search_satisfies() {
        use sia_rand::{Rng, SeedableRng};
        let mut rng = sia_rand::rngs::StdRng::seed_from_u64(0xb0c5);
        let (mut s, vs) = int_solver(&["x", "y", "z"]);
        let p = s.declare("p", Sort::Bool);
        let (mut refuted, mut kept) = (0, 0);
        for _ in 0..800 {
            let mut f = random_formula(&mut rng, &vs, p, 3);
            for &v in &vs {
                let end = |rng: &mut sia_rand::rngs::StdRng| {
                    (rng.gen_range(0..4) > 0)
                        .then(|| (rng.gen_range(-8i64..=8), rng.gen_range(0..3) == 0))
                };
                let (lo, hi) = (end(&mut rng), end(&mut rng));
                f = f.and(bound(v, lo, hi));
            }
            if !refuted_by_bounds(&f) {
                kept += 1;
                continue;
            }
            refuted += 1;
            let (verdict, cert) = s.check_with_certificate(&f);
            assert!(
                verdict.is_unsat(),
                "{f}: presolved, but the search says {verdict:?}"
            );
            if let Err(e) = sia_check::check_refutation(&cert.expect("unsat carries a certificate"))
            {
                panic!("{f}: certificate rejected: {e}");
            }
            assert!(s.check(&f).is_unsat(), "{f}");
        }
        assert!(
            refuted > 100 && kept > 100,
            "{refuted} refuted, {kept} kept"
        );
    }

    /// Each check's counts reach the collector. Other tests may check
    /// concurrently, so the counters grow by at least this test's share.
    #[test]
    fn stats_accumulate() {
        use sia_obs::Counter as C;
        let (mut s, vs) = int_solver(&["x"]);
        let x = vs[0];
        let f = F::le0(t1(x));
        sia_obs::enable();
        let count = |c| sia_obs::snapshot().counter(c);
        let (checks, rounds) = (count(C::SmtChecks), count(C::SmtRounds));
        let _ = s.check(&f);
        let _ = s.check(&f);
        assert!(count(C::SmtChecks) >= checks + 2);
        assert!(count(C::SmtRounds) >= rounds + 2);
    }
}
