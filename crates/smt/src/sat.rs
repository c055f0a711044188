//! CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
//! analysis, VSIDS-style decision heuristic, phase saving, and Luby
//! restarts. Small and dependency-free; the DPLL(T) layer
//! ([`crate::solver`]) lazily adds theory lemmas as ordinary clauses.
//!
//! When proof logging is enabled ([`SatSolver::enable_proof`]), every
//! clause entering the database is recorded as a [`ProofStep`] in
//! chronological order — callers log their input clauses and theory
//! lemmas, while the solver itself logs each learned clause (and the
//! empty clause on refutation) as [`ProofStep::Derived`]. First-UIP
//! learned clauses are derivable by reverse unit propagation from the
//! clauses logged before them, so `sia-check` can replay the log
//! independently.

use sia_check::{Justification, ProofStep};

/// A literal: variable index with polarity. `code = var << 1 | neg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of variable `v`.
    pub fn pos(v: usize) -> Lit {
        Lit((v as u32) << 1)
    }

    /// Negative literal of variable `v`.
    pub fn neg(v: usize) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// Literal of variable `v` with the given `positive` polarity.
    pub fn with_sign(v: usize, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// True iff the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

/// DIMACS encoding of a literal: variable `v` (0-based) becomes `±(v+1)`,
/// negative when the literal is negated. This is the convention of the
/// `sia-check` proof checker.
pub fn dimacs(l: Lit) -> i64 {
    let v = (l.var() as i64) + 1;
    if l.is_neg() {
        -v
    } else {
        v
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "-x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// Result of a SAT call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (see [`SatSolver::model_value`]).
    Sat,
    /// No satisfying assignment exists.
    Unsat,
    /// The solver's [`crate::Budget`] was exhausted mid-search; no verdict.
    Interrupted,
}

type ClauseRef = usize;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
}

/// Solver statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
}

/// A CDCL SAT solver.
#[derive(Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<ClauseRef>>, // indexed by literal code
    assign: Vec<Option<bool>>,    // indexed by var
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// True once conflict analysis has bumped an activity. Until then
    /// every activity is zero and the decision is the lowest unassigned
    /// variable, which `cursor` finds without a scan.
    bumped: bool,
    /// Every variable below `cursor` is assigned.
    cursor: usize,
    phase: Vec<bool>,
    unsat: bool,
    /// Chronological clause-proof log; `None` until
    /// [`SatSolver::enable_proof`] is called.
    proof: Option<Vec<ProofStep>>,
    /// Statistics for the current lifetime of the solver.
    pub stats: SatStats,
    /// The deadline, polled every few hundred search
    /// steps inside [`SatSolver::solve`]. Unlimited by default.
    pub budget: crate::Budget,
}

impl SatSolver {
    /// Fresh solver with no variables.
    pub fn new() -> Self {
        SatSolver {
            var_inc: 1.0,
            ..SatSolver::default()
        }
    }

    /// Declare a new variable; returns its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.assign.len();
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new()); // pos watch list
        self.watches.push(Vec::new()); // neg watch list
        v
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var()].map(|b| b != l.is_neg())
    }

    /// Start recording a clause-proof log. Call before any clause is
    /// added; otherwise earlier clauses are missing from the log and
    /// later derivations may not check.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(Vec::new());
        }
    }

    /// Take the recorded proof log (empty if logging was never enabled).
    pub fn take_proof(&mut self) -> Vec<ProofStep> {
        self.proof.take().unwrap_or_default()
    }

    /// Record an axiomatic input clause (no-op unless proof logging is
    /// enabled). Callers log the clause **before** adding it.
    pub fn log_input(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Input(lits.iter().copied().map(dimacs).collect()));
        }
    }

    /// Record a theory lemma with its justification (no-op unless proof
    /// logging is enabled). Callers log the lemma **before** adding it.
    pub fn log_lemma(&mut self, lits: &[Lit], just: Justification) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Lemma(
                lits.iter().copied().map(dimacs).collect(),
                just,
            ));
        }
    }

    fn log_derived(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Derived(
                lits.iter().copied().map(dimacs).collect(),
            ));
        }
    }

    /// Add a clause. Returns `false` if the solver is already known UNSAT.
    /// Clauses may be added between `solve` calls (incremental use); the
    /// trail is rewound to level 0 first.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        if self.unsat {
            return false;
        }
        self.backtrack_to(0);
        lits.sort();
        lits.dedup();
        // Tautology?
        if lits.windows(2).any(|w| w[0] == w[1].negated()) {
            return true;
        }
        // Drop root-level-false literals; detect satisfied clauses.
        let mut filtered = Vec::with_capacity(lits.len());
        for l in lits {
            match self.value(l) {
                Some(true) => return true,
                Some(false) => {}
                None => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                // Every literal of the clause is false at the root, so the
                // empty clause follows by unit propagation over the logged
                // database (which contains this clause).
                self.unsat = true;
                self.log_derived(&[]);
                false
            }
            1 => {
                self.enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    self.log_derived(&[]);
                    false
                } else {
                    #[cfg(feature = "checked")]
                    self.check_invariants();
                    true
                }
            }
            _ => {
                let cref = self.clauses.len();
                self.watches[filtered[0].negated().code()].push(cref);
                self.watches[filtered[1].negated().code()].push(cref);
                self.clauses.push(Clause { lits: filtered });
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.value(l).is_none());
        let v = l.var();
        self.assign[v] = Some(!l.is_neg());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause ref if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p must be visited: p just became true, so
            // the watcher list for literal p (code of p) holds clauses in
            // which one watched literal is ¬p... We store watches keyed by
            // the *falsified* literal: a clause watching literal l is in
            // watches[l.negated()]; when p becomes true, literals ¬p are
            // falsified, so visit watches[p.code()].
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                // Ensure the falsified literal is at position 1.
                let false_lit = p.negated();
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                }
                // First literal satisfied? keep watching.
                let first = self.clauses[cref].lits[0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                let len = self.clauses[cref].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref].lits[k];
                    if self.value(lk) != Some(false) {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[lk.negated().code()].push(cref);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(first) == Some(false) {
                    // Conflict: restore remaining watches and report.
                    self.watches[p.code()].append(&mut ws);
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[p.code()].append(&mut ws);
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.bumped = true;
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn decay_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump level).
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut index = self.trail.len();
        loop {
            let start = usize::from(p.is_some());
            // Skip lits[0] when it is the asserting literal p itself.
            let lits: Vec<Lit> = self.clauses[cref].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if seen[v] || self.level[v] == 0 {
                    continue;
                }
                seen[v] = true;
                self.bump_var(v);
                if self.level[v] == cur_level {
                    counter += 1;
                } else {
                    learned.push(q);
                }
            }
            // Find next literal on the trail to resolve on.
            loop {
                index -= 1;
                if seen[self.trail[index].var()] {
                    break;
                }
            }
            let lit = self.trail[index];
            seen[lit.var()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            cref = self.reason[lit.var()].expect("non-decision must have a reason");
            p = Some(lit);
        }
        let asserting = p.unwrap().negated();
        learned.insert(0, asserting);
        let backjump = learned[1..]
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        (learned, backjump)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var();
                self.phase[v] = self.assign[v].unwrap();
                self.assign[v] = None;
                self.reason[v] = None;
                self.cursor = self.cursor.min(v);
            }
        }
        self.qhead = self.trail.len();
    }

    /// The unassigned variable of highest activity, the lowest index on
    /// a tie, with its saved phase.
    fn decide(&mut self) -> Option<Lit> {
        let best = if self.bumped {
            self.most_active()
        } else {
            while self.cursor < self.num_vars() && self.assign[self.cursor].is_some() {
                self.cursor += 1;
            }
            let first = (self.cursor < self.num_vars()).then_some(self.cursor);
            #[cfg(feature = "checked")]
            assert_eq!(first, self.most_active(), "decision cursor left the scan");
            first
        };
        best.map(|v| Lit::with_sign(v, self.phase[v]))
    }

    fn most_active(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars() {
            if self.assign[v].is_none() && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    /// Solve the current clause set.
    pub fn solve(&mut self) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            self.log_derived(&[]);
            return SatResult::Unsat;
        }
        #[cfg(feature = "checked")]
        self.check_invariants();
        let mut conflicts_since_restart = 0u64;
        let mut restart_idx = 1u64;
        let mut restart_limit = 64 * luby(restart_idx);
        let mut steps = 0u64;
        loop {
            // Deadline poll: one search step is one
            // propagate/analyze-or-decide round, so this polls the budget
            // every 512 conflicts-or-decisions regardless of which branch
            // the search is stuck in.
            steps += 1;
            if steps & 0x1FF == 0 && self.budget.is_exhausted() {
                return SatResult::Interrupted;
            }
            let conflicting = self.propagate();
            #[cfg(feature = "checked")]
            if conflicting.is_none() {
                self.check_invariants();
            }
            if let Some(conflict) = conflicting {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    self.log_derived(&[]);
                    return SatResult::Unsat;
                }
                let (mut learned, backjump) = self.analyze(conflict);
                #[allow(clippy::cast_precision_loss)]
                sia_obs::record(sia_obs::Hist::SatLearnedLen, learned.len() as f64);
                self.log_derived(&learned);
                self.backtrack_to(backjump);
                self.decay_activity();
                if learned.len() == 1 {
                    self.enqueue(learned[0], None);
                } else {
                    // Watch the asserting literal and a literal at the
                    // backjump level. The rest of the clause is false, and
                    // only a backjump-level watch is unassigned by exactly
                    // the backtracks that unassign the asserting literal —
                    // watching an arbitrary (lower-level) literal instead
                    // leaves the clause silently unit after backtracking,
                    // with no falsification event to re-trigger it.
                    let w = (2..learned.len()).fold(1, |w: usize, k| {
                        if self.level[learned[k].var()] > self.level[learned[w].var()] {
                            k
                        } else {
                            w
                        }
                    });
                    learned.swap(1, w);
                    let cref = self.clauses.len();
                    self.watches[learned[0].negated().code()].push(cref);
                    self.watches[learned[1].negated().code()].push(cref);
                    let asserting = learned[0];
                    self.clauses.push(Clause { lits: learned });
                    self.enqueue(asserting, Some(cref));
                }
            } else if conflicts_since_restart >= restart_limit {
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                restart_idx += 1;
                restart_limit = 64 * luby(restart_idx);
                self.backtrack_to(0);
            } else {
                match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Value of variable `v` in the current model (valid after
    /// `solve() == Sat`).
    pub fn model_value(&self, v: usize) -> bool {
        self.assign[v].unwrap_or(false)
    }

    /// Exhaustive watched-literal and trail invariant checks, run after
    /// every conflict-free propagation fixpoint under the `checked`
    /// feature. O(total literals) per call — paranoia, not production.
    #[cfg(feature = "checked")]
    fn check_invariants(&self) {
        // Trail: fully propagated, every entry true, one entry per
        // assigned variable, levels within range.
        assert_eq!(
            self.qhead,
            self.trail.len(),
            "propagation queue not drained"
        );
        let mut on_trail = vec![false; self.num_vars()];
        for &l in &self.trail {
            assert_eq!(self.value(l), Some(true), "trail literal {l} not true");
            assert!(!on_trail[l.var()], "variable of {l} on trail twice");
            on_trail[l.var()] = true;
            assert!(
                self.level[l.var()] as usize <= self.trail_lim.len(),
                "literal {l} above current decision level"
            );
        }
        let assigned = self.assign.iter().filter(|a| a.is_some()).count();
        assert_eq!(assigned, self.trail.len(), "assignment off the trail");
        // Implied literals: reason clause propagates exactly them.
        for &l in &self.trail {
            if let Some(cref) = self.reason[l.var()] {
                let lits = &self.clauses[cref].lits;
                assert_eq!(lits[0], l, "reason clause head is not the implied literal");
                for &q in &lits[1..] {
                    assert_eq!(
                        self.value(q),
                        Some(false),
                        "reason tail literal {q} not false"
                    );
                }
            }
        }
        // Watches: every stored clause is watched by exactly its first two
        // literals, each appearing in the watch list of its negation.
        let mut watch_count = vec![0usize; self.clauses.len()];
        for (code, list) in self.watches.iter().enumerate() {
            let watched = Lit(code as u32).negated();
            for &cref in list {
                watch_count[cref] += 1;
                let lits = &self.clauses[cref].lits;
                assert!(
                    lits[0] == watched || lits[1] == watched,
                    "clause {cref} in watch list of non-watched literal {watched}"
                );
            }
        }
        for (cref, &n) in watch_count.iter().enumerate() {
            assert_eq!(n, 2, "clause {cref} has {n} watch entries, expected 2");
        }
        // No clause is falsified or unit-unpropagated at a fixpoint.
        for (cref, c) in self.clauses.iter().enumerate() {
            if c.lits.iter().any(|&l| self.value(l) == Some(true)) {
                continue;
            }
            let open = c.lits.iter().filter(|&&l| self.value(l).is_none()).count();
            if open < 2 {
                let detail: Vec<String> = c
                    .lits
                    .iter()
                    .map(|&l| format!("{l}={:?}@{}", self.value(l), self.level[l.var()]))
                    .collect();
                panic!(
                    "clause {cref} is {} at a propagation fixpoint: {detail:?}, cur_level={}",
                    if open == 0 { "falsified" } else { "unit" },
                    self.trail_lim.len()
                );
            }
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,…).
fn luby(mut i: u64) -> u64 {
    loop {
        // Find k with 2^k - 1 >= i
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_model(s: &SatSolver, clauses: &[Vec<Lit>]) {
        for c in clauses {
            assert!(
                c.iter().any(|l| s.model_value(l.var()) != l.is_neg()),
                "clause {c:?} not satisfied"
            );
        }
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(vec![Lit::pos(a)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(a));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(vec![Lit::pos(a)]));
        assert!(!s.add_clause(vec![Lit::neg(a)]) || s.solve() == SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(vec![]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(vec![Lit::pos(a), Lit::neg(a)]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = SatSolver::new();
        let vars: Vec<usize> = (0..10).map(|_| s.new_var()).collect();
        // x0 and (xi -> xi+1)
        assert!(s.add_clause(vec![Lit::pos(vars[0])]));
        for w in vars.windows(2) {
            assert!(s.add_clause(vec![Lit::neg(w[0]), Lit::pos(w[1])]));
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vars {
            assert!(s.model_value(v));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = SatSolver::new();
        let mut p = [[0usize; 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            assert!(s.add_clause(vec![Lit::pos(row[0]), Lit::pos(row[1])]));
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    assert!(s.add_clause(vec![Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]));
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_chain_sat() {
        // (a xor b) and (b xor c) and a  =>  model a=1,b=0,c=1
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let clauses = vec![
            vec![Lit::pos(a), Lit::pos(b)],
            vec![Lit::neg(a), Lit::neg(b)],
            vec![Lit::pos(b), Lit::pos(c)],
            vec![Lit::neg(b), Lit::neg(c)],
            vec![Lit::pos(a)],
        ];
        for c in &clauses {
            assert!(s.add_clause(c.clone()));
        }
        assert_eq!(s.solve(), SatResult::Sat);
        check_model(&s, &clauses);
        assert!(s.model_value(a));
        assert!(!s.model_value(b));
        assert!(s.model_value(c));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(vec![Lit::pos(a), Lit::pos(b)]));
        assert_eq!(s.solve(), SatResult::Sat);
        // Block the found model, resolve; repeat until UNSAT. There are
        // exactly 3 models of (a or b).
        let mut models = 0;
        loop {
            let block: Vec<Lit> = [a, b]
                .iter()
                .map(|&v| Lit::with_sign(v, !s.model_value(v)))
                .collect();
            models += 1;
            if !s.add_clause(block) || s.solve() == SatResult::Unsat {
                break;
            }
            assert!(models <= 3, "too many models");
        }
        assert_eq!(models, 3);
    }

    #[test]
    fn random_3sat_smoke() {
        // Deterministic pseudo-random 3-SAT instances around the phase
        // transition; verify models when SAT.
        let mut seed = 0xdeadbeefu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let n = 30;
            let m = 120;
            let mut s = SatSolver::new();
            let vars: Vec<usize> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            let mut ok = true;
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = vars[(rnd() % n as u64) as usize];
                    c.push(Lit::with_sign(v, rnd() % 2 == 0));
                }
                clauses.push(c.clone());
                if !s.add_clause(c) {
                    ok = false;
                    break;
                }
            }
            if ok && s.solve() == SatResult::Sat {
                check_model(&s, &clauses);
            }
        }
    }
}
