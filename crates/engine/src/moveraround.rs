//! Predicate move-around: **pull-up → transition → push-down** across the
//! whole plan tree, with synthesis at join boundaries where static
//! reasoning runs out of columns (the paper's contribution).
//!
//! The local rewriter in [`mod@crate::optimize`] only routes existing
//! conjuncts below a single join. This pass reasons globally:
//!
//! 1. **Pull-up** ([`pull_up`]): collect every filter conjunct and every
//!    join-equality predicate in the tree, with provenance (which node).
//! 2. **Transition**: close the gathered conjunction with
//!    [`sia_analyze::Closure`] — union-find equivalence classes over the
//!    join keys, constant propagation, substitution, and transitive zone
//!    bounds — yielding the predicates entailed at every node.
//! 3. **Push-down**: for each scan, attach the strongest entailed
//!    predicate over that scan's columns (minus anything the local rules
//!    would put there anyway). Where a predicate straddles a join
//!    boundary and no static fact covers its columns on one side, invoke
//!    [`Synthesizer::synthesize`] to *learn* a pushable predicate from
//!    the boundary conjunction.
//!
//! There is one pass, and one place in it that synthesizes: a boundary
//! synthesis is looked up in a [`PredicateCache`] first and stored there
//! after (`Synthesizer` holds no cache of its own). [`crate::Database`]
//! runs the pass over its own cache; [`move_around`], the reference, runs
//! it over a disabled one, so every blocked boundary is synthesized
//! afresh. Above the pass, [`crate::Database::optimized_plan`] memoizes
//! the whole optimized plan of a query it has planned before, so a
//! verbatim repeat runs no pass at all; the synthesis cache serves first
//! sights, whose boundaries may repeat across queries.
//!
//! # Soundness
//!
//! All joins in this engine are **inner** hash equi-joins and filters use
//! WHERE semantics (a row survives only when the predicate is TRUE; NULL
//! rejects). A derived predicate `d` over a scan's columns may be pushed
//! to that scan whenever `gathered ⇒ d` in the 3VL sense (whenever the
//! gathered conjunction is TRUE, `d` is TRUE): any output row of the full
//! plan restricts to a scan row on `d`'s columns with the same values, so
//! a scan row failing `d` (FALSE *or* NULL) cannot contribute to any
//! output row. This argument crosses inner-join boundaries freely; it
//! would **not** cross the null-padding side of an outer join, where only
//! null-rejecting predicates may move — the engine has no outer joins
//! today, but the scope rule is recorded here so the pass fails safe if
//! one is added: move-around must stop at any node that can pad with
//! NULLs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::optimize::schema_columns;
use crate::plan::Plan;
use sia_analyze::{Analyzer, Warning};
use sia_cache::{canonicalize, ColumnFacts, PredicateCache};
use sia_core::{Exit, PredEncoder, Prover, SiaConfig, Synthesizer, Validity};
use sia_expr::{Expr, Pred, Schema};

/// How much predicate movement the optimizer may do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MoveAround {
    /// No global movement (the local push-down rules still apply).
    #[default]
    Off,
    /// Static pull-up / transition / push-down only.
    Static,
    /// Static movement plus CEGIS synthesis at blocked join boundaries.
    Synthesis,
}

impl MoveAround {
    /// Parse a CLI mode name.
    pub fn parse(s: &str) -> Result<MoveAround, String> {
        match s {
            "off" => Ok(MoveAround::Off),
            "static" => Ok(MoveAround::Static),
            "synth" => Ok(MoveAround::Synthesis),
            other => Err(format!(
                "--mode must be off, static, or synth, got {other:?}"
            )),
        }
    }
}

/// One predicate gathered by pull-up, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct GatheredPred {
    /// The predicate (a single conjunct, or a join-key equality).
    pub pred: Pred,
    /// Node label: `Filter@/l/r`-style path from the root (`l`/`r` are
    /// join sides, `0` a unary input).
    pub node: String,
}

/// Walk the tree and gather every filter conjunct and join equality with
/// provenance. Pull-up is scope-safe for this plan algebra: `Filter` and
/// `Project` preserve rows, and `HashJoin` is inner, so every gathered
/// predicate holds (evaluates TRUE) on every row of the final output.
pub fn pull_up(plan: &Plan) -> Vec<GatheredPred> {
    fn go(plan: &Plan, path: &str, out: &mut Vec<GatheredPred>) {
        match plan {
            Plan::Scan { .. } => {}
            Plan::Filter { pred, input } => {
                for c in pred.conjuncts() {
                    out.push(GatheredPred {
                        pred: c.clone(),
                        node: format!("Filter@{path}"),
                    });
                }
                go(input, &format!("{path}/0"), out);
            }
            Plan::Project { input, .. } => go(input, &format!("{path}/0"), out),
            Plan::HashJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                out.push(GatheredPred {
                    pred: Expr::Column(left_key.clone()).eq_(Expr::Column(right_key.clone())),
                    node: format!("HashJoin@{path}"),
                });
                go(left, &format!("{path}/l"), out);
                go(right, &format!("{path}/r"), out);
            }
        }
    }
    let mut out = Vec::new();
    go(plan, "", &mut out);
    out
}

/// Where a synthesized push came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The synthesizer answered it, through this exit.
    Exit(Exit),
    /// The synthesis cache answered it, or the plan memo did.
    Cached,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Exit(exit) => write!(f, "{exit}"),
            Source::Cached => f.write_str("cached"),
        }
    }
}

/// One synthesis-learned predicate the pass pushed.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesized {
    /// The scan table it is attached above.
    pub table: String,
    /// The predicate.
    pub pred: Pred,
    /// Where it came from.
    pub source: Source,
}

/// What the move-around pass did to one plan.
#[derive(Debug, Clone, Default)]
pub struct MoveAroundReport {
    /// Everything pull-up gathered (filters and join equalities).
    pub gathered: Vec<GatheredPred>,
    /// Per scan table: the statically derived predicate attached there.
    pub derived: Vec<(String, Pred)>,
    /// Per scan table: the synthesis-learned predicate attached there.
    pub synthesized: Vec<Synthesized>,
    /// Boundary syntheses the cache answered (a "nothing learnable here"
    /// answer included).
    pub synthesis_hits: usize,
    /// Boundary syntheses that ran the synthesizer.
    pub synthesis_misses: usize,
    /// The gathered conjunction is statically unsatisfiable (the plan
    /// provably returns no rows).
    pub contradiction: bool,
}

impl MoveAroundReport {
    /// Scans that received at least one new predicate.
    pub fn scans_pushed(&self) -> usize {
        let mut tables: BTreeSet<&str> = BTreeSet::new();
        tables.extend(self.derived.iter().map(|(t, _)| t.as_str()));
        tables.extend(self.synthesized.iter().map(|s| s.table.as_str()));
        tables.len()
    }

    /// The gathered predicates as one conjunction (what every derived
    /// predicate is entailed by — the solver-check obligation).
    pub fn gathered_conjunction(&self) -> Pred {
        Pred::and_all(self.gathered.iter().map(|g| g.pred.clone()))
    }
}

impl fmt::Display for MoveAroundReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "gathered {} predicate(s):", self.gathered.len())?;
        for g in &self.gathered {
            writeln!(f, "  {} at {}", g.pred, g.node)?;
        }
        if self.contradiction {
            writeln!(f, "contradiction: the gathered predicates admit no row")?;
        }
        for (t, p) in &self.derived {
            writeln!(f, "derived for scan {t}: {p}")?;
        }
        for s in &self.synthesized {
            writeln!(
                f,
                "synthesized for scan {}: {} ({})",
                s.table, s.pred, s.source
            )?;
        }
        if self.derived.is_empty() && self.synthesized.is_empty() {
            writeln!(f, "nothing new to push")?;
        }
        Ok(())
    }
}

/// Scan tables of a plan, in tree order (duplicates preserved).
fn scan_tables(plan: &Plan) -> Vec<String> {
    match plan {
        Plan::Scan { table } => vec![table.clone()],
        Plan::Filter { input, .. } | Plan::Project { input, .. } => scan_tables(input),
        Plan::HashJoin { left, right, .. } => {
            let mut t = scan_tables(left);
            t.extend(scan_tables(right));
            t
        }
    }
}

/// Attach per-table predicates directly above their scans.
fn attach(plan: Plan, preds: &BTreeMap<String, Pred>) -> Plan {
    match plan {
        Plan::Scan { table } => {
            let extra = preds.get(&table).cloned().unwrap_or_else(Pred::true_);
            Plan::scan(table).filter(extra)
        }
        Plan::Filter { pred, input } => attach(*input, preds).filter(pred),
        Plan::Project { columns, input } => attach(*input, preds).project(columns),
        Plan::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => attach(*left, preds).hash_join(attach(*right, preds), left_key, right_key),
    }
}

/// Run the move-around pass with every boundary synthesized afresh: the
/// pass over a disabled cache. Returns the rewritten plan (derived
/// predicates attached above scans — the local rules then merge and order
/// them) and a report of what moved. `mode == Off` returns the plan
/// unchanged. This is the reference [`crate::Database::optimized_plan`]'s
/// cached pass and plan memo are tested against.
pub fn move_around(
    plan: Plan,
    schema_of: &impl Fn(&str) -> Option<Schema>,
    mode: MoveAround,
) -> (Plan, MoveAroundReport) {
    let (plan, report, _) = move_around_cached(plan, schema_of, mode, &PredicateCache::new(0));
    (plan, report)
}

/// What the static half of the pass knows about one scan.
struct Scan {
    table: String,
    cols: Vec<String>,
    /// What the local push-down rules would place here anyway: gathered
    /// conjuncts fully over this scan's columns.
    local: Vec<Pred>,
    /// Entailed conjuncts `local` does not already give, then whatever
    /// synthesis adds: the predicate to attach.
    new_parts: Vec<Pred>,
}

/// The move-around pass, with each boundary synthesis answered from
/// `cache` when it has been seen before. [`Synthesizer::synthesize`] is a
/// pure function of `(ctx, target)` and the column types of `ctx`, and the
/// typed canonical key holds all three, constants included, so a hit is
/// the predicate a miss would learn (mapped back to this query's column
/// names); a `None` result is stored as TRUE, so
/// "nothing learnable here" hits too. An error is not stored, and the
/// returned flag is false when any boundary synthesis returned one.
pub(crate) fn move_around_cached(
    plan: Plan,
    schema_of: &impl Fn(&str) -> Option<Schema>,
    mode: MoveAround,
    cache: &PredicateCache,
) -> (Plan, MoveAroundReport, bool) {
    if mode == MoveAround::Off {
        return (plan, MoveAroundReport::default(), true);
    }
    let gathered = pull_up(&plan);
    if gathered.is_empty() {
        return (plan, MoveAroundReport::default(), true);
    }
    let tables = scan_tables(&plan);
    let (analyzer, closure) = {
        let _span = sia_obs::span("moveraround.close");
        let analyzer = Analyzer::with_schemas(tables.iter().filter_map(|t| schema_of(t)));
        let conj = Pred::and_all(gathered.iter().map(|g| g.pred.clone()));
        let closure = analyzer.close(&conj);
        (analyzer, closure)
    };
    // `entailed_over` once per distinct column set: a scan's own columns,
    // and the far side of each boundary predicate.
    let mut entailed: BTreeMap<Vec<String>, Pred> = BTreeMap::new();
    let mut entailed_over = |cols: &[String]| -> Pred {
        if let Some(e) = entailed.get(cols) {
            return e.clone();
        }
        let e = closure.entailed_over(&analyzer, cols);
        entailed.insert(cols.to_vec(), e.clone());
        e
    };

    let mut scans: Vec<Scan> = Vec::new();
    {
        let _span = sia_obs::span("moveraround.entail");
        for table in tables {
            if scans.iter().any(|s| s.table == table) {
                continue; // same table scanned twice: predicates already attached
            }
            let Some(schema) = schema_of(&table) else {
                continue;
            };
            let cols = schema_columns(&schema);
            let local: Vec<Pred> = gathered
                .iter()
                .map(|g| &g.pred)
                .filter(|p| !p.columns().is_empty() && p.over_columns(&cols))
                .cloned()
                .collect();
            let local_conj = Pred::and_all(local.iter().cloned());
            let entailed = entailed_over(&cols);
            let new_parts: Vec<Pred> = entailed
                .conjuncts()
                .into_iter()
                .filter(|d| !d.is_true() && !local.contains(d))
                .filter(|d| local.is_empty() || !analyzer.implies(&local_conj, d))
                .cloned()
                .collect();
            scans.push(Scan {
                table,
                cols,
                local,
                new_parts,
            });
        }
    }
    let derived: Vec<(String, Pred)> = scans
        .iter()
        .flat_map(|s| s.new_parts.iter().map(|p| (s.table.clone(), p.clone())))
        .collect();
    let mut report = MoveAroundReport {
        contradiction: closure.contradictory(),
        derived,
        ..MoveAroundReport::default()
    };

    // Synthesis at blocked join boundaries: a gathered predicate that
    // straddles a scan (mentions its columns and others) with no static
    // fact covering its columns there.
    let mut answered = true;
    if mode == MoveAround::Synthesis {
        // The scan schemas declare each column's type: the exact-shadow
        // exit reads them, so the cache key carries them too.
        let mut syn = Synthesizer::new(SiaConfig::default()).with_columns(analyzer.clone());
        let facts = |c: &str| ColumnFacts {
            real: analyzer.is_real(c),
            date: analyzer.is_date(c),
            nullable: analyzer.is_nullable(c),
        };
        let _span = sia_obs::span("moveraround.boundaries");
        for scan in &mut scans {
            let known: Vec<Pred> = scan.local.iter().chain(&scan.new_parts).cloned().collect();
            let known_conj = Pred::and_all(known.iter().cloned());
            for g in &gathered {
                let gcols = g.pred.columns();
                let (target, others): (Vec<String>, Vec<String>) =
                    gcols.into_iter().partition(|c| scan.cols.contains(c));
                if target.is_empty() || others.is_empty() {
                    continue; // no overlap, or not a boundary predicate
                }
                let statically_covered = known
                    .iter()
                    .any(|k| !k.columns().is_empty() && k.over_columns(&target));
                if statically_covered {
                    continue;
                }
                // Context the learner may assume: the boundary predicate
                // plus everything entailed about its *other* columns.
                let ctx = g.pred.clone().and(entailed_over(&others));
                let canon = canonicalize(&ctx).typed(facts);
                let (learned, source) = match cache.lookup(&canon, &target) {
                    Some(hit) => {
                        debug_assert!(
                            matches!(
                                Prover(&mut PredEncoder::new()).implies(&ctx, &hit.predicate),
                                Ok((Validity::Valid, _))
                            ),
                            "cached `{}` is not implied by `{ctx}`",
                            hit.predicate
                        );
                        report.synthesis_hits += 1;
                        (
                            (!hit.predicate.is_true()).then_some(hit.predicate),
                            Source::Cached,
                        )
                    }
                    None => {
                        report.synthesis_misses += 1;
                        let Ok(r) = syn.synthesize(&ctx, &target) else {
                            answered = false;
                            continue;
                        };
                        let stored = r.predicate.as_ref().unwrap_or(&Pred::Lit(true));
                        cache.insert(&canon, &target, stored, r.optimal);
                        (r.predicate, Source::Exit(r.exit))
                    }
                };
                let Some(p) = learned else { continue };
                if analyzer.statically_true(&p)
                    || (!known.is_empty() && analyzer.implies(&known_conj, &p))
                {
                    continue;
                }
                report.synthesized.push(Synthesized {
                    table: scan.table.clone(),
                    pred: p.clone(),
                    source,
                });
                scan.new_parts.push(p);
            }
        }
    }
    report.gathered = gathered;
    let attachments: BTreeMap<String, Pred> = scans
        .into_iter()
        .filter(|s| !s.new_parts.is_empty())
        .map(|s| (s.table, Pred::and_all(s.new_parts)))
        .collect();
    (attach(plan, &attachments), report, answered)
}

/// Plan-level lint: unreachable filters, redundant predicates, and join
/// equalities that contradict scan filters. Uses the same [`Warning`]
/// type and severity contract as predicate lint (`sia lint` exits 3 on
/// error-severity findings).
pub fn lint_plan(plan: &Plan, schema_of: &impl Fn(&str) -> Option<Schema>) -> Vec<Warning> {
    const MAX_WARNINGS: usize = 16;
    let mut out: Vec<Warning> = Vec::new();
    let push = |out: &mut Vec<Warning>, code: &'static str, message: String| {
        if out.len() < MAX_WARNINGS {
            out.push(Warning {
                code,
                message: message.replace("; ", ", "),
            });
        }
    };
    let gathered = pull_up(plan);
    if gathered.is_empty() {
        return out;
    }
    let analyzer = Analyzer::with_schemas(scan_tables(plan).iter().filter_map(|t| schema_of(t)));
    let is_join_eq = |g: &GatheredPred| g.node.starts_with("HashJoin@");
    let filters_conj = Pred::and_all(
        gathered
            .iter()
            .filter(|g| !is_join_eq(g))
            .map(|g| g.pred.clone()),
    );
    let filters_sat = !analyzer.statically_unsat(&filters_conj);
    for (i, g) in gathered.iter().enumerate() {
        let rest = Pred::and_all(
            gathered
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, h)| h.pred.clone()),
        );
        if is_join_eq(g) {
            // A join equality that turns a satisfiable filter set into a
            // contradiction: the join can never produce a row.
            if filters_sat && analyzer.statically_unsat(&filters_conj.clone().and(g.pred.clone())) {
                push(
                    &mut out,
                    "plan-join-contradiction",
                    format!(
                        "join equality `{}` at {} contradicts the scan filters",
                        g.pred, g.node
                    ),
                );
            }
        } else if analyzer.statically_unsat(&g.pred) {
            push(
                &mut out,
                "plan-unreachable-filter",
                format!("filter `{}` at {} can never be TRUE", g.pred, g.node),
            );
        } else if analyzer.statically_unsat(&g.pred.clone().and(rest.clone())) {
            push(
                &mut out,
                "plan-unreachable-filter",
                format!(
                    "filter `{}` at {} can never be TRUE given the rest of the plan",
                    g.pred, g.node
                ),
            );
        } else if !rest.is_true() && analyzer.implies(&rest, &g.pred) {
            push(
                &mut out,
                "plan-redundant-predicate",
                format!(
                    "predicate `{}` at {} is implied by the rest of the plan",
                    g.pred, g.node
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::{col, lit, ColumnDef, DataType};

    fn schema_of(name: &str) -> Option<Schema> {
        let cols = |ns: &[&str]| {
            Schema::new(
                ns.iter()
                    .map(|n| ColumnDef::new(*n, DataType::Integer))
                    .collect(),
            )
        };
        match name {
            "t1" => Some(cols(&["id1", "v1"])),
            "t2" => Some(cols(&["id2", "v2"])),
            "t3" => Some(cols(&["id3", "v3"])),
            "t4" => Some(cols(&["id4", "v4"])),
            _ => None,
        }
    }

    /// The snippet-1 four-table chain with the selective filter on t4.
    fn chain_plan() -> Plan {
        Plan::scan("t1")
            .hash_join(Plan::scan("t2"), "id1", "id2")
            .hash_join(Plan::scan("t3"), "id2", "id3")
            .hash_join(Plan::scan("t4"), "id3", "id4")
            .filter(col("id4").gt(lit(2020)))
    }

    #[test]
    fn pull_up_gathers_filters_and_join_keys() {
        let g = pull_up(&chain_plan());
        // 1 filter conjunct + 3 join equalities.
        assert_eq!(g.len(), 4);
        assert!(g.iter().any(|x| x.node == "Filter@"));
        assert!(g.iter().filter(|x| x.node.starts_with("HashJoin@")).count() == 3);
    }

    #[test]
    fn static_move_around_pushes_to_every_scan() {
        let (plan, report) = move_around(chain_plan(), &schema_of, MoveAround::Static);
        // id1/id2/id3 > 2020 derived for the other three scans.
        assert_eq!(report.derived.len(), 3, "report:\n{report}");
        assert_eq!(report.scans_pushed(), 3);
        assert!(report.synthesized.is_empty());
        assert!(!report.contradiction);
        // Every derived predicate sits above its scan.
        assert_eq!(plan.filters_below_joins(), 3, "plan:\n{plan}");
    }

    #[test]
    fn off_mode_is_identity() {
        let p = chain_plan();
        let (q, report) = move_around(p.clone(), &schema_of, MoveAround::Off);
        assert_eq!(p, q);
        assert!(report.gathered.is_empty());
    }

    #[test]
    fn derived_skips_what_local_rules_already_push() {
        // The single-table conjunct id4 > 2020 is local to t4: move-around
        // must not duplicate it there.
        let (_, report) = move_around(chain_plan(), &schema_of, MoveAround::Static);
        assert!(
            report.derived.iter().all(|(t, _)| t != "t4"),
            "t4 got a redundant derived predicate: {report}"
        );
    }

    #[test]
    fn synthesis_fires_at_blocked_boundary() {
        // 2·v1 ≤ 3·v4 is outside the zone fragment, so no static fact
        // covers v1; with v4 ≤ 20 in scope the learner can still derive
        // a sound bound on v1 alone (v1 ≤ 30).
        let plan = Plan::scan("t1")
            .hash_join(Plan::scan("t4"), "id1", "id4")
            .filter(
                col("v1")
                    .mul(lit(2))
                    .le(col("v4").mul(lit(3)))
                    .and(col("v4").le(lit(20))),
            );
        let (_, st) = move_around(plan.clone(), &schema_of, MoveAround::Static);
        assert!(st.synthesized.is_empty());
        assert!(
            st.derived.iter().all(|(t, _)| t != "t1"),
            "static pass unexpectedly covered v1: {st}"
        );
        let (opt, report) = move_around(plan, &schema_of, MoveAround::Synthesis);
        let t1_learned: Vec<&Pred> = report
            .synthesized
            .iter()
            .filter(|s| s.table == "t1")
            .map(|s| &s.pred)
            .collect();
        assert!(
            !t1_learned.is_empty(),
            "synthesis produced nothing for t1: {report}\nplan:\n{opt}"
        );
        // Each learned predicate ranges over t1's columns only (it is
        // pushable) — the bench's solver check covers soundness.
        let t1_cols = ["id1".to_string(), "v1".to_string()];
        for p in t1_learned {
            assert!(p.over_columns(&t1_cols), "learned {p} not over t1");
        }
    }

    #[test]
    fn lint_plan_flags_unreachable_and_contradicting_joins() {
        // v1 < 0 ∧ v1 > 10 at one filter: unreachable.
        let p = Plan::scan("t1").filter(col("v1").lt(lit(0)).and(col("v1").gt(lit(10))));
        let w = lint_plan(&p, &schema_of);
        assert!(
            w.iter().any(|x| x.code == "plan-unreachable-filter"),
            "{w:?}"
        );
        assert!(w.iter().any(|x| x.severity() == "error"));

        // id1 = id2 with id1 < 0 and id2 > 10: the join contradicts the
        // scan filters.
        let p = Plan::scan("t1").filter(col("id1").lt(lit(0))).hash_join(
            Plan::scan("t2").filter(col("id2").gt(lit(10))),
            "id1",
            "id2",
        );
        let w = lint_plan(&p, &schema_of);
        assert!(
            w.iter().any(|x| x.code == "plan-join-contradiction"),
            "{w:?}"
        );
    }

    #[test]
    fn lint_plan_flags_redundant_predicates() {
        // id4 > 2020 at the top makes a weaker id4 > 2000 below redundant.
        let p = Plan::scan("t4")
            .filter(col("id4").gt(lit(2000)))
            .filter(col("id4").gt(lit(2020)));
        let w = lint_plan(&p, &schema_of);
        assert!(
            w.iter().any(|x| x.code == "plan-redundant-predicate"),
            "{w:?}"
        );
        // A clean plan lints clean.
        let ok = chain_plan();
        assert!(lint_plan(&ok, &schema_of).is_empty());
    }
}
