//! The rule-based request generator: seed-deterministic predicate synthesis
//! requests with controllable shape, selectivity, zone eligibility,
//! repetition, and drift.

use std::collections::HashMap;

use sia_expr::{eval_pred, CmpOp, Date, Expr, Pred, Value};
use sia_obs::{add, Counter};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};

use crate::config::{GenConfig, ZonePolicy};
use crate::schema::{table, ColumnSpec, TableSpec};

/// Salt XORed into the config seed for row sampling, so the sampled data and
/// the predicate draws are independent streams.
const SAMPLE_SALT: u64 = 0x005A_3ED0_u64;

/// Maximum IN-list length.
const MAX_IN_LIST: usize = 5;

/// Number of rows sampled per table for selectivity estimation.
const SAMPLE_ROWS: usize = 256;

/// Fresh-template redraw budget when chasing a selectivity target.
const MAX_RETRIES: usize = 16;

/// One generated predicate-synthesis request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    /// Request id (`g0`, `g1`, …).
    pub id: String,
    /// Table the predicate ranges over.
    pub table: String,
    /// The generated predicate.
    pub predicate: Pred,
    /// Columns the synthesized predicate may mention (the predicate's own
    /// columns).
    pub cols: Vec<String>,
    /// Selectivity measured on sampled rows (fraction of rows where the
    /// predicate evaluates TRUE under three-valued logic). `None` for
    /// presets that delegate to the paper's workload builder, which has no
    /// sampling bed.
    pub est_selectivity: Option<f64>,
    /// Index of the earlier request this one repeats, if any.
    pub template: Option<usize>,
}

/// Sampled rows with a column-name index, the generator's estimation bed.
struct SampleSet {
    idx: HashMap<String, usize>,
    rows: Vec<Vec<Value>>,
}

impl SampleSet {
    fn new(spec: &TableSpec, n: usize, seed: u64) -> SampleSet {
        let idx = spec
            .cols
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.to_string(), i))
            .collect();
        SampleSet {
            idx,
            rows: spec.sample(n.max(16), seed),
        }
    }

    /// Fraction of sampled rows where `p` evaluates TRUE (NULL counts as
    /// not-selected, matching WHERE semantics).
    fn selectivity(&self, p: &Pred) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let hits = self
            .rows
            .iter()
            .filter(|row| {
                eval_pred(p, &|name: &str| {
                    self.idx.get(name).map_or(Value::Null, |i| row[*i])
                }) == Some(true)
            })
            .count();
        hits as f64 / self.rows.len() as f64
    }

    /// Non-NULL values of `e` over the sample, sorted ascending. Empty when
    /// every row evaluates NULL.
    fn sorted_values(&self, e: &Expr) -> Vec<Value> {
        let mut vals: Vec<Value> = self
            .rows
            .iter()
            .filter_map(|row| {
                let v = sia_expr::eval_expr(e, &|name: &str| {
                    self.idx.get(name).map_or(Value::Null, |i| row[*i])
                });
                v.as_f64().map(|_| v)
            })
            .collect();
        vals.sort_by(|a, b| {
            a.as_f64()
                .partial_cmp(&b.as_f64())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        vals
    }

    /// Values of column `name` over rows satisfying `p`, sorted ascending.
    fn satisfying_values(&self, p: &Pred, name: &str) -> Vec<Value> {
        let Some(&ci) = self.idx.get(name) else {
            return Vec::new();
        };
        let mut vals: Vec<Value> = self
            .rows
            .iter()
            .filter(|row| {
                eval_pred(p, &|n: &str| {
                    self.idx.get(n).map_or(Value::Null, |i| row[*i])
                }) == Some(true)
            })
            .filter_map(|row| row[ci].as_f64().map(|_| row[ci]))
            .collect();
        vals.sort_by(|a, b| {
            a.as_f64()
                .partial_cmp(&b.as_f64())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        vals
    }
}

/// Pick the value at quantile `q` (0..=1) of a sorted non-empty slice.
fn quantile(vals: &[Value], q: f64) -> Value {
    let n = vals.len();
    let i = ((q.clamp(0.0, 1.0)) * (n - 1) as f64).round() as usize;
    vals[i.min(n - 1)]
}

/// Turn a sampled `Value` into a typed literal expression for column type
/// `ty` (dates travel as `Value::Int` epoch days in the sampler).
fn literal(v: Value, ty: sia_expr::DataType) -> Expr {
    match (v, ty) {
        (Value::Int(d), sia_expr::DataType::Date) => Expr::Date(Date::from_days(d)),
        (Value::Int(i), _) => Expr::Int(i),
        (Value::Double(x), _) => Expr::Double((x * 100.0).round() / 100.0),
        // NULL/Bool never reach here: sorted_values filters non-numeric.
        _ => Expr::Int(0),
    }
}

/// An atom's zone-fragment family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Unit-coefficient bound or difference: static derivation stays exact.
    Eligible,
    /// Sum, scaled, or divided column: forces the learner/solver path.
    Ineligible,
}

/// Everything `generate` threads through recursive construction.
struct Ctx<'a> {
    cfg: &'a GenConfig,
    spec: &'a TableSpec,
    samples: &'a SampleSet,
}

impl Ctx<'_> {
    /// Numeric (non-dictionary) columns, the operands for ordered atoms.
    fn numeric_cols(&self) -> Vec<&ColumnSpec> {
        self.spec.cols.iter().filter(|c| !c.is_dict()).collect()
    }

    /// Dictionary-encoded categorical columns.
    fn dict_cols(&self) -> Vec<&ColumnSpec> {
        self.spec.cols.iter().filter(|c| c.is_dict()).collect()
    }

    /// Pick a column from `pool`, preferring nullable ones with probability
    /// `null_weight`.
    fn pick_col<'c>(&self, pool: &[&'c ColumnSpec], rng: &mut StdRng) -> &'c ColumnSpec {
        assert!(!pool.is_empty(), "column pool must be non-empty");
        if self.cfg.null_weight > 0.0 && rng.gen_bool(self.cfg.null_weight) {
            let nullable: Vec<&&ColumnSpec> = pool.iter().filter(|c| c.null_rate > 0.0).collect();
            if !nullable.is_empty() {
                return nullable[rng.gen_range(0..nullable.len())];
            }
        }
        pool[rng.gen_range(0..pool.len())]
    }

    fn random_cmp(&self, rng: &mut StdRng) -> CmpOp {
        match rng.gen_range(0..8_u32) {
            0..=2 => CmpOp::Lt,
            3..=4 => CmpOp::Le,
            5..=6 => CmpOp::Gt,
            _ => CmpOp::Ge,
        }
    }

    /// Draw a constant for `lhs CMP c` aiming at atom selectivity `t`.
    fn bound_for(&self, lhs: &Expr, op: CmpOp, t: f64, rng: &mut StdRng) -> Option<Value> {
        let vals = self.samples.sorted_values(lhs);
        if vals.is_empty() {
            return None;
        }
        let q = match op {
            CmpOp::Lt | CmpOp::Le => t,
            CmpOp::Gt | CmpOp::Ge => 1.0 - t,
            // Equality bounds aren't quantile-driven; pick any value.
            CmpOp::Eq | CmpOp::Ne => rng.gen_unit_f64(),
        };
        Some(quantile(&vals, q))
    }

    /// A zone-eligible atom: range, BETWEEN, IN-list, or column difference.
    fn eligible_atom(&self, t: f64, rng: &mut StdRng) -> Pred {
        let dicts = self.dict_cols();
        if !dicts.is_empty() && rng.gen_bool(self.cfg.in_list_rate) {
            return self.in_list_atom(t, rng);
        }
        let numeric = self.numeric_cols();
        if rng.gen_bool(self.cfg.between_rate) {
            return self.between_atom(&numeric, t, rng);
        }
        // Column difference between two same-typed columns, when available.
        if rng.gen_bool(0.3) {
            if let Some(p) = self.diff_atom(&numeric, t, rng) {
                return p;
            }
        }
        self.range_atom(&numeric, t, rng)
    }

    fn range_atom(&self, pool: &[&ColumnSpec], t: f64, rng: &mut StdRng) -> Pred {
        let c = self.pick_col(pool, rng);
        let op = self.random_cmp(rng);
        let lhs = Expr::col(c.name);
        match self.bound_for(&lhs, op, t, rng) {
            Some(v) => lhs.cmp(op, literal(v, c.ty)),
            None => lhs.cmp(op, literal(Value::Int(0), c.ty)),
        }
    }

    /// `c BETWEEN lo AND hi` as a conjunction of two unit bounds, the band
    /// covering roughly fraction `t` of the sampled rows.
    fn between_atom(&self, pool: &[&ColumnSpec], t: f64, rng: &mut StdRng) -> Pred {
        let c = self.pick_col(pool, rng);
        let lhs = Expr::col(c.name);
        let vals = self.samples.sorted_values(&lhs);
        if vals.is_empty() {
            return lhs.ge(literal(Value::Int(0), c.ty));
        }
        let width = t.clamp(0.01, 1.0);
        let start = rng.gen_unit_f64() * (1.0 - width);
        let lo = quantile(&vals, start);
        let hi = quantile(&vals, start + width);
        Expr::col(c.name)
            .ge(literal(lo, c.ty))
            .and(lhs.le(literal(hi, c.ty)))
    }

    /// `c - d CMP k` over two same-typed numeric columns.
    fn diff_atom(&self, pool: &[&ColumnSpec], t: f64, rng: &mut StdRng) -> Option<Pred> {
        let a = self.pick_col(pool, rng);
        let partners: Vec<&&ColumnSpec> = pool
            .iter()
            .filter(|c| c.name != a.name && c.ty == a.ty)
            .collect();
        if partners.is_empty() {
            return None;
        }
        let b = partners[rng.gen_range(0..partners.len())];
        let lhs = Expr::col(a.name).sub(Expr::col(b.name));
        let op = self.random_cmp(rng);
        let v = self.bound_for(&lhs, op, t, rng)?;
        // A date difference is an interval: always an integer literal.
        Some(lhs.cmp(op, literal(v, sia_expr::DataType::Integer)))
    }

    /// IN-list over a dictionary column, encoded as a disjunction of
    /// equalities; list length tracks the target selectivity.
    fn in_list_atom(&self, t: f64, rng: &mut StdRng) -> Pred {
        let dicts = self.dict_cols();
        let c = self.pick_col(&dicts, rng);
        let card = match c.dist {
            crate::schema::Dist::IntDict { cardinality } => cardinality.max(1),
            _ => 8,
        };
        let want = ((t * card as f64).round() as usize).clamp(1, MAX_IN_LIST);
        let mut codes: Vec<i64> = Vec::with_capacity(want);
        while codes.len() < want {
            let code = rng.gen_range(0..card);
            if !codes.contains(&code) {
                codes.push(code);
            }
        }
        Pred::or_all(
            codes
                .into_iter()
                .map(|code| Expr::col(c.name).eq_(Expr::Int(code))),
        )
    }

    /// A zone-ineligible atom — one whose canonical linear form has a
    /// non-unit coefficient key, which downgrades static derivation from
    /// exact to bounds and forces the learner/solver path.
    ///
    /// Single-variable scaled or divided atoms (`2*c ⋈ k`, `c/3 ⋈ q`) do NOT
    /// qualify: canonicalization normalizes their coefficient back to one.
    /// Ineligibility needs two variables whose coefficients cannot both be
    /// normalized: `c + d ⋈ k`, `k*c - d ⋈ k`, or `c/k + d ⋈ q` (a
    /// truncating quotient is one opaque variable, so `c/k - d` would be a
    /// plain difference).
    fn ineligible_atom(&self, t: f64, rng: &mut StdRng) -> Pred {
        let numeric = self.numeric_cols();
        let Some((c, d)) = self.ineligible_pair(&numeric, rng) else {
            // No usable pair (registry tables always have one; a custom
            // single-column table would land here): fall back to eligible.
            return self.range_atom(&numeric, t, rng);
        };
        let both_int = c.ty == sia_expr::DataType::Integer && d.ty == sia_expr::DataType::Integer;
        let lhs = if both_int && rng.gen_bool(self.cfg.div_rate) {
            // Divisibility-style: `c / k + d ⋈ q`.
            let k = rng.gen_range(2..=7_i64);
            Expr::col(c.name).div(Expr::Int(k)).add(Expr::col(d.name))
        } else if rng.gen_bool_fair() {
            // Scaled: `k*c - d ⋈ q`.
            let k = rng.gen_range(2..=5_i64);
            Expr::Int(k).mul(Expr::col(c.name)).sub(Expr::col(d.name))
        } else {
            // Sum: `c + d ⋈ q`.
            Expr::col(c.name).add(Expr::col(d.name))
        };
        let op = self.random_cmp(rng);
        match self.bound_for(&lhs, op, t, rng) {
            Some(v) => {
                // Composite results are plain numbers even over date columns
                // (date - date is an interval), so never a DATE literal.
                let ty = if matches!(v, Value::Double(_)) {
                    sia_expr::DataType::Double
                } else {
                    sia_expr::DataType::Integer
                };
                lhs.cmp(op, literal(v, ty))
            }
            None => lhs.cmp(op, Expr::Int(0)),
        }
    }

    /// Two distinct numeric columns usable in one composite atom: same-typed
    /// (date pairs make interval arithmetic), or mixed-typed as long as
    /// neither is a date (a lone date in a composite would read as a
    /// date-vs-integer comparison and trip the type linter).
    fn ineligible_pair<'c>(
        &self,
        pool: &[&'c ColumnSpec],
        rng: &mut StdRng,
    ) -> Option<(&'c ColumnSpec, &'c ColumnSpec)> {
        let mut pairs: Vec<(&ColumnSpec, &ColumnSpec)> = Vec::new();
        for (i, c) in pool.iter().enumerate() {
            for (j, d) in pool.iter().enumerate() {
                if i == j {
                    continue;
                }
                let same = c.ty == d.ty;
                let no_dates = c.ty != sia_expr::DataType::Date && d.ty != sia_expr::DataType::Date;
                if same || no_dates {
                    pairs.push((c, d));
                }
            }
        }
        if pairs.is_empty() {
            return None;
        }
        Some(pairs[rng.gen_range(0..pairs.len())])
    }

    fn atom(&self, family: Family, t: f64, rng: &mut StdRng) -> Pred {
        match family {
            Family::Eligible => self.eligible_atom(t, rng),
            Family::Ineligible => self.ineligible_atom(t, rng),
        }
    }

    /// Family for one atom under the configured policy. `force` pins the
    /// atom ineligible regardless of dice.
    fn family(&self, force: bool, rng: &mut StdRng) -> Family {
        if force {
            return Family::Ineligible;
        }
        match self.cfg.zone {
            ZonePolicy::Eligible => Family::Eligible,
            ZonePolicy::Ineligible | ZonePolicy::Any => {
                // `Any` mixes in ineligible atoms at the div rate; forced
                // atoms already guarantee the Ineligible policy's invariant.
                if self.cfg.zone == ZonePolicy::Any && rng.gen_bool(self.cfg.div_rate * 0.5) {
                    Family::Ineligible
                } else {
                    Family::Eligible
                }
            }
        }
    }

    /// One top-level term: an atom, or (at `nest_rate`) a nested group of
    /// the opposite connective. `force_inel` guarantees the term contains
    /// at least one ineligible atom.
    fn term(&self, top_is_and: bool, t: f64, force_inel: bool, rng: &mut StdRng) -> Pred {
        if rng.gen_bool(self.cfg.nest_rate) {
            let n = rng.gen_range(2..=3_usize);
            // Selectivity algebra per nested connective: a disjunction of n
            // atoms needs each at 1-(1-t)^(1/n); a conjunction needs t^(1/n).
            let sub_t = if top_is_and {
                1.0 - (1.0 - t.clamp(0.01, 0.99)).powf(1.0 / n as f64)
            } else {
                t.clamp(0.01, 0.99).powf(1.0 / n as f64)
            };
            let forced_at = force_inel.then(|| rng.gen_range(0..n));
            let parts: Vec<Pred> = (0..n)
                .map(|i| {
                    let fam = self.family(forced_at == Some(i), rng);
                    self.atom(fam, sub_t, rng)
                })
                .collect();
            if top_is_and {
                Pred::or_all(parts)
            } else {
                Pred::and_all(parts)
            }
        } else {
            let fam = self.family(force_inel, rng);
            self.atom(fam, t, rng)
        }
    }

    /// Draw one whole predicate.
    fn predicate(&self, rng: &mut StdRng) -> Pred {
        let n = rng.gen_range(self.cfg.min_terms..=self.cfg.max_terms);
        let top_is_and = rng.gen_bool(self.cfg.cnf_weight);
        let target = self.cfg.target_selectivity.unwrap_or(0.3);
        // Per-term selectivity so n combined terms land near the target.
        let t = if top_is_and {
            target.clamp(0.01, 0.99).powf(1.0 / n as f64)
        } else {
            1.0 - (1.0 - target.clamp(0.01, 0.99)).powf(1.0 / n as f64)
        };
        // Ineligible policy: under a conjunction one forced atom taints every
        // DNF disjunct of the whole predicate; under a disjunction every
        // top-level term needs its own.
        let forced_term = match self.cfg.zone {
            ZonePolicy::Ineligible if top_is_and => Some(rng.gen_range(0..n)),
            _ => None,
        };
        let terms: Vec<Pred> = (0..n)
            .map(|i| {
                let force = match self.cfg.zone {
                    ZonePolicy::Ineligible => {
                        if top_is_and {
                            forced_term == Some(i)
                        } else {
                            true
                        }
                    }
                    _ => false,
                };
                self.term(top_is_and, t, force, rng)
            })
            .collect();
        if top_is_and {
            Pred::and_all(terms)
        } else {
            Pred::or_all(terms)
        }
    }

    /// Conjoin or disjoin a band to pull measured selectivity toward the
    /// target. Returns the repaired predicate (unverified — caller
    /// re-measures).
    fn repair(&self, p: &Pred, sel: f64, target: f64, rng: &mut StdRng) -> Option<Pred> {
        add(Counter::GenRepairs, 1);
        let numeric = self.numeric_cols();
        if numeric.is_empty() {
            return None;
        }
        if sel > target {
            // Overshoot: conjoin an upper bound keeping target/sel of the
            // currently-satisfying rows. Conjoining never reopens the
            // static-derivation path: an already-ineligible conjunction
            // stays ineligible whatever we AND onto it.
            let c = self.pick_col(&numeric, rng);
            let vals = self.samples.satisfying_values(p, c.name);
            if vals.is_empty() {
                return None;
            }
            let keep = (target / sel).clamp(0.0, 1.0);
            let v = quantile(&vals, keep);
            Some(p.clone().and(Expr::col(c.name).le(literal(v, c.ty))))
        } else {
            // Undershoot: disjoin a quantile band adding the missing rows.
            // Under the Ineligible policy the new disjunct needs its own
            // ineligible atom, or static derivation could discharge it
            // exactly; a wide composite bound costs little selectivity.
            let missing = (target - sel).clamp(0.01, 1.0);
            let mut band = self.between_atom(&numeric, missing, rng);
            if self.cfg.zone == ZonePolicy::Ineligible {
                band = band.and(self.ineligible_atom(0.97, rng));
            }
            Some(p.clone().or(band))
        }
    }
}

/// Nudge every comparison constant of `p` (small typed deltas). Columns and
/// expression structure are untouched, so the drifted predicate canonicalizes
/// to the same template with different parameters — a cache near-miss.
fn drift(p: &Pred, rng: &mut StdRng) -> Pred {
    match p {
        Pred::Lit(_) => p.clone(),
        Pred::Cmp { op, lhs, rhs } => {
            let nudged = match rhs {
                Expr::Int(v) => Expr::Int(v.saturating_add(rng.gen_range(1..=5_i64))),
                Expr::Double(x) => Expr::Double(((x * 1.03 + 0.5) * 100.0).round() / 100.0),
                Expr::Date(d) => Expr::Date(Date::from_days(
                    d.to_days().saturating_add(rng.gen_range(1..=14_i64)),
                )),
                other => other.clone(),
            };
            Pred::Cmp {
                op: *op,
                lhs: lhs.clone(),
                rhs: nudged,
            }
        }
        Pred::And(ps) => Pred::And(ps.iter().map(|q| drift(q, rng)).collect()),
        Pred::Or(ps) => Pred::Or(ps.iter().map(|q| drift(q, rng)).collect()),
        Pred::Not(q) => Pred::Not(Box::new(drift(q, rng))),
    }
}

/// Generate a workload from `cfg`. Deterministic: the same config (including
/// seed) always yields the identical request list.
pub fn generate(cfg: &GenConfig) -> Result<Vec<GenRequest>, String> {
    if cfg.min_terms == 0 || cfg.max_terms < cfg.min_terms {
        return Err(format!(
            "invalid term bounds {}..={}",
            cfg.min_terms, cfg.max_terms
        ));
    }
    if let Some(t) = cfg.target_selectivity {
        if !(0.0..=1.0).contains(&t) {
            return Err(format!("target selectivity {t} outside [0, 1]"));
        }
    }
    let spec = table(&cfg.table).ok_or_else(|| format!("unknown table {:?}", cfg.table))?;
    let samples = SampleSet::new(&spec, SAMPLE_ROWS, cfg.seed ^ SAMPLE_SALT);
    let ctx = Ctx {
        cfg,
        spec: &spec,
        samples: &samples,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out: Vec<GenRequest> = Vec::with_capacity(cfg.count);

    for i in 0..cfg.count {
        add(Counter::GenRequests, 1);
        let id = format!("g{i}");

        // Repetition: replay an earlier template, optionally with drifted
        // parameters (same canonical template, different constants).
        if !out.is_empty() && rng.gen_bool(cfg.repeat_rate) {
            add(Counter::GenRepeats, 1);
            let j = rng.gen_range(0..out.len());
            let (predicate, est) = if rng.gen_bool(cfg.drift_rate) {
                let p = drift(&out[j].predicate, &mut rng);
                let est = Some(samples.selectivity(&p));
                (p, est)
            } else {
                (out[j].predicate.clone(), out[j].est_selectivity)
            };
            let cols = predicate.columns();
            out.push(GenRequest {
                id,
                table: cfg.table.clone(),
                predicate,
                cols,
                est_selectivity: est,
                template: Some(j),
            });
            continue;
        }

        // Fresh template: draw, then chase the selectivity target.
        let mut best = ctx.predicate(&mut rng);
        let mut best_sel = samples.selectivity(&best);
        if let Some(target) = cfg.target_selectivity {
            let tol = cfg.selectivity_tolerance.max(0.005);
            let mut tries = 0;
            while (best_sel - target).abs() > tol && tries < MAX_RETRIES {
                add(Counter::GenRetries, 1);
                tries += 1;
                let cand = ctx.predicate(&mut rng);
                let sel = samples.selectivity(&cand);
                if (sel - target).abs() < (best_sel - target).abs() {
                    best = cand;
                    best_sel = sel;
                }
            }
            // Redraws alone rarely land inside a tight tolerance; repair the
            // best draw with a quantile band and keep it if it improves.
            let mut repairs = 0;
            while (best_sel - target).abs() > tol && repairs < 4 {
                repairs += 1;
                let Some(fixed) = ctx.repair(&best, best_sel, target, &mut rng) else {
                    break;
                };
                let sel = samples.selectivity(&fixed);
                if (sel - target).abs() < (best_sel - target).abs() {
                    best = fixed;
                    best_sel = sel;
                } else {
                    break;
                }
            }
        }
        let cols = best.columns();
        out.push(GenRequest {
            id,
            table: cfg.table.clone(),
            predicate: best,
            cols,
            est_selectivity: Some(best_sel),
            template: None,
        });
    }
    Ok(out)
}
