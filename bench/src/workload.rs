//! The four workloads: fixed populations of operations drawn from the
//! `sia-gen` / `sia-tpch` beds, put in an order by the run's seed.
//!
//! The *population* of each workload (which requests, which queries) is
//! fixed by [`BED_SEED`] and the generator configurations below, so the
//! answer-quality metrics can carry 1 % bounds. The run's `--seed`
//! decides what may vary without changing the work's profile: the order
//! of the operations (and with it which client sends what and how the
//! cache is exercised), the rows of every engine table, and the trace
//! ids on the wire.

use sia_engine::MoveAround;
use sia_expr::{col, lit, Expr, Pred};
use sia_gen::{GenConfig, ZonePolicy};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};
use sia_serve::protocol::{render_request, Request};
use sia_sql::{Query, SelectList};
use sia_tpch::{generate_workload, WorkloadConfig};

/// Seed of every generator bed. Chosen (with `sia-perf workloads`) so that
/// no operation's warm-pass time lies within 1.5× of its deadline.
pub const BED_SEED: u64 = 3;

/// Per-operation deadline, ms: sent as `timeout_ms` on serve requests,
/// checked against the wall time of engine queries.
pub const DEADLINE_MS: u64 = 5_000;

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// Which front door a workload goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Requests over TCP to `sia-serve`.
    Serve,
    /// SQL text into `sia-engine`.
    Engine,
}

/// A workload's fixed description.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One sentence on why it exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Front door.
    pub family: Family,
    /// The tail percentile `latency_tail_ms` reports: the highest with at
    /// least ten samples beyond it at this workload's size in a
    /// `run_seconds` run (see `stats::highest_tail`).
    pub tail_pct: f64,
    /// Rounds in a run: fresh processes, each with one set-up and one
    /// timed phase of `--seconds ÷ rounds`.
    pub rounds: usize,
    /// Whole passes a round's timed phase runs at the least, however long
    /// a pass takes: `rounds × min_passes × population` is the smallest
    /// pooled sample, at least 100 and with ten beyond the tail percentile.
    pub min_passes: usize,
}

/// The workloads, in the order `run --all` runs them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "serve_cegis",
        why: "zone-ineligible requests, none repeated, cache too small to hit: CEGIS (core, smt, svm, num) does the work and the cache only writes",
        family: Family::Serve,
        tail_pct: 90.0,
        // A pass is 2.7 s of CEGIS: 2 × 4 × 15 = 120 samples.
        rounds: 2,
        min_passes: 4,
    },
    Spec {
        name: "serve_mix",
        why: "zone-eligible requests with repeats and drifted constants over a cache half their size: framing, cache reads and static analysis do the work, CEGIS none",
        family: Family::Serve,
        tail_pct: 95.0,
        rounds: 3,
        min_passes: 2,
    },
    Spec {
        name: "engine_join",
        why: "paper 6.3 join queries and chain/star joins with static move-around: scan, filter and hash-join execution is the work, planning little",
        family: Family::Engine,
        tail_pct: 95.0,
        rounds: 3,
        min_passes: 3,
    },
    Spec {
        name: "engine_synth",
        why: "join templates whose cross-table conjunct only synthesis can push, each repeated, plus 6.3 queries static already covers: planning is the work, execution little",
        family: Family::Engine,
        tail_pct: 95.0,
        // A pass is 2.8 s of planning: 2 × 4 × 39 = 312 samples.
        rounds: 2,
        min_passes: 4,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One request to `sia-serve`.
#[derive(Debug, Clone)]
pub struct ServeOp {
    /// The predicate as generated (the oracle's ground truth).
    pub predicate: Pred,
    /// Target columns.
    pub cols: Vec<String>,
    /// The request line as sent, newline included.
    pub line: String,
    /// Cache identity: canonical template + constants + columns.
    pub key: String,
}

/// One query for `sia-engine`.
#[derive(Debug, Clone)]
pub struct EngineOp {
    /// The SQL text as submitted.
    pub sql: String,
    /// FROM list.
    pub tables: Vec<String>,
    /// Equi-join column pairs.
    pub joins: Vec<(String, String)>,
    /// Everything else in the WHERE clause.
    pub filter: Pred,
}

/// A workload's operations.
#[derive(Debug, Clone)]
pub enum Ops {
    /// Requests, the server's cache capacity, and the table they range over.
    Serve {
        /// The requests.
        ops: Vec<ServeOp>,
        /// `ServeConfig::cache_capacity`.
        cache_capacity: usize,
        /// `sia-gen` table every request ranges over.
        table: &'static str,
    },
    /// Queries, the move-around mode, and the seed of the table rows.
    Engine {
        /// The queries.
        ops: Vec<EngineOp>,
        /// `OptimizerConfig::move_around`.
        mode: MoveAround,
        /// Seed for every table's rows.
        data_seed: u64,
    },
}

/// A workload instantiated for one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its description.
    pub spec: &'static Spec,
    /// The population.
    pub ops: Ops,
    /// One pass: indices into the population, in the seed's order.
    pub order: Vec<usize>,
}

impl Workload {
    /// Generate `spec`'s operations and put them in `seed`'s order.
    pub fn build(spec: &'static Spec, seed: u64) -> Workload {
        let ops = match spec.name {
            "serve_cegis" => serve_cegis(seed),
            "serve_mix" => serve_mix(seed),
            "engine_join" => engine_join(seed),
            "engine_synth" => engine_synth(seed),
            other => unreachable!("no generator for workload {other}"),
        };
        let n = match &ops {
            Ops::Serve { ops, .. } => ops.len(),
            Ops::Engine { ops, .. } => ops.len(),
        };
        Workload {
            spec,
            ops,
            order: shuffled(n, seed),
        }
    }

    /// Operations per pass.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether a pass is empty (never, for the built-in workloads).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Distinct cache keys (serve) or distinct SQL texts (engine).
    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<&str> = match &self.ops {
            Ops::Serve { ops, .. } => ops.iter().map(|o| o.key.as_str()).collect(),
            Ops::Engine { ops, .. } => ops.iter().map(|o| o.sql.as_str()).collect(),
        };
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// FNV-1a digest of the pass as submitted: every request line or SQL
    /// text in order, plus the table seed. Same seed, same digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &i in &self.order {
            match &self.ops {
                Ops::Serve { ops, .. } => h.write(ops[i].line.as_bytes()),
                Ops::Engine { ops, .. } => h.write(ops[i].sql.as_bytes()),
            }
            h.write(&[0]);
        }
        if let Ops::Engine { data_seed, .. } = &self.ops {
            h.write(&data_seed.to_le_bytes());
        }
        h.0
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The splitmix64 finalizer: scatters a counter or a small key over 64 bits.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `0..n` in the order `seed` gives (Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0DE2);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// A non-zero trace id below 2^53 for operation `index` of run `seed`.
fn trace_id(seed: u64, index: usize) -> u64 {
    let z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1);
    (mix64(z) & ((1 << 53) - 1)) | 1
}

fn serve_ops(name: &str, seed: u64, cfg: &GenConfig) -> Vec<ServeOp> {
    let requests = sia_gen::generate(cfg).expect("bed configuration is valid");
    requests
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let line = render_request(&Request {
                id: format!("{name}-{i}"),
                predicate: r.predicate.to_string(),
                cols: r.cols.clone(),
                timeout_ms: Some(DEADLINE_MS),
                trace: Some(trace_id(seed, i)),
            });
            let key = format!(
                "{}|{}",
                sia_cache::canonicalize(&r.predicate).key_fragment(),
                r.cols.join(",")
            );
            ServeOp {
                predicate: r.predicate,
                cols: r.cols,
                line: line + "\n",
                key,
            }
        })
        .collect()
}

/// 15 two-term conjunctions with a zone-ineligible atom: tier-0 derivation
/// cannot answer, so each runs CEGIS (40–700 ms). A cache of 2 entries
/// over 15 keys visited cyclically never hits: every op is an insert and
/// an eviction. (15, not 16: the median and the p90 of n·15 pooled
/// samples fall inside one operation's group of samples, not on the
/// boundary between two operations.)
fn serve_cegis(seed: u64) -> Ops {
    let cfg = GenConfig {
        table: "lineitem".into(),
        count: 15,
        seed: BED_SEED,
        zone: ZonePolicy::Ineligible,
        min_terms: 2,
        max_terms: 2,
        cnf_weight: 1.0,
        nest_rate: 0.0,
        in_list_rate: 0.0,
        between_rate: 0.0,
        div_rate: 0.0,
        ..GenConfig::default()
    };
    Ops::Serve {
        ops: serve_ops("serve_cegis", seed, &cfg),
        cache_capacity: 2,
        table: "lineitem",
    }
}

/// 105 zone-eligible requests, half of them repeats of an earlier
/// template, 30 % of the repeats with drifted constants, over a cache of
/// 32 entries: hits, drift misses, inserts and evictions all occur, and
/// every miss is answered by static derivation.
fn serve_mix(seed: u64) -> Ops {
    let cfg = GenConfig {
        table: "lineitem".into(),
        count: 105,
        seed: BED_SEED,
        zone: ZonePolicy::Eligible,
        nest_rate: 0.0,
        in_list_rate: 0.0,
        repeat_rate: 0.5,
        drift_rate: 0.3,
        ..GenConfig::default()
    };
    Ops::Serve {
        ops: serve_ops("serve_mix", seed, &cfg),
        cache_capacity: 32,
        table: "lineitem",
    }
}

fn engine_op(tables: &[&str], joins: &[(&str, &str)], filter: Pred) -> EngineOp {
    let join_eqs = joins.iter().map(|(a, b)| col(*a).eq_(col(*b)));
    let query = Query {
        select: SelectList::Star,
        tables: tables.iter().map(ToString::to_string).collect(),
        predicate: Some(Pred::and_all(join_eqs).and(filter.clone())),
    };
    EngineOp {
        sql: query.to_string(),
        tables: query.tables.clone(),
        joins: joins
            .iter()
            .map(|(a, b)| ((*a).to_string(), (*b).to_string()))
            .collect(),
        filter,
    }
}

/// The paper's §6.3 queries under the bed seed.
fn paper_6_3(count: usize) -> Vec<EngineOp> {
    generate_workload(&WorkloadConfig {
        count,
        seed: BED_SEED,
        ..WorkloadConfig::default()
    })
    .into_iter()
    .map(|q| EngineOp {
        sql: q.sql(),
        tables: q.query.tables.clone(),
        joins: vec![("o_orderkey".into(), "l_orderkey".into())],
        filter: q.predicate,
    })
    .collect()
}

/// 33 §6.3 queries plus four constant-variants each of the `exp_engine`
/// chain and star joins: 41 operations (odd, see [`serve_cegis`]).
fn engine_join(seed: u64) -> Ops {
    let mut ops = paper_6_3(33);
    for k in [5, 7, 9, 11] {
        ops.push(engine_op(
            &["customer", "nation", "region", "supplier"],
            &[
                ("c_nationkey", "n_nationkey"),
                ("n_regionkey", "r_regionkey"),
                ("n_nationkey", "s_nationkey"),
            ],
            col("s_nationkey").le(lit(k)),
        ));
    }
    for k in [8, 12, 16, 20] {
        ops.push(engine_op(
            &["nation", "customer", "supplier"],
            &[
                ("n_nationkey", "c_nationkey"),
                ("n_nationkey", "s_nationkey"),
            ],
            col("n_nationkey").lt(lit(k)),
        ));
    }
    Ops::Engine {
        ops,
        mode: MoveAround::Static,
        data_seed: seed,
    }
}

/// Indices (under [`BED_SEED`]) of §6.3 queries for which the static pass
/// already pushes everything, so synthesis mode has nothing to add.
const STATIC_SUFFICES: [usize; 7] = [0, 1, 2, 4, 6, 10, 14];

/// Eight join templates whose cross-table conjunct has non-unit
/// coefficients (outside the zone fragment, so only synthesis can turn it
/// into a scan-local bound), × 2 constants × 2 verbatim repeats, plus 7
/// §6.3 queries: 39 operations.
fn engine_synth(seed: u64) -> Ops {
    let date = |s: &str| Expr::date(s);
    let li_orders: (&[&str], &[(&str, &str)]) =
        (&["lineitem", "orders"], &[("o_orderkey", "l_orderkey")]);
    let mut variants: Vec<EngineOp> = Vec::new();
    for k in [3, 2] {
        variants.push(engine_op(
            &["nation", "region"],
            &[("n_regionkey", "r_regionkey")],
            (lit(2).mul(col("n_nationkey")))
                .le(lit(5).mul(col("r_name")))
                .and(col("r_name").le(lit(k))),
        ));
    }
    for k in [2, 1] {
        variants.push(engine_op(
            &["customer", "nation"],
            &[("c_nationkey", "n_nationkey")],
            (lit(2).mul(col("c_mktsegment")))
                .le(lit(3).mul(col("n_regionkey")))
                .and(col("n_regionkey").le(lit(k))),
        ));
    }
    for k in [10, 8] {
        variants.push(engine_op(
            &["supplier", "nation"],
            &[("s_nationkey", "n_nationkey")],
            (lit(3).mul(col("s_suppkey")))
                .le(lit(7).mul(col("n_name")))
                .and(col("n_name").le(lit(k))),
        ));
    }
    for d in ["1992-03-01", "1992-02-01"] {
        variants.push(engine_op(
            li_orders.0,
            li_orders.1,
            (lit(3).mul(col("l_quantity")).add(col("l_linenumber")))
                .le(col("o_orderdate").sub(lit(8000)))
                .and(col("o_orderdate").lt(date(d))),
        ));
    }
    for d in ["1997-01-01", "1997-06-01"] {
        variants.push(engine_op(
            li_orders.0,
            li_orders.1,
            (lit(2).mul(col("l_shipdate")))
                .ge(lit(3).mul(col("o_orderdate")).sub(lit(2000)))
                .and(col("o_orderdate").gt(date(d))),
        ));
    }
    for k in [8, 6] {
        variants.push(engine_op(
            &["partsupp", "supplier"],
            &[("ps_suppkey", "s_suppkey")],
            (lit(2).mul(col("ps_availqty")))
                .le(lit(5).mul(col("s_nationkey")))
                .and(col("s_nationkey").le(lit(k))),
        ));
    }
    for k in [2, 1] {
        variants.push(engine_op(
            &["customer", "nation", "region"],
            &[
                ("c_nationkey", "n_nationkey"),
                ("n_regionkey", "r_regionkey"),
            ],
            (lit(2).mul(col("c_mktsegment")))
                .le(lit(3).mul(col("r_name")))
                .and(col("r_name").le(lit(k))),
        ));
    }
    // Synthesis is attempted here and finds nothing pushable: planning
    // time with no execution saving, which cost-gating would skip.
    for k in [100, 90] {
        variants.push(engine_op(
            li_orders.0,
            li_orders.1,
            (col("l_shipdate").add(col("l_commitdate")))
                .le(lit(2).mul(col("o_orderdate")).add(lit(k)))
                .and(col("o_orderdate").lt(date("1994-01-01"))),
        ));
    }
    let mut ops: Vec<EngineOp> = variants
        .iter()
        .flat_map(|v| [v.clone(), v.clone()])
        .collect();
    let paper = paper_6_3(STATIC_SUFFICES[STATIC_SUFFICES.len() - 1] + 1);
    ops.extend(STATIC_SUFFICES.iter().map(|&i| paper[i].clone()));
    Ops::Engine {
        ops,
        mode: MoveAround::Synthesis,
        data_seed: seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_and_another_seed_another() {
        for spec in &SPECS {
            let a = Workload::build(spec, 7);
            let b = Workload::build(spec, 7);
            let c = Workload::build(spec, 8);
            assert_eq!(a.digest(), b.digest(), "{}", spec.name);
            assert_ne!(a.digest(), c.digest(), "{}", spec.name);
            assert_eq!(a.len(), c.len());
            // The population does not depend on the seed; the order does.
            let mut sorted = c.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..a.len()).collect::<Vec<_>>());
            assert_ne!(a.order, c.order);
        }
    }

    #[test]
    fn sizes_put_the_percentiles_inside_one_operations_samples() {
        for spec in &SPECS {
            let w = Workload::build(spec, DEFAULT_SEED);
            assert_eq!(
                w.len() % 2,
                1,
                "{}: odd count keeps the median off a boundary",
                spec.name
            );
        }
        // The smallest pooled sample holds 100 operations and ten beyond
        // the workload's tail percentile.
        for spec in &SPECS {
            let pooled = spec.rounds * spec.min_passes * Workload::build(spec, 1).len();
            assert!(pooled >= 100, "{}: {pooled}", spec.name);
            assert_eq!(
                crate::stats::highest_tail(pooled),
                Some(spec.tail_pct),
                "{}",
                spec.name
            );
        }
        assert_eq!(Workload::build(&SPECS[0], 1).distinct_keys(), 15);
        assert_eq!(Workload::build(&SPECS[2], 1).distinct_keys(), 41);
        assert_eq!(Workload::build(&SPECS[3], 1).distinct_keys(), 16 + 7);
    }

    #[test]
    fn engine_sql_parses_back_to_the_structured_form() {
        for spec in SPECS.iter().filter(|s| s.family == Family::Engine) {
            let w = Workload::build(spec, 1);
            let Ops::Engine { ops, .. } = &w.ops else {
                unreachable!()
            };
            for op in ops {
                let q = sia_sql::parse_query(&op.sql).expect("generated SQL parses");
                assert_eq!(q.tables, op.tables);
            }
        }
    }

    #[test]
    fn trace_ids_are_nonzero_and_fit_a_double() {
        for i in 0..1000 {
            let t = trace_id(3, i);
            assert!(t != 0 && t < (1 << 53));
        }
        assert_ne!(trace_id(1, 0), trace_id(2, 0));
    }
}
