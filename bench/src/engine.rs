//! Driving `sia-engine` the way a caller does: SQL text in, rows out, one
//! query at a time.

use std::time::Instant;

use sia_engine::{Database, ExecStats, MoveAround, OptimizerConfig, QueryResult, Table};
use sia_expr::Value;
use sia_gen::TableSpec;
use sia_tpch::TpchConfig;

use crate::workload::EngineOp;

/// TPC-H scale factor of `orders` / `lineitem` (37 500 / ≈ 150 000 rows).
const SCALE_FACTOR: f64 = 0.25;

/// Rows sampled for each `sia-gen` table except the two small dimensions.
const GEN_ROWS: usize = 1500;

/// Table contents generated on the benchmark's side, before set-up.
#[derive(Debug)]
pub struct Rows {
    tpch: TpchConfig,
    sampled: Vec<(TableSpec, Vec<Vec<Value>>)>,
}

/// Generate the rows of every table: `orders` and `lineitem` come from
/// `sia-tpch` under `data_seed`; the other TPC-H tables from the
/// `sia-gen` registry at `exp_engine`'s proportions, under the bed seed —
/// a 50-row `nation` drawn afresh per run would change the chain and star
/// joins' output sizes by tens of percent, which is a different workload,
/// not another sample of this one.
pub fn generate_rows(data_seed: u64) -> Rows {
    let sampled = sia_gen::tables()
        .into_iter()
        .filter(|spec| !matches!(spec.name, "orders" | "lineitem" | "wide"))
        .map(|spec| {
            let n = match spec.name {
                "nation" => 50,
                "region" => 10,
                _ => GEN_ROWS,
            };
            let rows = spec.sample(n, crate::workload::BED_SEED ^ spec.name.len() as u64);
            (spec, rows)
        })
        .collect();
    Rows {
        tpch: TpchConfig {
            scale_factor: SCALE_FACTOR,
            seed: data_seed,
        },
        sampled,
    }
}

/// Product set-up: build the database the queries run against.
pub fn load(rows: &Rows) -> Database {
    let mut db = sia_tpch::generate(&rows.tpch);
    for (spec, data) in &rows.sampled {
        db.insert(spec.name, Table::from_rows(spec.schema(), data));
    }
    db
}

/// What is kept of one query's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Rows returned.
    pub rows: usize,
    /// The executor's counters.
    pub stats: ExecStats,
    /// Scans that received a moved predicate.
    pub scans_pushed: usize,
    /// Predicates synthesis contributed.
    pub synthesized: usize,
}

impl Summary {
    /// Summarize a result.
    pub fn of(r: &QueryResult) -> Summary {
        Summary {
            rows: r.table.num_rows(),
            stats: r.stats,
            scans_pushed: r.moved.scans_pushed(),
            synthesized: r.moved.synthesized.len(),
        }
    }
}

/// One timed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Which operation (index into the population).
    pub op: usize,
    /// SQL text → rows, µs: `parse_query` + `Database::run`.
    pub latency_us: f64,
    /// The result's summary; `None` when the query failed.
    pub summary: Option<Summary>,
}

/// Parse and run one query; the latency covers both.
pub fn run_op(db: &Database, sql: &str, mode: MoveAround) -> (f64, Result<QueryResult, String>) {
    let config = OptimizerConfig {
        move_around: mode,
        ..OptimizerConfig::default()
    };
    let start = Instant::now();
    let result = sia_sql::parse_query(sql)
        .map_err(|e| e.to_string())
        .and_then(|q| db.run(&q, config).map_err(|e| e.to_string()));
    (start.elapsed().as_secs_f64() * 1e6, result)
}

/// One pass over `order`.
pub fn run_pass(
    db: &Database,
    ops: &[EngineOp],
    order: &[usize],
    mode: MoveAround,
) -> Vec<Outcome> {
    order
        .iter()
        .map(|&op| {
            let (latency_us, result) = run_op(db, &ops[op].sql, mode);
            let summary = result.ok().as_ref().map(Summary::of);
            Outcome {
                op,
                latency_us,
                summary,
            }
        })
        .collect()
}

/// A timed phase of the single caller.
#[derive(Debug)]
pub struct Timed {
    /// Every query's outcome.
    pub outcomes: Vec<Outcome>,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

/// Whole passes until at least `min_seconds` have elapsed (and at least
/// `min_passes` have run).
pub fn run_timed(
    db: &Database,
    ops: &[EngineOp],
    order: &[usize],
    mode: MoveAround,
    min_seconds: f64,
    min_passes: usize,
) -> Timed {
    let cpu_before = crate::proc::cpu_seconds();
    let start = Instant::now();
    let mut outcomes = Vec::new();
    let mut passes = 0;
    while passes < min_passes || start.elapsed().as_secs_f64() < min_seconds {
        outcomes.extend(run_pass(db, ops, order, mode));
        passes += 1;
    }
    Timed {
        outcomes,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: crate::proc::cpu_seconds() - cpu_before,
    }
}

/// Product set-up: load the tables and run one cold pass. Returns the
/// database, the warm pass, and how long both took.
pub fn set_up(
    rows: &Rows,
    ops: &[EngineOp],
    order: &[usize],
    mode: MoveAround,
) -> (Database, Vec<Outcome>, f64) {
    let start = Instant::now();
    let db = load(rows);
    let warm = run_pass(&db, ops, order, mode);
    (db, warm, start.elapsed().as_secs_f64())
}
