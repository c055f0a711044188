//! The `engine` gate for the predicate move-around pass: deep join trees
//! over seeded `sia-gen` data, executed with the pass off, with static
//! pull-up/transition/push-down, and with synthesis at blocked join
//! boundaries — the last twice on one `Database`, so the second run's
//! boundary syntheses are answered from its cache. For every workload the
//! runs must return identical result sets — the pass may only move
//! predicates, never change answers — and every derived or synthesized
//! predicate, the cached run's included, is solver-checked against the
//! gathered conjunction after timing ends.
//!
//! Reported per workload: rows flowing into joins (the paper's proxy for
//! intermediate-result work), the reduction the static pass achieves,
//! the further reduction synthesis buys, the wall-clock speedup, and what
//! a synthesis-mode query costs at first sight and on a repeat.
//! Results land in `BENCH_engine.json`.

use std::time::Instant;

use sia_core::{verify_implies, PredEncoder, Validity};
use sia_engine::{Database, MoveAround, OptimizerConfig, QueryResult, Table};
use sia_expr::Value;

use crate::{util, Gates};

/// Rows per large table.
const ROWS: usize = 600;
/// Share of rows-into-joins the static pass alone must cut on `chain`.
pub const MIN_CHAIN_REDUCTION: f64 = 0.30;

/// The three join workloads. `chain` is the snippet-1 shape: a key chain
/// where one selective bound must travel through two equivalence classes
/// to reach every scan. `star` is a hub table whose key bound reaches
/// each spoke. `synth` carries a predicate over `r_name` — a column in
/// no equivalence class, so neither substitution nor the zone closure
/// can project it onto the nation scan — only CEGIS synthesis can
/// compress `2*n_nationkey <= 5*r_name ∧ r_name <= 3` to the scan-local
/// bound `n_nationkey <= 7`.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "chain",
        "SELECT * FROM customer, nation, region, supplier \
         WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
         AND n_nationkey = s_nationkey AND s_nationkey <= 7",
    ),
    (
        "star",
        "SELECT * FROM nation, customer, supplier \
         WHERE n_nationkey = c_nationkey AND n_nationkey = s_nationkey \
         AND n_nationkey < 12",
    ),
    (
        "synth",
        "SELECT * FROM nation, region \
         WHERE n_regionkey = r_regionkey AND 2 * n_nationkey <= 5 * r_name \
         AND r_name <= 3",
    ),
];

/// TPC-H-proportioned registry load: dimension tables stay at catalog
/// size so joins match richly without blowing up intermediate results.
fn build_db(rows: usize) -> Database {
    let mut db = Database::new();
    for spec in sia_gen::tables() {
        let n = match spec.name {
            "nation" => 50,
            "region" => 10,
            _ => rows,
        };
        let data = spec.sample(n, 0xE17_u64 ^ spec.name.len() as u64);
        db.insert(spec.name, Table::from_rows(spec.schema(), &data));
    }
    db
}

/// Order-insensitive exact rendering of a result set.
fn fingerprint(r: &QueryResult) -> Vec<String> {
    let names: Vec<String> = r
        .table
        .schema
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let mut rows: Vec<String> = (0..r.table.num_rows())
        .map(|i| {
            names
                .iter()
                .map(|n| match r.table.value(i, n) {
                    Value::Null => "NULL".to_string(),
                    v => format!("{v:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

struct ModeRun {
    result: QueryResult,
    wall_s: f64,
}

fn run_mode(db: &Database, sql: &str, mode: MoveAround) -> ModeRun {
    let q = sia_sql::parse_query(sql).expect("workload SQL parses");
    let config = OptimizerConfig {
        move_around: mode,
        ..OptimizerConfig::default()
    };
    let start = Instant::now();
    let result = db.run(&q, config).expect("workload runs");
    ModeRun {
        result,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Solver-check every predicate the pass attached: the gathered
/// conjunction (filters plus join equalities, exactly what held above
/// the scans) must imply each of them. Returns (checks, disagreements).
fn audit(r: &QueryResult) -> (u64, u64) {
    let gathered = r.moved.gathered_conjunction();
    let mut checks = 0;
    let mut bad = 0;
    for (table, pred) in r.moved.derived.iter().chain(&r.moved.synthesized) {
        checks += 1;
        let mut enc = PredEncoder::new();
        match verify_implies(&mut enc, &gathered, pred) {
            Ok(Validity::Valid) => {}
            other => {
                bad += 1;
                eprintln!("UNSOUND push at {table}: `{pred}` not implied ({other:?})");
            }
        }
    }
    (checks, bad)
}

fn pct(saved: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        {
            saved as f64 / base as f64
        }
    }
}

/// Run the three workloads in the three modes, print and write the
/// results, and report the missed bars.
pub fn run() -> Gates {
    let db = build_db(ROWS);
    println!(
        "== engine benchmark: {} join workloads at {ROWS} rows/table ==",
        WORKLOADS.len()
    );

    sia_obs::reset();
    sia_obs::enable();

    let mut total_saved = 0u64;
    let mut total_checks = 0u64;
    let mut total_bad = 0u64;
    let mut synth_only = 0usize;
    let mut all_agree = true;
    let mut chain_static_reduction = 0.0f64;
    let mut entries = Vec::new();
    let mut executed = String::new();

    for (name, sql) in WORKLOADS {
        let off = run_mode(&db, sql, MoveAround::Off);
        let st = run_mode(&db, sql, MoveAround::Static);
        let syn = run_mode(&db, sql, MoveAround::Synthesis);
        let repeat = run_mode(&db, sql, MoveAround::Synthesis);

        let base = off.result.stats.join_input_rows;
        let static_saved = base.saturating_sub(st.result.stats.join_input_rows);
        let synth_saved = base.saturating_sub(syn.result.stats.join_input_rows);
        let static_reduction = pct(static_saved, base);
        let synth_reduction = pct(synth_saved, base);
        if name == "chain" {
            chain_static_reduction = static_reduction;
        }
        total_saved += synth_saved;

        // Predicates only synthesis could place: scans the static run
        // derived nothing for but the synthesis run pushed to.
        let synth_new = syn
            .result
            .moved
            .synthesized
            .iter()
            .filter(|(t, _)| !st.result.moved.derived.iter().any(|(dt, _)| dt == t))
            .count();
        synth_only += synth_new;

        let agree = [&st, &syn, &repeat]
            .iter()
            .all(|run| fingerprint(&run.result) == fingerprint(&off.result))
            && repeat.result.plan == syn.result.plan
            && repeat.result.moved.synthesis_misses == 0;
        all_agree &= agree;

        for r in [&st.result, &syn.result, &repeat.result] {
            let (c, b) = audit(r);
            total_checks += c;
            total_bad += b;
        }

        // Execution-only speedup: what the smaller join inputs buy at run
        // time. Wall time (JSON) additionally carries the planning and
        // synthesis overhead the pass spends to get there.
        let speedup = off.result.elapsed.as_secs_f64() / st.result.elapsed.as_secs_f64().max(1e-9);
        println!(
            "{name}: rows-into-joins {base} -> {} static ({:.1}% cut) -> {} with synthesis \
             ({:.1}% cut) | {} derived, {} synthesized | speedup {speedup:.2}x | \
             synthesis mode {:.2} ms at first sight, {:.2} ms repeated ({} cache hits) | \
             results {}",
            st.result.stats.join_input_rows,
            100.0 * static_reduction,
            syn.result.stats.join_input_rows,
            100.0 * synth_reduction,
            st.result.moved.derived.len(),
            syn.result.moved.synthesized.len(),
            syn.wall_s * 1e3,
            repeat.wall_s * 1e3,
            repeat.result.moved.synthesis_hits,
            if agree { "identical" } else { "DIVERGED" }
        );

        executed += &format!(
            "{name}, move-around with synthesis, as executed:\n{}",
            syn.result.explain_analyze()
        );

        entries.push(format!(
            "{{\"name\":\"{name}\",\"off_join_input_rows\":{base},\
             \"static_join_input_rows\":{},\"synth_join_input_rows\":{},\
             \"static_reduction\":{},\"synth_reduction\":{},\
             \"derived\":{},\"synthesized\":{},\"synth_only_scans\":{synth_new},\
             \"off_exec_s\":{},\"static_exec_s\":{},\"exec_speedup\":{},\
             \"off_wall_s\":{},\"static_wall_s\":{},\"synth_wall_s\":{},\
             \"synth_repeat_wall_s\":{},\"synth_repeat_cache_hits\":{},\
             \"results_agree\":{}}}",
            st.result.stats.join_input_rows,
            syn.result.stats.join_input_rows,
            sia_obs::json_number(static_reduction),
            sia_obs::json_number(synth_reduction),
            st.result.moved.derived.len(),
            syn.result.moved.synthesized.len(),
            sia_obs::json_number(off.result.elapsed.as_secs_f64()),
            sia_obs::json_number(st.result.elapsed.as_secs_f64()),
            sia_obs::json_number(speedup),
            sia_obs::json_number(off.wall_s),
            sia_obs::json_number(st.wall_s),
            sia_obs::json_number(syn.wall_s),
            sia_obs::json_number(repeat.wall_s),
            repeat.result.moved.synthesis_hits,
            u8::from(agree),
        ));
    }

    let snapshot = sia_obs::snapshot();
    sia_obs::disable();

    println!(
        "total: {total_saved} join input rows saved | {total_checks} pushes solver-checked, \
         {total_bad} unsound | {synth_only} scan(s) reachable only via synthesis"
    );
    print!("{executed}");

    util::write_results(
        "BENCH_engine.json",
        &format!(
            "{{\"experiment\":\"engine\",\"rows\":{ROWS},\"workloads\":[{}],\
             \"rows_saved\":{total_saved},\"solver_checks\":{total_checks},\
             \"solver_disagreements\":{total_bad},\"synth_only_scans\":{synth_only},\
             \"results_agree\":{},\"metrics\":{}}}\n",
            entries.join(","),
            u8::from(all_agree),
            snapshot.to_json()
        ),
    );

    let mut gates = Gates::default();
    gates.require(
        all_agree,
        "move-around changed query results — soundness violation".to_string(),
    );
    gates.require(
        total_bad == 0,
        format!("{total_bad} unsound predicate pushes recorded"),
    );
    gates.require(
        chain_static_reduction >= MIN_CHAIN_REDUCTION,
        format!(
            "static move-around cut only {:.1}% of rows into joins on the chain \
             workload (need >= 30%)",
            100.0 * chain_static_reduction
        ),
    );
    gates.require(
        synth_only >= 1,
        "no predicate was reachable only via synthesis — workload lost its \
         blocked join boundary"
            .to_string(),
    );
    gates
}
