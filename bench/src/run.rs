//! One round of one workload in this process: set-up, the timed closed
//! loop, then the oracle. `report::merge` turns a run's rounds into the
//! nine end-to-end metrics.

use std::collections::BTreeMap;

use sia_engine::{Database, MoveAround};

use crate::engine::{self, Outcome, Summary};
use crate::oracle::{reference_fingerprint, result_fingerprint, ServeOracle};
use crate::serve::{self, Phase};
use crate::workload::{EngineOp, Ops, Workload, DEADLINE_MS};

/// The measured phase of one run, before it is turned into metrics.
#[derive(Debug)]
pub struct Live {
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Latency of every timed operation, µs.
    pub latencies_us: Vec<f64>,
    /// Timed operations.
    pub attempted: usize,
    /// Timed operations that were answered in time and passed the oracle.
    pub ok: usize,
    /// `Σ over callers of (their ok operations ÷ their seconds)`.
    pub goodput_ops_s: f64,
    /// Process CPU seconds over the timed phase.
    pub cpu_s: f64,
    /// `VmHWM` right after the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Timed operations whose answer was useful (see the README).
    pub useful: usize,
    /// `rows_cut_share` as defined per family.
    pub rows_cut_share: f64,
    /// Warm-pass operations that failed (they count against `correct`).
    pub warm_failures: usize,
    /// What the traced run needs beyond this.
    pub detail: Detail,
}

/// Family-specific leftovers of a live run.
#[derive(Debug)]
pub enum Detail {
    /// From `sia-serve`.
    Serve {
        /// The timed phase's replies.
        timed: Phase,
        /// Cache hits ÷ lookups over the timed phase.
        hit_share: f64,
        /// Cache evictions per timed operation.
        evictions_per_op: f64,
    },
    /// From `sia-engine`.
    Engine {
        /// The loaded database.
        db: Database,
        /// The timed phase's outcomes.
        timed: Vec<Outcome>,
    },
}

/// Run `workload` live for at least `seconds` and its `min_passes`.
pub fn live(workload: &Workload, seconds: f64) -> Result<Live, String> {
    let at_least = (seconds, workload.spec.min_passes);
    match &workload.ops {
        Ops::Serve {
            ops,
            cache_capacity,
            table,
        } => live_serve(ops, &workload.order, *cache_capacity, table, at_least),
        Ops::Engine {
            ops,
            mode,
            data_seed,
        } => live_engine(ops, &workload.order, *mode, *data_seed, at_least),
    }
}

fn live_serve(
    ops: &[crate::workload::ServeOp],
    order: &[usize],
    cache_capacity: usize,
    table: &str,
    at_least: (f64, usize),
) -> Result<Live, String> {
    let (server, mut conns, warm, setup_s) =
        serve::set_up(ops, order, cache_capacity).map_err(|e| format!("set-up: {e}"))?;

    let before = server.cache().stats();
    let timed = serve::run_phase(&mut conns, ops, order, Some(at_least));
    let peak_rss_mb = crate::proc::peak_rss_mb();
    let after = server.cache().stats();
    drop(conns);
    server.shutdown().map_err(|e| e.to_string())?;

    // Untimed from here on: judge every distinct (request, answer) pair.
    let mut oracle = ServeOracle::new(table);
    let mut judge = |phase: &Phase, reply: &serve::Reply| {
        let text = phase.answers.get(&reply.answer).map(String::as_str);
        let v = oracle.judge(reply.op, &ops[reply.op], reply.answer, text);
        (reply.answered && v.sound, v.rejected_share)
    };
    let warm_failures = warm.replies.iter().filter(|r| !judge(&warm, r).0).count();
    let mut ok_by_client = vec![0usize; timed.client_secs.len()];
    let (mut ok, mut useful, mut cut) = (0, 0, 0.0);
    for reply in &timed.replies {
        let (good, rejected_share) = judge(&timed, reply);
        if good {
            ok += 1;
            ok_by_client[reply.client] += 1;
            useful += usize::from(reply.answer != 0);
            cut += rejected_share;
        }
    }
    let attempted = timed.replies.len();
    #[allow(clippy::cast_precision_loss)]
    let goodput_ops_s = ok_by_client
        .iter()
        .zip(&timed.client_secs)
        .map(|(&k, &secs)| k as f64 / secs.max(1e-9))
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let per = |delta: u64, n: u64| if n == 0 { 0.0 } else { delta as f64 / n as f64 };
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    Ok(Live {
        setup_s,
        latencies_us: timed.replies.iter().map(|r| r.latency_us).collect(),
        attempted,
        ok,
        goodput_ops_s,
        cpu_s: timed.cpu_s,
        peak_rss_mb,
        useful,
        #[allow(clippy::cast_precision_loss)]
        rows_cut_share: cut / attempted.max(1) as f64,
        warm_failures,
        detail: Detail::Serve {
            hit_share: per(after.hits - before.hits, lookups),
            evictions_per_op: per(after.evictions - before.evictions, attempted as u64),
            timed,
        },
    })
}

/// What the oracle established about one distinct query.
#[derive(Debug, Clone, Copy)]
struct Checked {
    /// Summary of the verified run in the workload's mode.
    on: Summary,
    /// `join_input_rows` with move-around off.
    off_join_input_rows: u64,
    /// The on, off and reference results have the same fingerprint.
    agree: bool,
}

fn check(db: &Database, op: &EngineOp, mode: MoveAround) -> Result<Checked, String> {
    let (_, on) = engine::run_op(db, &op.sql, mode);
    let (_, off) = engine::run_op(db, &op.sql, MoveAround::Off);
    let (on, off) = (on?, off?);
    let want = reference_fingerprint(db, op)?;
    Ok(Checked {
        on: Summary::of(&on),
        off_join_input_rows: off.stats.join_input_rows,
        agree: result_fingerprint(&on.table) == want && result_fingerprint(&off.table) == want,
    })
}

fn live_engine(
    ops: &[EngineOp],
    order: &[usize],
    mode: MoveAround,
    data_seed: u64,
    at_least: (f64, usize),
) -> Result<Live, String> {
    let rows = engine::generate_rows(data_seed);
    let (db, warm, setup_s) = engine::set_up(&rows, ops, order, mode);

    let engine::Timed {
        outcomes: timed,
        wall_s,
        cpu_s,
    } = engine::run_timed(&db, ops, order, mode, at_least.0, at_least.1);
    let peak_rss_mb = crate::proc::peak_rss_mb();

    // Untimed from here on: verify each distinct query once, then hold
    // every warm and timed outcome to the verified summary.
    let mut checked: BTreeMap<&str, Checked> = BTreeMap::new();
    for op in ops {
        if !checked.contains_key(op.sql.as_str()) {
            checked.insert(&op.sql, check(&db, op, mode)?);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let deadline_us = (DEADLINE_MS * 1000) as f64;
    let good = |o: &Outcome| {
        let c = &checked[ops[o.op].sql.as_str()];
        c.agree && o.summary == Some(c.on) && o.latency_us <= deadline_us
    };
    let (mut ok, mut useful, mut on_rows, mut off_rows) = (0, 0, 0u64, 0u64);
    for o in &timed {
        let c = &checked[ops[o.op].sql.as_str()];
        off_rows += c.off_join_input_rows;
        // A failed query saves nothing: it counts with its unmoved cost.
        on_rows += if good(o) {
            c.on.stats.join_input_rows
        } else {
            c.off_join_input_rows
        };
        if good(o) {
            ok += 1;
            useful += usize::from(
                c.on.scans_pushed > 0 && c.on.stats.join_input_rows < c.off_join_input_rows,
            );
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let rows_cut_share = if off_rows == 0 {
        0.0
    } else {
        1.0 - on_rows as f64 / off_rows as f64
    };
    #[allow(clippy::cast_precision_loss)]
    let goodput_ops_s = ok as f64 / wall_s.max(1e-9);
    Ok(Live {
        setup_s,
        latencies_us: timed.iter().map(|o| o.latency_us).collect(),
        attempted: timed.len(),
        ok,
        goodput_ops_s,
        cpu_s,
        peak_rss_mb,
        useful,
        rows_cut_share,
        warm_failures: warm.iter().filter(|o| !good(o)).count(),
        detail: Detail::Engine { db, timed },
    })
}
