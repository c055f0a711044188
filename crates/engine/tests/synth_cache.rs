//! The engine's boundary-synthesis cache: `Database::optimized_plan`
//! answers a repeated boundary from `sia-cache` and must produce exactly
//! the plan and report the uncached reference pass (`move_around` +
//! `optimize`) does — on a first sight, on a repeat, across join shapes
//! that share a boundary, and from several threads at once. Every count
//! asserted here is the report's or the database's own `CacheStats`,
//! never the process-global collector.

use std::sync::{Barrier, OnceLock};

use sia_analyze::Analyzer;
use sia_core::{verify_implies, PredEncoder, Validity};
use sia_engine::{
    move_around, optimize, Database, MoveAround, MoveAroundReport, OptimizerConfig, Plan, Table,
};
use sia_expr::{col, lit, ColumnDef, DataType, Pred, Schema};

/// `sia-perf`'s `engine_synth` templates: eight join shapes whose
/// cross-table conjunct only synthesis can push, two constants each.
const TEMPLATES: [&str; 16] = [
    "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey \
     AND 2 * n_nationkey <= 5 * r_name AND r_name <= 3",
    "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey \
     AND 2 * n_nationkey <= 5 * r_name AND r_name <= 2",
    "SELECT * FROM customer, nation WHERE c_nationkey = n_nationkey \
     AND 2 * c_mktsegment <= 3 * n_regionkey AND n_regionkey <= 2",
    "SELECT * FROM customer, nation WHERE c_nationkey = n_nationkey \
     AND 2 * c_mktsegment <= 3 * n_regionkey AND n_regionkey <= 1",
    "SELECT * FROM supplier, nation WHERE s_nationkey = n_nationkey \
     AND 3 * s_suppkey <= 7 * n_name AND n_name <= 10",
    "SELECT * FROM supplier, nation WHERE s_nationkey = n_nationkey \
     AND 3 * s_suppkey <= 7 * n_name AND n_name <= 8",
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND 3 * l_quantity + l_linenumber <= o_orderdate - 8000 \
     AND o_orderdate < DATE '1992-03-01'",
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND 3 * l_quantity + l_linenumber <= o_orderdate - 8000 \
     AND o_orderdate < DATE '1992-02-01'",
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND 2 * l_shipdate >= 3 * o_orderdate - 2000 AND o_orderdate > DATE '1997-01-01'",
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND 2 * l_shipdate >= 3 * o_orderdate - 2000 AND o_orderdate > DATE '1997-06-01'",
    "SELECT * FROM partsupp, supplier WHERE ps_suppkey = s_suppkey \
     AND 2 * ps_availqty <= 5 * s_nationkey AND s_nationkey <= 8",
    "SELECT * FROM partsupp, supplier WHERE ps_suppkey = s_suppkey \
     AND 2 * ps_availqty <= 5 * s_nationkey AND s_nationkey <= 6",
    CHAIN_2,
    "SELECT * FROM customer, nation, region WHERE c_nationkey = n_nationkey \
     AND n_regionkey = r_regionkey AND 2 * c_mktsegment <= 3 * r_name AND r_name <= 1",
    NOTHING_LEARNABLE,
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND l_shipdate + l_commitdate <= 2 * o_orderdate + 90 \
     AND o_orderdate < DATE '1994-01-01'",
];

/// The three-table shape whose customer-side boundary is an
/// alpha-renaming of `TEMPLATES[2]`'s.
const CHAIN_2: &str = "SELECT * FROM customer, nation, region WHERE c_nationkey = n_nationkey \
     AND n_regionkey = r_regionkey AND 2 * c_mktsegment <= 3 * r_name AND r_name <= 2";

/// Synthesis is attempted and finds nothing pushable.
const NOTHING_LEARNABLE: &str = "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND l_shipdate + l_commitdate <= 2 * o_orderdate + 100 \
     AND o_orderdate < DATE '1994-01-01'";

/// `moveraround.rs`'s `synthesis_fires_at_blocked_boundary` shape.
const BLOCKED_BOUNDARY: &str =
    "SELECT * FROM t1, t4 WHERE id1 = id4 AND 2 * v1 <= 3 * v4 AND v4 <= 20";

const SYNTHESIS: OptimizerConfig = OptimizerConfig {
    move_around: MoveAround::Synthesis,
};

/// The `sia-gen` registry plus `t1` / `t4`, no rows: planning reads
/// schemas only.
fn db() -> Database {
    let mut db = Database::new();
    for spec in sia_gen::tables() {
        db.insert(spec.name, Table::from_rows(spec.schema(), &[]));
    }
    for (table, cols) in [("t1", ["id1", "v1"]), ("t4", ["id4", "v4"])] {
        let cols = cols.map(|c| ColumnDef::new(c, DataType::Integer));
        db.insert(table, Table::from_rows(Schema::new(cols.to_vec()), &[]));
    }
    db
}

fn cached(db: &Database, sql: &str) -> (Plan, MoveAroundReport) {
    let query = sia_sql::parse_query(sql).expect("parse");
    db.optimized_plan(&query, SYNTHESIS).expect("plan")
}

/// The uncached reference: the free `move_around`, then `optimize`.
fn uncached(db: &Database, sql: &str) -> (Plan, MoveAroundReport) {
    let query = sia_sql::parse_query(sql).expect("parse");
    let plan = db.plan(&query).expect("plan");
    let schema_of = |t: &str| db.schema_of(t);
    let (plan, report) = move_around(plan, &schema_of, MoveAround::Synthesis);
    let columns_of = |t: &str| {
        db.schema_of(t)
            .map_or_else(Vec::new, |s| sia_engine::optimize::schema_columns(&s))
    };
    (optimize(plan, &columns_of, SYNTHESIS), report)
}

/// The 16 templates' reference plans and reports, synthesized once for
/// every test in this file.
fn reference() -> &'static [(Plan, MoveAroundReport)] {
    static REFERENCE: OnceLock<Vec<(Plan, MoveAroundReport)>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let db = db();
        TEMPLATES.iter().map(|sql| uncached(&db, sql)).collect()
    })
}

/// Everything a report says apart from which tier answered.
fn moves(r: &MoveAroundReport) -> String {
    let gathered: Vec<_> = (r.gathered.iter())
        .map(|g| (&g.pred, &g.node, &g.scope))
        .collect();
    format!(
        "{gathered:?} {:?} {:?} {}",
        r.derived, r.synthesized, r.contradiction
    )
}

/// `c_mktsegment <= k`, however the learner wrote it.
fn is_segment_bound(p: &Pred, k: i64) -> bool {
    let (an, want) = (Analyzer::new(), col("c_mktsegment").le(lit(k)));
    p.columns() == ["c_mktsegment"] && an.implies(p, &want) && an.implies(&want, p)
}

fn assert_same(what: &str, got: &(Plan, MoveAroundReport), want: &(Plan, MoveAroundReport)) {
    assert_eq!(got.0, want.0, "{what}: plans differ");
    assert_eq!(moves(&got.1), moves(&want.1), "{what}: reports differ");
}

/// (a) and (e): a second run of every template misses nothing, and is the
/// first run — which is the reference — in everything but the counters;
/// each predicate a hit attached is re-proved here, by a fresh solver.
#[test]
fn a_repeat_is_answered_from_the_cache_and_changes_nothing() {
    let db = db();
    let queries = TEMPLATES.iter().copied().chain([BLOCKED_BOUNDARY]);
    let wanted = (reference().iter().cloned()).chain([uncached(&db, BLOCKED_BOUNDARY)]);
    let mut attached_by_hits = 0;
    for (sql, want) in queries.zip(wanted) {
        let first = cached(&db, sql);
        let second = cached(&db, sql);
        assert_same(sql, &first, &want);
        assert_same(sql, &second, &want);
        let calls = want.1.synthesis_misses;
        assert!(calls > 0 && want.1.synthesis_hits == 0, "{sql}: {calls}");
        assert_eq!(first.1.synthesis_hits + first.1.synthesis_misses, calls);
        assert_eq!(
            (second.1.synthesis_hits, second.1.synthesis_misses),
            (calls, 0),
            "{sql}"
        );
        assert_eq!(
            second.1.to_string().matches("(cached)").count(),
            second.1.synthesized.len(),
            "{}",
            second.1
        );
        let gathered = second.1.gathered_conjunction();
        for (table, p) in &second.1.synthesized {
            let proof = verify_implies(&mut PredEncoder::new(), &gathered, p);
            assert_eq!(proof, Ok(Validity::Valid), "{sql}: `{p}` at {table}");
            attached_by_hits += 1;
        }
    }
    assert!(attached_by_hits >= 13, "{attached_by_hits}");
    let stats = db.synthesis_cache();
    assert_eq!(stats.misses, stats.inserts);
    assert!(stats.hits > stats.misses, "{stats:?}");
    assert_eq!(stats.evictions, 0);
}

/// (b): the customer-side boundary of the three-table chain is an
/// alpha-renaming of the two-table join's, so it hits across join shapes.
#[test]
fn an_alpha_renamed_boundary_hits_across_join_shapes() {
    let db = db();
    let two = cached(&db, TEMPLATES[2]);
    assert_eq!(two.1.synthesis_hits, 0);
    let three = cached(&db, CHAIN_2);
    assert_eq!(three.1.synthesis_misses, 0, "{}", three.1);
    assert!(three.1.synthesis_hits > 0);
    let (table, p) = &three.1.synthesized[0];
    assert!(table == "customer" && is_segment_bound(p, 3), "{}", three.1);
    assert_eq!(three.1.synthesized_cached, [true]);
    assert_same(CHAIN_2, &three, &uncached(&db, CHAIN_2));
}

/// (c): constants are in the key — the same template with 1 for 2 misses
/// on the customer side and learns a different bound.
#[test]
fn a_drifted_constant_misses_and_learns_its_own_bound() {
    let db = db();
    let learned = |r: &MoveAroundReport, k: i64| match r.synthesized.as_slice() {
        [(table, p)] => table == "customer" && is_segment_bound(p, k),
        _ => false,
    };
    let base = cached(&db, TEMPLATES[2]);
    assert!(learned(&base.1, 3), "{}", base.1);
    let drifted = cached(&db, TEMPLATES[3]);
    assert!(drifted.1.synthesis_misses > 0, "{}", drifted.1);
    assert_eq!(drifted.1.synthesized_cached, [false]);
    assert!(
        learned(&drifted.1, 1) && !learned(&drifted.1, 3),
        "{}",
        drifted.1
    );
}

/// (d): "nothing learnable here" is an answer, and is cached like one.
#[test]
fn a_negative_result_is_a_miss_then_a_hit_and_pushes_nothing() {
    let db = db();
    let first = cached(&db, NOTHING_LEARNABLE);
    let second = cached(&db, NOTHING_LEARNABLE);
    assert!(first.1.synthesis_misses > 0 && first.1.synthesis_hits == 0);
    assert_eq!(
        (second.1.synthesis_hits, second.1.synthesis_misses),
        (first.1.synthesis_misses, 0)
    );
    for r in [&first, &second] {
        assert!(r.1.synthesized.is_empty(), "{}", r.1);
        assert_eq!(r.0, first.0);
    }
    let stats = db.synthesis_cache();
    assert_eq!((stats.hits, stats.inserts), (0, stats.misses));
    let memo = db.plan_cache();
    assert_eq!((memo.hits, memo.misses), (1, 1));
}

/// (f): four threads released together onto one `&Database`, each running
/// every template, plan what the single-threaded reference plans. Two
/// first sights of one key may both synthesize; they learn the same thing.
#[test]
fn concurrent_callers_agree_with_the_single_threaded_plans() {
    const THREADS: usize = 4;
    let db = db();
    let start = Barrier::new(THREADS);
    let runs: Vec<Vec<(Plan, MoveAroundReport)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (db, start) = (&db, &start);
                s.spawn(move || {
                    start.wait();
                    // Each thread starts at a different template, so first
                    // sights and repeats interleave.
                    let rotated = (0..TEMPLATES.len()).map(|i| (i + 4 * t) % TEMPLATES.len());
                    let mut run: Vec<_> = rotated.map(|i| (i, cached(db, TEMPLATES[i]))).collect();
                    run.sort_by_key(|(i, _)| *i);
                    run.into_iter().map(|(_, r)| r).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no thread panicked"))
            .collect()
    });
    for run in &runs {
        for ((sql, got), want) in TEMPLATES.iter().zip(run).zip(reference()) {
            assert_same(sql, got, want);
        }
    }
    let stats = db.synthesis_cache();
    let calls: usize = reference().iter().map(|r| r.1.synthesis_misses).sum();
    let memo = db.plan_cache();
    assert_eq!(memo.hits + memo.misses, (THREADS * TEMPLATES.len()) as u64);
    let lookups = stats.hits + stats.misses;
    assert!(
        (calls..=THREADS * calls).contains(&(lookups as usize)),
        "{stats:?}"
    );
    assert!(stats.hits >= stats.misses, "{stats:?}");
}
