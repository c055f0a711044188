//! The filter cache: a filter directly over a base-table scan that a
//! database has evaluated before is answered from the bitmap of the rows
//! it kept. A repeat must be the first run row for row and count for
//! count, `insert` must forget every entry, two predicates that print
//! alike must never share rows, and the cache must hold at most its
//! bound. Debug builds also re-evaluate every hit and compare (the net in
//! `exec::run`), so each hit below is checked twice.

use sia_engine::{
    execute, Column, Database, MoveAround, OptimizerConfig, Plan, QueryResult, Table,
};
use sia_expr::{ColumnDef, DataType, Schema, Value};
use sia_sql::parse_predicate;

/// Every query of the engine benchmark, as `static_pass.golden` records
/// them (see `plan_memo.rs`).
const GOLDEN: &str = include_str!("static_pass.golden");

/// Bytes the cache holds (`FILTER_CACHE_BYTES` in `exec.rs`).
const BOUND: usize = 4 << 20;

/// The `sia-gen` registry with rows, dimensions at catalog size.
fn gen_db() -> Database {
    let mut db = Database::new();
    for spec in sia_gen::tables() {
        let rows = match spec.name {
            "nation" => 50,
            "region" => 10,
            _ => 600,
        };
        let data = spec.sample(rows, 0xF17 ^ spec.name.len() as u64);
        db.insert(spec.name, Table::from_rows(spec.schema(), &data));
    }
    db
}

fn int_table(name: &str, values: Vec<i64>) -> Table {
    let schema = Schema::new(vec![ColumnDef::new(name, DataType::Integer)]);
    Table::new(schema, vec![Column::int(values)])
}

/// A result's every cell, in row order.
fn cells(t: &Table) -> Vec<Vec<Value>> {
    let row = |i| t.columns.iter().map(|c| c.get(i)).collect();
    (0..t.num_rows()).map(row).collect()
}

/// `plan`'s operators in pre-order, as `QueryResult::operators` lists
/// them, each with whether it is a filter directly over a scan.
fn over_scan(plan: &Plan, out: &mut Vec<bool>) {
    let filter_over_scan =
        matches!(plan, Plan::Filter { input, .. } if matches!(**input, Plan::Scan { .. }));
    out.push(filter_over_scan);
    plan.children().into_iter().for_each(|c| over_scan(c, out));
}

fn run(db: &Database, sql: &str) -> QueryResult {
    let query = sia_sql::parse_query(sql).expect("parse");
    let config = OptimizerConfig {
        move_around: MoveAround::Synthesis,
    };
    db.run(&query, config).expect("runs")
}

/// Each benchmark query run twice on one database: every filter over a
/// scan in the repeat is a hit that `explain_analyze` marks `cached`, and
/// the repeat's rows, counters and per-operator row counts are the first
/// run's.
#[test]
fn a_repeat_s_scan_filters_are_hits_with_the_first_run_s_counts() {
    let db = gen_db();
    let mut hits = 0;
    for sql in GOLDEN.lines().filter_map(|l| l.strip_prefix("Q ")) {
        let first = run(&db, sql);
        let before = db.filter_cache();
        let second = run(&db, sql);
        let after = db.filter_cache();
        let mut scan_filters = Vec::new();
        over_scan(&second.plan, &mut scan_filters);
        let expected = scan_filters.iter().filter(|&&f| f).count() as u64;
        assert_eq!(after.hits - before.hits, expected, "{sql}");
        assert_eq!(after.misses, before.misses, "{sql}");
        hits += expected;

        assert_eq!(cells(&second.table), cells(&first.table), "{sql}");
        assert_eq!(second.stats, first.stats, "{sql}");
        let counts = |r: &QueryResult| -> Vec<(u64, u64)> {
            r.operators
                .iter()
                .map(|op| (op.rows_in, op.rows_out))
                .collect()
        };
        assert_eq!(counts(&second), counts(&first), "{sql}");
        let cached: Vec<bool> = second.operators.iter().map(|op| op.cached).collect();
        assert_eq!(cached, scan_filters, "{sql}");
        let text = second.explain_analyze();
        for (line, cached) in text.lines().zip(&scan_filters) {
            assert_eq!(line.ends_with(" ms cached]"), *cached, "{line}");
        }
    }
    assert!(hits >= 57, "{hits} filters over scans in 57 queries");
}

/// `insert` of a table under a name in use forgets every cached filter,
/// the other tables' too: the next run of each query evaluates its
/// filter again and returns the new table's rows.
#[test]
fn inserting_a_table_forgets_every_cached_filter() {
    let mut db = Database::new();
    db.insert("t", int_table("a", vec![1, 2, 3]));
    db.insert("u", int_table("b", vec![7, 8]));
    let (on_t, on_u) = (
        Plan::scan("t").filter(parse_predicate("a < 3").expect("parses")),
        Plan::scan("u").filter(parse_predicate("b > 7").expect("parses")),
    );
    let rows = |db: &Database, plan: &Plan| execute(plan, db).expect("runs").0.num_rows();
    for _ in 0..2 {
        assert_eq!((rows(&db, &on_t), rows(&db, &on_u)), (2, 1));
    }
    let warm = db.filter_cache();
    assert_eq!((warm.misses, warm.hits, warm.inserts), (2, 2, 2));

    db.insert("t", int_table("a", vec![1, 1, 1, 1, 5]));
    assert_eq!((rows(&db, &on_t), rows(&db, &on_u)), (4, 1));
    let fresh = db.filter_cache();
    assert_eq!((fresh.misses, fresh.hits, fresh.inserts), (4, 2, 4));
    assert_eq!(rows(&db, &on_t), 4);
    assert_eq!(db.filter_cache().hits, 3);
}

/// `a * 3 > 9223372036854775806` with an INTEGER `3` keeps the row
/// `a = 3074457345618258603` (the product saturates at `i64::MAX`), and
/// with a DOUBLE `3.0` drops it (the product rounds to 2^63, as does the
/// constant); both print alike. Whichever runs first, the other is a
/// miss that evaluates its own predicate.
#[test]
fn predicates_that_print_alike_are_not_served_each_other_s_rows() {
    let int = parse_predicate("a * 3 > 9223372036854775806").expect("parses");
    let double = parse_predicate("a * 3.0 > 9223372036854775806").expect("parses");
    assert_eq!(int.to_string(), double.to_string());
    assert_ne!(int, double);
    let table = || int_table("a", vec![3_074_457_345_618_258_603, 0]);
    for (first, second, rows) in [(&int, &double, [1, 0]), (&double, &int, [0, 1])] {
        let mut db = Database::new();
        db.insert("t", table());
        for (pred, want) in [first, second].into_iter().zip(rows) {
            let plan = Plan::scan("t").filter(pred.clone());
            let (out, _, _) = execute(&plan, &db).expect("runs");
            assert_eq!(out.num_rows(), want, "{pred:?}");
        }
        let stats = db.filter_cache();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }
}

/// More distinct predicates than fit: the cache evicts the least recently
/// used, counts each eviction, and never holds more than its bound.
#[test]
fn the_cache_keeps_at_most_its_bound_of_bytes() {
    const ROWS: i64 = 64 * 1024;
    // One bit per row; the key text is a few bytes more.
    const BITMAP: usize = ROWS as usize / 8;
    let fits = BOUND / (BITMAP + 16);
    let mut db = Database::new();
    db.insert("t", int_table("a", (0..ROWS).collect()));
    let plan =
        |i: usize| Plan::scan("t").filter(parse_predicate(&format!("a < {i}")).expect("parses"));
    let queries = fits + 100;
    for i in 0..queries {
        let (out, _, _) = execute(&plan(i), &db).expect("runs");
        assert_eq!(out.num_rows(), i);
    }
    let stats = db.filter_cache();
    assert_eq!((stats.inserts, stats.hits), (queries as u64, 0));
    let held = (stats.inserts - stats.evictions) as usize;
    assert!(held * BITMAP <= BOUND, "{held} bitmaps of {BITMAP} B held");
    assert!(held >= fits, "{held} held where {fits} fit");
    // The most recent is still held; the first went first.
    execute(&plan(queries - 1), &db).expect("runs");
    assert_eq!(db.filter_cache().hits, 1);
    execute(&plan(0), &db).expect("runs");
    let stats = db.filter_cache();
    assert_eq!((stats.hits, stats.misses), (1, queries as u64 + 1));
}
