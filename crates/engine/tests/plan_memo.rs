//! The plan memo: `Database::optimized_plan` answers a query it has
//! planned before, under the same config, with the stored plan. A repeat
//! must be the first run cell for cell, the memo must forget everything
//! when `insert` changes a schema, and it must hold at most its bound.
//! Debug builds also re-plan every hit afresh and compare (the net in
//! `optimized_plan`), so each hit below is checked twice.

use sia_engine::{
    Database, ExecError, MoveAround, MoveAroundReport, OptimizerConfig, QueryResult, Table,
};
use sia_expr::{ColumnDef, DataType, Schema, Value};

/// Every query of the engine benchmark: `engine_join`'s 41 (which
/// include `moveraround.rs`'s three join workloads) and `engine_synth`'s
/// 16 templates (`synth_cache.rs`'s `TEMPLATES`), as `static_pass.golden`
/// records them.
const GOLDEN: &str = include_str!("static_pass.golden");

const MODES: [MoveAround; 3] = [MoveAround::Off, MoveAround::Static, MoveAround::Synthesis];

/// Entries the memo holds (`PLAN_MEMO_ENTRIES` in `db.rs`).
const BOUND: u64 = 1024;

fn config(move_around: MoveAround) -> OptimizerConfig {
    OptimizerConfig { move_around }
}

/// The `sia-gen` registry with rows, dimensions at catalog size.
fn gen_db() -> Database {
    let mut db = Database::new();
    for spec in sia_gen::tables() {
        let rows = match spec.name {
            "nation" => 50,
            "region" => 10,
            _ => 600,
        };
        let data = spec.sample(rows, 0x3E30 ^ spec.name.len() as u64);
        db.insert(spec.name, Table::from_rows(spec.schema(), &data));
    }
    db
}

fn int_table(columns: &[&str], rows: &[&[i64]]) -> Table {
    let defs = columns
        .iter()
        .map(|c| ColumnDef::new(*c, DataType::Integer));
    let rows: Vec<Vec<Value>> = (rows.iter())
        .map(|r| r.iter().map(|v| Value::Int(*v)).collect())
        .collect();
    Table::from_rows(Schema::new(defs.collect()), &rows)
}

/// A result's schema and every cell, in row order.
fn cells(r: &QueryResult) -> (Schema, Vec<Vec<Value>>) {
    let t = &r.table;
    let rows = (0..t.num_rows()).map(|i| t.columns.iter().map(|c| c.get(i)).collect());
    (t.schema.clone(), rows.collect())
}

/// Everything a report says apart from which tier answered.
fn moves(r: &MoveAroundReport) -> String {
    format!(
        "{:?} {:?} {:?} {}",
        r.gathered, r.derived, r.synthesized, r.contradiction
    )
}

fn run(db: &Database, sql: &str, mode: MoveAround) -> Result<QueryResult, ExecError> {
    db.run(&sia_sql::parse_query(sql).expect("parse"), config(mode))
}

/// Each benchmark query run twice in every mode on one database: the
/// second run is a memo hit that returns the first run's rows, plan,
/// moves and counters, and reports every boundary synthesis as a hit.
#[test]
fn a_repeat_is_answered_from_the_memo_cell_for_cell() {
    let db = gen_db();
    let mut repeats = 0;
    for sql in GOLDEN.lines().filter_map(|l| l.strip_prefix("Q ")) {
        for mode in MODES {
            let first = run(&db, sql, mode).expect("first run");
            let hits = db.plan_cache().hits;
            let second = run(&db, sql, mode).expect("repeat");
            repeats += 1;
            assert_eq!(db.plan_cache().hits, hits + 1, "{mode:?} {sql}");
            assert_eq!(cells(&second), cells(&first), "{mode:?} {sql}");
            assert_eq!(second.plan, first.plan, "{mode:?} {sql}");
            assert_eq!(moves(&second.moved), moves(&first.moved), "{mode:?} {sql}");
            assert_eq!(second.stats, first.stats, "{mode:?} {sql}");
            let calls = first.moved.synthesis_hits + first.moved.synthesis_misses;
            let (hits, misses) = (second.moved.synthesis_hits, second.moved.synthesis_misses);
            assert_eq!((hits, misses), (calls, 0), "{mode:?} {sql}");
            assert!(second.moved.synthesized_cached.iter().all(|c| *c));
        }
    }
    let stats = db.plan_cache();
    assert_eq!(repeats, 3 * 57);
    assert_eq!(stats.hits, repeats);
    assert_eq!((stats.misses, stats.inserts), (repeats, repeats));
}

/// A plan reads its tables' schemas: after `insert` moves a column from
/// one join side to the other, the memoized plan would filter the wrong
/// scan, so the next run must plan afresh; after it drops the column,
/// the query fails by name.
#[test]
fn inserting_a_table_forgets_every_memoized_plan() {
    const SQL: &str = "SELECT * FROM t, u WHERE k = k2 AND v < 3";
    let mut db = Database::new();
    db.insert("t", int_table(&["k", "v"], &[&[1, 2], &[2, 5]]));
    db.insert("u", int_table(&["k2"], &[&[1], &[2]]));
    for mode in MODES {
        let first = run(&db, SQL, mode).expect("first run");
        assert_eq!(first.table.num_rows(), 1, "{mode:?}");
        run(&db, SQL, mode).expect("repeat");
    }
    assert_eq!(db.plan_cache().hits, 3);

    db.insert("t", int_table(&["k"], &[&[1], &[2], &[3]]));
    db.insert("u", int_table(&["k2", "v"], &[&[2, 1], &[3, 2], &[3, 9]]));
    for mode in MODES {
        let moved = run(&db, SQL, mode).expect("the moved column plans afresh");
        let want = [[2, 2, 1], [3, 3, 2]].map(|r| r.map(Value::Int).to_vec());
        assert_eq!(cells(&moved).1, want, "{mode:?}\n{}", moved.plan);
    }
    let stats = db.plan_cache();
    assert_eq!((stats.hits, stats.misses), (3, 6));

    db.insert("u", int_table(&["k2"], &[&[1]]));
    for mode in MODES {
        let dropped = run(&db, SQL, mode).map(|r| r.table.num_rows());
        assert_eq!(
            dropped,
            Err(ExecError::UnknownColumn("v".into())),
            "{mode:?}"
        );
    }
    assert_eq!(db.plan_cache().hits, 3);
}

/// 1 100 distinct queries leave at most the bound in the memo; the rest
/// are evicted, least recently used first.
#[test]
fn the_memo_keeps_at_most_its_bound() {
    let mut db = Database::new();
    db.insert("t", int_table(&["a"], &[&[1], &[2]]));
    let sql = |i: u64| format!("SELECT * FROM t WHERE a < {i}");
    let plan = |i: u64| {
        let query = sia_sql::parse_query(&sql(i)).expect("parse");
        db.optimized_plan(&query, config(MoveAround::Static))
            .expect("plan");
    };
    (0..1100).for_each(plan);
    let stats = db.plan_cache();
    assert_eq!((stats.misses, stats.inserts), (1100, 1100));
    assert_eq!(stats.evictions, 1100 - BOUND);
    plan(1099);
    assert_eq!(db.plan_cache().hits, 1, "the newest entry stays");
    plan(0);
    assert_eq!(db.plan_cache().misses, 1101, "the oldest entry went first");
}
