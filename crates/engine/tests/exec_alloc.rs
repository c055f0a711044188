//! "The executor never copies a base column" and "a dropped result hands
//! its columns back", pinned by what it allocates rather than by a
//! stopwatch: a counting global allocator measures, on the calling thread
//! only, the allocation calls made during `execute`, how many of them were
//! large enough for glibc to map fresh pages, and the high-water mark of
//! live bytes over what was live before it.

#![allow(unsafe_code)]

use sia_engine::{execute, Column, Database, Plan, QueryResult, Table};
use sia_expr::{ColumnDef, DataType, Schema, Value};
use sia_sql::parse_predicate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated while it was measuring.
#[derive(Debug, Clone, Copy)]
struct Meter {
    on: bool,
    allocs: u64,
    /// Allocations (or growths) to a block of at least [`MMAP_THRESHOLD`].
    big: u64,
    live: i64,
    peak: i64,
}

const IDLE: Meter = Meter {
    on: false,
    allocs: 0,
    big: 0,
    live: 0,
    peak: 0,
};

/// glibc's default `M_MMAP_THRESHOLD`: a block this large is mapped,
/// faulted in and unmapped on every allocation.
const MMAP_THRESHOLD: usize = 128 * 1024;

thread_local! {
    // Per thread, so tests running side by side do not see each other;
    // const-initialized and without a destructor, so reading it inside
    // the allocator never allocates.
    static METER: Cell<Meter> = const { Cell::new(IDLE) };
}

/// `allocs` calls that change live bytes by `bytes`, leaving a block of
/// `size` bytes (0 for a free).
fn record(allocs: u64, bytes: i64, size: usize) {
    // `try_with`: the allocator still runs while a thread is torn down.
    let _ = METER.try_with(|cell| {
        let mut m = cell.get();
        if m.on {
            m.allocs += allocs;
            m.big += u64::from(allocs > 0 && bytes > 0 && size >= MMAP_THRESHOLD);
            m.live += bytes;
            m.peak = m.peak.max(m.live);
            cell.set(m);
        }
    });
}

/// The system allocator plus the calling thread's meter.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the meter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64, layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64), 0);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64, layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64, new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `plan`, returning the result and what executing it allocated. The
/// result is still alive when the meter is read, so `peak` includes it.
fn measured(plan: &Plan, db: &Database) -> (Table, u64, Meter) {
    METER.with(|m| m.set(Meter { on: true, ..IDLE }));
    let result = execute(plan, db);
    let meter = METER.with(|m| m.replace(IDLE));
    let (table, _, stats) = result.expect("the plan runs");
    (table, stats.rows_scanned, meter)
}

/// `rows` rows of INTEGER columns `{p}0..{p}{cols}`: `{p}0` is the row
/// number, `{p}1` the row number modulo 100, the rest multiples of it.
fn table(p: &str, rows: i64, cols: usize) -> Table {
    let defs = (0..cols).map(|c| ColumnDef::new(format!("{p}{c}"), DataType::Integer));
    let columns = (0..cols as i64).map(|c| match c {
        0 => Column::int((0..rows).collect()),
        1 => Column::int((0..rows).map(|r| r % 100).collect()),
        _ => Column::int((0..rows).map(|r| r * c).collect()),
    });
    Table::new(Schema::new(defs.collect()), columns.collect())
}

fn bytes_of(t: &Table) -> i64 {
    (t.num_rows() * t.columns.len() * 8) as i64
}

fn pred(sql: &str) -> sia_expr::Pred {
    parse_predicate(sql).expect("predicate parses")
}

#[test]
fn a_selective_filter_allocates_a_fraction_of_its_table() {
    let mut db = Database::new();
    db.insert("t", table("t", 100_000, 6));
    let base = bytes_of(db.table("t").expect("just inserted"));
    // One row in a hundred, from every chunk of the table.
    let plan = Plan::scan("t").filter(pred("t1 < 1 AND t2 >= 0"));
    let (out, _, meter) = measured(&plan, &db);
    assert_eq!(out.num_rows(), 1000);
    assert!(
        meter.peak * 10 < base,
        "peak {} B against a {base} B table (a clone of it is 100 %)",
        meter.peak
    );
}

#[test]
fn a_filter_above_a_join_allocates_for_its_result_not_for_the_join_s() {
    let mut db = Database::new();
    db.insert("a", table("a", 50_000, 3));
    db.insert("b", table("b", 50_000, 3));
    // Every row joins once; the filter reads both sides and keeps a tenth.
    let plan = Plan::scan("a")
        .hash_join(Plan::scan("b"), "a0", "b0")
        .filter(pred("a1 + b1 < 20 AND b2 >= a0"));
    let (out, input_rows, meter) = measured(&plan, &db);
    assert_eq!((out.num_rows(), out.columns.len()), (5000, 6));
    assert_eq!(input_rows, 100_000);
    let bound = 2 * bytes_of(&out) + 32 * input_rows as i64;
    assert!(
        meter.peak < bound,
        "peak {} B, bound {bound} B (the join's six gathered columns alone are {} B)",
        meter.peak,
        50_000 * 6 * 8
    );
}

#[test]
fn a_join_allocates_per_column_not_per_key() {
    let mut db = Database::new();
    db.insert("a", table("a", 10_000, 2));
    db.insert("b", table("b", 10_000, 2));
    let plan = Plan::scan("a").hash_join(Plan::scan("b"), "a0", "b0");
    let (out, _, meter) = measured(&plan, &db);
    assert_eq!(out.num_rows(), 10_000);
    assert!(
        meter.allocs < 200,
        "{} allocations for 10 000 distinct keys",
        meter.allocs
    );
}

/// A filter directly over a scan reads its columns in place and keeps rows
/// in the pass that compares them: its allocations are the same few at
/// ten times the rows, not some per chunk of them.
#[test]
fn a_filter_over_a_scan_allocates_nothing_per_chunk() {
    for sql in ["t1 < 50", "t2 >= t0"] {
        let allocs = [10_000, 100_000].map(|rows| {
            let mut db = Database::new();
            db.insert("t", table("t", rows, 3));
            let (out, _, meter) = measured(&Plan::scan("t").filter(pred(sql)), &db);
            assert!(out.num_rows() > 0, "{sql} keeps rows");
            meter.allocs
        });
        assert_eq!(
            allocs[0], allocs[1],
            "{sql}: allocations at 10 000 and 100 000 rows"
        );
    }
}

/// What the scratch a `Database` owns, and the handle a result keeps to
/// it, must not cost them.
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Database>();
    send_and_sync::<QueryResult>();
    send_and_sync::<Table>();
};

/// A repeated query borrows every selection, bucket and match buffer the
/// first run handed back to the database: the second run's only large
/// allocations are its result's columns, and at its high-water mark it
/// holds its result plus the evaluator's chunk-sized lanes.
#[test]
fn a_repeated_query_allocates_its_result_and_little_else() {
    let mut db = Database::new();
    db.insert("a", table("a", 50_000, 3));
    db.insert("b", table("b", 50_000, 3));
    // Half of `a` joins once each; the filter above keeps four in five.
    let plan = Plan::scan("a")
        .filter(pred("a1 < 50"))
        .hash_join(Plan::scan("b"), "a0", "b0")
        .filter(pred("a1 + b1 < 80 AND b2 >= a0"));
    let (first, _, _) = measured(&plan, &db);
    let (out, _, meter) = measured(&plan, &db);
    assert_eq!((out.num_rows(), out.columns.len()), (20_000, 6));
    assert_eq!(format!("{first:?}"), format!("{out:?}"));
    let result_columns = out
        .columns
        .iter()
        .filter(|c| c.len() * 8 >= MMAP_THRESHOLD)
        .count() as u64;
    assert!(
        meter.big <= result_columns,
        "{} large allocations, {result_columns} of them result columns",
        meter.big
    );
    let bound = bytes_of(&out) + 64 * 1024;
    assert!(
        meter.peak <= bound,
        "peak {} B, bound {bound} B (a {} B result)",
        meter.peak,
        bytes_of(&out)
    );
}

/// Once a result is dropped, its columns are the next query's: a repeat
/// gathers into them, so it maps nothing, and at its high-water mark it
/// holds only the evaluator's chunk-sized lanes and the result's headers.
#[test]
fn a_repeated_query_after_its_result_is_dropped_maps_nothing() {
    let mut db = Database::new();
    db.insert("a", table("a", 50_000, 3));
    db.insert("b", table("b", 50_000, 3));
    // The plan of the test above.
    let plan = Plan::scan("a")
        .filter(pred("a1 < 50"))
        .hash_join(Plan::scan("b"), "a0", "b0")
        .filter(pred("a1 + b1 < 80 AND b2 >= a0"));
    let (first, _, _) = measured(&plan, &db);
    let first_rows = format!("{first:?}");
    drop(first);
    let (out, _, meter) = measured(&plan, &db);
    assert_eq!((out.num_rows(), out.columns.len()), (20_000, 6));
    assert_eq!(format!("{out:?}"), first_rows);
    assert_eq!(meter.big, 0, "large allocations in a repeat");
    assert!(
        meter.peak <= 64 * 1024,
        "peak {} B over what was live before (a {} B result)",
        meter.peak,
        bytes_of(&out)
    );
}

/// Whatever ran before, a database keeps at most one result's worth of
/// column buffers: after one large result and twenty smaller ones of
/// other shapes and types, all dropped, what it holds beyond its tables
/// is the large result's bytes plus its row-number buffers.
#[test]
fn a_database_keeps_at_most_one_result() {
    let mut db = Database::new();
    db.insert("big", table("big", 100_000, 3));
    db.insert("a", table("a", 1_000, 3));
    db.insert("b", table("b", 1_000, 3));
    // DOUBLE columns, one with NULLs: buffers the large result has none of.
    let doubles = Schema::new(vec![
        ColumnDef::new("d0", DataType::Double),
        ColumnDef::nullable("d1", DataType::Double),
    ]);
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|r| {
            let d1 = if r % 7 == 0 {
                Value::Null
            } else {
                Value::Double(r as f64)
            };
            vec![Value::Double(r as f64 / 2.0), d1]
        })
        .collect();
    db.insert("d", Table::from_rows(doubles, &rows));
    let smalls: Vec<Plan> = (0..20)
        .map(|i| match i % 4 {
            0 => Plan::scan("d"),
            1 => Plan::scan("d").project(vec!["d1".to_string()]),
            2 => Plan::scan("a").hash_join(Plan::scan("b"), "a0", "b0"),
            _ => Plan::scan("a")
                .filter(pred(&format!("a1 < {i}")))
                .hash_join(Plan::scan("b"), "a0", "b0"),
        })
        .collect();

    METER.with(|m| m.set(Meter { on: true, ..IDLE }));
    let (large, _, _) = execute(&Plan::scan("big"), &db).expect("the scan runs");
    let large_bytes = bytes_of(&large);
    drop(large);
    for plan in &smalls {
        let (small, _, _) = execute(plan, &db).expect("the plan runs");
        assert!(bytes_of(&small) < large_bytes);
    }
    let meter = METER.with(|m| m.replace(IDLE));

    // The scratch keeps at most eight row-number buffers, here none longer
    // than a 1 000-row join's 2 048 bucket heads.
    let row_buffers = 8 * 2048 * 4;
    assert!(
        meter.live <= large_bytes + row_buffers,
        "{} B held after the queries, a {large_bytes} B largest result",
        meter.live
    );
}
