//! Plan execution: sequential scans, compiled-predicate filters, and hash
//! equi-joins over the columnar tables.
//!
//! No operator copies a base column. Operators hand each other a borrowed
//! relation (`Rel`): columns that still live in the [`Database`], and
//! per source table a selection vector naming the payload row behind each
//! relation row. A scan borrows, a filter and a join shorten or compose
//! selections, and only [`execute`] materializes, once, at the plan root.
//!
//! Every row-number buffer an operator needs — a filter's selection, a
//! join's bucket heads, chains and match lists, a composed selection — is
//! borrowed from the database's `Scratch` and handed back once the
//! result is gathered, so a query's only large allocations are its
//! result's columns.

use crate::compile::{compile_pred, ColRef, UnknownColumn};
use crate::db::Database;
use crate::plan::Plan;
use crate::table::{Column, ColumnData, Table};
use sia_expr::Schema;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Counters gathered during execution (the cost signals the evaluation in
/// §6.6 reasons about: join input sizes vs filter work).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Rows evaluated by filters.
    pub rows_filtered: u64,
    /// Rows entering hash joins (build + probe).
    pub join_input_rows: u64,
    /// Rows produced by joins.
    pub join_output_rows: u64,
}

/// What one operator of the executed plan saw and cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Rows the operator read: a scan's table, a filter's or projection's
    /// input, a join's two inputs together.
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// The operator's wall time minus its children's.
    pub self_time: Duration,
}

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Unknown base table.
    UnknownTable(String),
    /// A predicate/projection/join-key column name that resolves nowhere.
    UnknownColumn(String),
    /// A query the names resolve for but the engine cannot run.
    Unsupported(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            ExecError::Unsupported(why) => write!(f, "unsupported: {why}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<UnknownColumn> for ExecError {
    fn from(e: UnknownColumn) -> Self {
        ExecError::UnknownColumn(e.0)
    }
}

/// Execute a plan against a database, returning the result table, timing,
/// and counters.
pub fn execute(plan: &Plan, db: &Database) -> Result<(Table, Duration, ExecStats), ExecError> {
    let (table, elapsed, stats, _) = execute_analyze(plan, db)?;
    Ok((table, elapsed, stats))
}

/// [`execute`], plus every operator's numbers in plan pre-order.
pub(crate) fn execute_analyze(
    plan: &Plan,
    db: &Database,
) -> Result<(Table, Duration, ExecStats, Vec<OpStats>), ExecError> {
    let (mut stats, mut ops) = (ExecStats::default(), Vec::new());
    let start = Instant::now();
    let (rel, _) = run(plan, db, &mut stats, &mut ops)?;
    // The one place rows are copied: each output column, once, through its
    // source's selection (a bare scan has none and is cloned).
    let columns = rel
        .cols
        .iter()
        .map(|&(source, col)| match &rel.sels[source] {
            Some(rows) => col.gather(rows),
            None => col.clone(),
        })
        .collect();
    let table = Table::new(rel.schema, columns);
    rel.sels
        .into_iter()
        .flatten()
        .for_each(|sel| db.scratch.give(sel));
    Ok((table, start.elapsed(), stats, ops))
}

/// Row-number buffers execution borrows and hands back, owned by a
/// [`Database`] and dropped with it. A buffer comes out empty and its
/// taker initializes what it reads, so nothing a query sees depends on the
/// one before; between queries at most [`SCRATCH_BUFFERS`] are kept, the
/// largest.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Free buffers, ascending by capacity.
    free: Mutex<Vec<Vec<u32>>>,
}

/// About as many buffers as one query holds at once: a join's heads,
/// chains and two match lists beside its inputs' selections.
const SCRATCH_BUFFERS: usize = 8;

impl Scratch {
    fn free(&self) -> MutexGuard<'_, Vec<Vec<u32>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty buffer with room for `len` values: the smallest free one
    /// that has it, else the largest, grown.
    pub(crate) fn take(&self, len: usize) -> Vec<u32> {
        let mut buf = {
            let mut free = self.free();
            let fits = free.partition_point(|b| b.capacity() < len);
            match free.len() {
                0 => Vec::new(),
                n => free.remove(fits.min(n - 1)),
            }
        };
        buf.clear();
        buf.reserve(len);
        buf
    }

    /// Hand a buffer back for the next taker.
    pub(crate) fn give(&self, buf: Vec<u32>) {
        let mut free = self.free();
        let at = free.partition_point(|b| b.capacity() < buf.capacity());
        free.insert(at, buf);
        if free.len() > SCRATCH_BUFFERS {
            free.remove(0);
        }
    }
}

/// Row numbers are `u32` from the scan on; a longer table is refused.
fn row_count(rows: usize) -> Result<u32, ExecError> {
    u32::try_from(rows)
        .map_err(|_| ExecError::Unsupported(format!("{rows} rows exceed the u32::MAX limit")))
}

/// A relation between operators, borrowed from the database.
struct Rel<'a> {
    schema: Schema,
    /// The visible columns in schema order: which source each belongs to,
    /// and its payload.
    cols: Vec<(usize, &'a Column)>,
    /// Per source table, the payload row behind each relation row; `None`
    /// = every row in order.
    sels: Vec<Option<Vec<u32>>>,
    rows: u32,
}

impl Rel<'_> {
    /// Keep relation rows `picks`, in that order: the first source's
    /// selection composes into `picks` itself, every other source's into a
    /// buffer from `scratch`, and the selections they replace go back.
    fn pick(&mut self, mut picks: Vec<u32>, scratch: &Scratch) -> Result<(), ExecError> {
        self.rows = row_count(picks.len())?;
        let (first, rest) = self
            .sels
            .split_first_mut()
            .expect("a relation has a source");
        for sel in rest {
            let mut composed = scratch.take(picks.len());
            match sel {
                Some(rows) => composed.extend(picks.iter().map(|&p| rows[p as usize])),
                None => composed.extend_from_slice(&picks),
            }
            if let Some(old) = sel.replace(composed) {
                scratch.give(old);
            }
        }
        if let Some(rows) = first {
            picks.iter_mut().for_each(|p| *p = rows[*p as usize]);
        }
        if let Some(old) = first.replace(picks) {
            scratch.give(old);
        }
        Ok(())
    }

    /// Column `idx` as the evaluator and the join read it.
    fn col_ref(&self, idx: usize) -> ColRef<'_> {
        let (source, col) = self.cols[idx];
        ColRef {
            col,
            sel: self.sels[source].as_deref(),
        }
    }

    fn index_of(&self, name: &str) -> Result<usize, ExecError> {
        self.schema
            .index_of(name)
            .ok_or_else(|| ExecError::UnknownColumn(name.to_string()))
    }
}

/// Run a subtree: its relation, and its wall time for the parent's
/// `self_time`. Operators are numbered in plan pre-order.
fn run<'a>(
    plan: &Plan,
    db: &'a Database,
    stats: &mut ExecStats,
    ops: &mut Vec<OpStats>,
) -> Result<(Rel<'a>, Duration), ExecError> {
    let start = Instant::now();
    let slot = ops.len();
    ops.push(OpStats::default());
    let (rel, rows_in, below) = match plan {
        Plan::Scan { table } => {
            let t = db
                .table(table)
                .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
            let rows = row_count(t.num_rows())?;
            stats.rows_scanned += u64::from(rows);
            let rel = Rel {
                schema: t.schema.clone(),
                cols: t.columns.iter().map(|c| (0, c)).collect(),
                sels: vec![None],
                rows,
            };
            (rel, u64::from(rows), Duration::ZERO)
        }
        Plan::Filter { pred, input } => {
            let (mut rel, below) = run(input, db, stats, ops)?;
            let rows_in = u64::from(rel.rows);
            stats.rows_filtered += rows_in;
            let cols: Vec<_> = (0..rel.cols.len()).map(|i| rel.col_ref(i)).collect();
            let pred = compile_pred(pred, &rel.schema)?;
            let keep = pred.select(&cols, rel.rows, db.scratch.take(rel.rows as usize));
            rel.pick(keep, &db.scratch)?;
            (rel, rows_in, below)
        }
        Plan::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (lt, left_time) = run(left, db, stats, ops)?;
            let (rt, right_time) = run(right, db, stats, ops)?;
            let rows_in = u64::from(lt.rows) + u64::from(rt.rows);
            stats.join_input_rows += rows_in;
            let out = hash_join(lt, rt, left_key, right_key, &db.scratch)?;
            stats.join_output_rows += u64::from(out.rows);
            (out, rows_in, left_time + right_time)
        }
        Plan::Project { columns, input } => {
            let (mut rel, below) = run(input, db, stats, ops)?;
            let picked: Vec<usize> = columns
                .iter()
                .map(|name| rel.index_of(name))
                .collect::<Result<_, _>>()?;
            let defs = picked.iter().map(|&i| rel.schema.columns()[i].clone());
            rel.schema = Schema::new(defs.collect());
            rel.cols = picked.iter().map(|&i| rel.cols[i]).collect();
            let rows_in = u64::from(rel.rows);
            (rel, rows_in, below)
        }
    };
    let total = start.elapsed();
    ops[slot] = OpStats {
        rows_in,
        rows_out: u64::from(rel.rows),
        self_time: total.saturating_sub(below),
    };
    Ok((rel, total))
}

/// An integer join key as the join reads it; NULL keys never join,
/// matching SQL semantics.
struct Key<'k> {
    values: &'k [i64],
    col: ColRef<'k>,
    rows: u32,
}

impl<'k> Key<'k> {
    fn of(rel: &'k Rel<'_>, name: &str) -> Result<Self, ExecError> {
        let col = rel.col_ref(rel.index_of(name)?);
        let ColumnData::Int(values) = &col.col.data else {
            let why = format!("{name} is not an integer join key");
            return Err(ExecError::Unsupported(why));
        };
        let rows = rel.rows;
        Ok(Key { values, col, rows })
    }

    fn get(&self, p: u32) -> Option<i64> {
        let row = self.col.row(p);
        let valid = self.col.col.validity.as_ref().is_none_or(|m| m[row]);
        valid.then(|| self.values[row])
    }
}

/// End of a bucket's chain; no row has this number (see [`row_count`]).
const NIL: u32 = u32::MAX;

/// The matching (build row, probe row) pairs of an equi-join, probe-major
/// with each probe row's build matches ascending. The table is two flat
/// arrays: `heads[bucket]` is the first build row of a bucket's chain and
/// `next[row]` the one after `row`; inserting in reverse makes every
/// chain ascend. All four buffers come from `scratch`; the table goes back.
fn matches(build: &Key<'_>, probe: &Key<'_>, scratch: &Scratch) -> (Vec<u32>, Vec<u32>) {
    let buckets = (build.rows as usize * 2).next_power_of_two().max(2);
    let shift = 64 - buckets.trailing_zeros();
    // Multiplicative (Fibonacci) hashing: the top bits of key × 2^64/φ.
    #[allow(clippy::cast_sign_loss)]
    let bucket = |key: i64| ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
    let mut heads = scratch.take(buckets);
    heads.resize(buckets, NIL);
    let mut next = scratch.take(build.rows as usize);
    next.resize(build.rows as usize, NIL);
    for b in (0..build.rows).rev() {
        if let Some(key) = build.get(b) {
            let head = &mut heads[bucket(key)];
            next[b as usize] = *head;
            *head = b;
        }
    }
    // Sized for a key the build side holds once; more matches grow them.
    let hint = probe.rows as usize;
    let (mut build_out, mut probe_out) = (scratch.take(hint), scratch.take(hint));
    for p in 0..probe.rows {
        let Some(key) = probe.get(p) else { continue };
        let mut b = heads[bucket(key)];
        while b != NIL {
            if build.values[build.col.row(b)] == key {
                build_out.push(b);
                probe_out.push(p);
            }
            b = next[b as usize];
        }
    }
    scratch.give(heads);
    scratch.give(next);
    (build_out, probe_out)
}

/// Hash join on integer keys. Builds on the smaller input; output rows are
/// probe-side-major, columns left then right.
fn hash_join<'a>(
    mut left: Rel<'a>,
    mut right: Rel<'a>,
    left_key: &str,
    right_key: &str,
    scratch: &Scratch,
) -> Result<Rel<'a>, ExecError> {
    let (left_rows, right_rows) = {
        let (lk, rk) = (Key::of(&left, left_key)?, Key::of(&right, right_key)?);
        if left.rows <= right.rows {
            matches(&lk, &rk, scratch)
        } else {
            let (right_rows, left_rows) = matches(&rk, &lk, scratch);
            (left_rows, right_rows)
        }
    };
    left.pick(left_rows, scratch)?;
    right.pick(right_rows, scratch)?;
    let base = left.sels.len();
    left.sels.append(&mut right.sels);
    left.cols
        .extend(right.cols.iter().map(|&(src, col)| (base + src, col)));
    left.schema = Schema::new([left.schema.columns(), right.schema.columns()].concat());
    Ok(left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use sia_expr::{col, lit, ColumnDef, DataType};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(
            "orders",
            Table::new(
                Schema::new(vec![
                    ColumnDef::new("o_orderkey", DataType::Integer),
                    ColumnDef::new("o_orderdate", DataType::Date),
                ]),
                vec![
                    Column::int(vec![1, 2, 3, 4]),
                    Column::int(vec![-10, 5, -3, 20]),
                ],
            ),
        );
        db.insert(
            "lineitem",
            Table::new(
                Schema::new(vec![
                    ColumnDef::new("l_orderkey", DataType::Integer),
                    ColumnDef::new("l_shipdate", DataType::Date),
                ]),
                vec![
                    Column::int(vec![1, 1, 2, 3, 5]),
                    Column::int(vec![0, 7, 9, 2, 100]),
                ],
            ),
        );
        db
    }

    #[test]
    fn scan_and_filter() {
        let db = db();
        let plan = Plan::scan("orders").filter(col("o_orderdate").lt(lit(0)));
        let (t, _, stats) = execute(&plan, &db).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(stats.rows_scanned, 4);
        assert_eq!(stats.rows_filtered, 4);
    }

    #[test]
    fn hash_join_basic() {
        let db = db();
        let plan =
            Plan::scan("lineitem").hash_join(Plan::scan("orders"), "l_orderkey", "o_orderkey");
        let (t, _, stats) = execute(&plan, &db).unwrap();
        // keys 1(×2), 2, 3 match; 5 does not.
        assert_eq!(t.num_rows(), 4);
        assert_eq!(stats.join_input_rows, 9);
        assert_eq!(stats.join_output_rows, 4);
        // Output schema holds both tables' columns.
        assert!(t.column("l_shipdate").is_some());
        assert!(t.column("o_orderdate").is_some());
        // Join key equality holds on every output row.
        for row in 0..t.num_rows() {
            assert_eq!(t.value(row, "l_orderkey"), t.value(row, "o_orderkey"));
        }
    }

    #[test]
    fn join_then_filter_equals_filter_then_join() {
        let db = db();
        let after = Plan::scan("lineitem")
            .hash_join(Plan::scan("orders"), "l_orderkey", "o_orderkey")
            .filter(col("l_shipdate").lt(lit(8)));
        let before = Plan::scan("lineitem")
            .filter(col("l_shipdate").lt(lit(8)))
            .hash_join(Plan::scan("orders"), "l_orderkey", "o_orderkey");
        let (ta, _, _) = execute(&after, &db).unwrap();
        let (tb, _, _) = execute(&before, &db).unwrap();
        assert_eq!(ta.num_rows(), tb.num_rows());
        // Same multiset of (l_orderkey, l_shipdate) pairs.
        let collect = |t: &Table| {
            let mut v: Vec<(i64, i64)> = (0..t.num_rows())
                .map(|r| {
                    (
                        t.value(r, "l_orderkey").as_i64().unwrap(),
                        t.value(r, "l_shipdate").as_i64().unwrap(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(collect(&ta), collect(&tb));
    }

    #[test]
    fn projection() {
        let db = db();
        let plan = Plan::scan("orders").project(vec!["o_orderdate".to_string()]);
        let (t, _, _) = execute(&plan, &db).unwrap();
        assert_eq!(t.schema.len(), 1);
        assert_eq!(t.num_rows(), 4);
    }

    #[test]
    fn null_keys_do_not_join() {
        let mut db = db();
        let mut t = db.table("lineitem").unwrap().clone();
        t.columns[0].validity = Some(vec![true, false, true, true, true]);
        db.insert("lineitem2", t);
        let plan =
            Plan::scan("lineitem2").hash_join(Plan::scan("orders"), "l_orderkey", "o_orderkey");
        let (out, _, _) = execute(&plan, &db).unwrap();
        assert_eq!(out.num_rows(), 3); // one of the key-1 rows is NULL now
    }

    #[test]
    fn double_join_key_is_unsupported_not_unknown() {
        let mut db = db();
        db.insert(
            "prices",
            Table::new(
                Schema::new(vec![ColumnDef::new("p_price", DataType::Double)]),
                vec![Column::double(vec![1.0, 2.0])],
            ),
        );
        let by_price =
            Plan::scan("orders").hash_join(Plan::scan("prices"), "o_orderkey", "p_price");
        let err = execute(&by_price, &db).unwrap_err();
        assert!(matches!(err, ExecError::Unsupported(_)), "{err:?}");
        assert!(err
            .to_string()
            .contains("p_price is not an integer join key"));
        assert!(!err.to_string().contains("unknown column"), "{err}");
        // A key that resolves nowhere is still an unknown column.
        let by_nothing = Plan::scan("orders").hash_join(Plan::scan("prices"), "o_orderkey", "zzz");
        assert_eq!(
            execute(&by_nothing, &db).unwrap_err(),
            ExecError::UnknownColumn("zzz".to_string())
        );
    }

    #[test]
    fn row_numbers_beyond_u32_are_refused() {
        assert_eq!(row_count(u32::MAX as usize), Ok(u32::MAX));
        let err = row_count(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, ExecError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn errors() {
        let db = db();
        assert_eq!(
            execute(&Plan::scan("nope"), &db).unwrap_err(),
            ExecError::UnknownTable("nope".to_string())
        );
        let plan = Plan::scan("orders").filter(col("zzz").lt(lit(0)));
        assert!(matches!(
            execute(&plan, &db).unwrap_err(),
            ExecError::UnknownColumn(_)
        ));
    }
}
