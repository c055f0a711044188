//! Plan execution: sequential scans, compiled-predicate filters, and hash
//! equi-joins over the columnar tables.
//!
//! No operator copies a base column. Operators hand each other a borrowed
//! relation (`Rel`): columns that still live in the [`Database`], and
//! per source table a selection vector naming the payload row behind each
//! relation row. A scan borrows, a filter and a join shorten or compose
//! selections, and only [`execute`] materializes, once, at the plan root.
//!
//! Every buffer a query needs — a filter's selection, a join's bucket
//! heads, chains and match lists, a composed selection, and the result's
//! columns — is borrowed from the database's `Scratch`. Row numbers go
//! back once the result is gathered, and the result's columns when it is
//! dropped, so a repeated query whose earlier results were dropped maps
//! no fresh pages.
//!
//! A filter directly over a base-table scan that the database has
//! evaluated before is answered from its `FilterCache`: the bitmap of
//! the rows it kept, decoded into a selection.

use crate::compile::{compile_pred, ColRef, UnknownColumn};
use crate::db::Database;
use crate::plan::Plan;
use crate::table::{Column, ColumnData, Table};
use sia_cache::{CacheStats, Lru};
use sia_expr::{Pred, Schema};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Counters gathered during execution (the cost signals the evaluation in
/// §6.6 reasons about: join input sizes vs filter work).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Rows entering filters: logical rows, so a filter over a scan that
    /// the database's filter cache answers counts its table's rows as
    /// one that evaluates its predicate does.
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
    /// A filter over a scan whose rows came from the database's filter
    /// cache, not from evaluating its predicate; its row counts are the
    /// same either way.
    pub cached: bool,
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
    // source's selection (a bare scan has none and is copied whole).
    let columns = rel
        .cols
        .iter()
        .map(|&(source, col)| col.gather(rel.sels[source].as_deref(), &db.scratch))
        .collect();
    let table = Table::new(rel.schema, columns).lent_by(&db.scratch);
    rel.sels
        .into_iter()
        .flatten()
        .for_each(|sel| db.scratch.give(sel));
    Ok((table, start.elapsed(), stats, ops))
}

/// The buffers execution borrows and hands back, owned by a [`Database`]
/// and dropped with it: row numbers for selections and joins, and typed
/// payloads and validity masks for result columns. A dropped result hands
/// its columns back, so a repeated query whose earlier results were
/// dropped maps no fresh pages. A buffer comes out empty and its taker
/// writes everything it reads, so nothing a query sees depends on the one
/// before. Between queries at most [`SCRATCH_BUFFERS`] row-number buffers
/// are kept, the largest, and column buffers up to the bytes of the
/// largest result handed back so far, the smallest dropped first: at most
/// one result's worth, memory the process already needed.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    free: Mutex<Free>,
}

/// [`Scratch`]'s free lists, each ascending by capacity.
#[derive(Debug, Default)]
pub(crate) struct Free {
    rows: Vec<Vec<u32>>,
    ints: Vec<Vec<i64>>,
    doubles: Vec<Vec<f64>>,
    masks: Vec<Vec<bool>>,
    /// Bytes of the largest result handed back so far: the column lists
    /// never hold more.
    kept: usize,
}

/// An element type [`Scratch`] lends buffers of.
pub(crate) trait Lent: Sized {
    /// The free list of such buffers.
    fn shelf(free: &mut Free) -> &mut Vec<Vec<Self>>;
}

impl Lent for u32 {
    fn shelf(free: &mut Free) -> &mut Vec<Vec<u32>> {
        &mut free.rows
    }
}

impl Lent for i64 {
    fn shelf(free: &mut Free) -> &mut Vec<Vec<i64>> {
        &mut free.ints
    }
}

impl Lent for f64 {
    fn shelf(free: &mut Free) -> &mut Vec<Vec<f64>> {
        &mut free.doubles
    }
}

impl Lent for bool {
    fn shelf(free: &mut Free) -> &mut Vec<Vec<bool>> {
        &mut free.masks
    }
}

/// About as many row-number buffers as one query holds at once: a join's
/// heads, chains and two match lists beside its inputs' selections.
const SCRATCH_BUFFERS: usize = 8;

impl Free {
    /// Put `buf` in its place on its list; an empty one is not worth it.
    fn shelve<T: Lent>(&mut self, buf: Vec<T>) {
        if buf.capacity() > 0 {
            let shelf = T::shelf(self);
            let at = shelf.partition_point(|b| b.capacity() < buf.capacity());
            shelf.insert(at, buf);
        }
    }

    /// Drop the smallest column buffers until the lists hold at most
    /// `kept` bytes.
    fn trim(&mut self) {
        fn room<T>(buf: &Vec<T>) -> usize {
            buf.capacity() * size_of::<T>()
        }
        fn total<T>(shelf: &[Vec<T>]) -> usize {
            shelf.iter().map(room).sum()
        }
        let mut held = total(&self.ints) + total(&self.doubles) + total(&self.masks);
        while held > self.kept {
            let firsts = [
                self.ints.first().map_or(usize::MAX, room),
                self.doubles.first().map_or(usize::MAX, room),
                self.masks.first().map_or(usize::MAX, room),
            ];
            let (at, least) = (0..3)
                .zip(firsts)
                .min_by_key(|&(_, bytes)| bytes)
                .expect("three lists");
            held -= least;
            match at {
                0 => drop(self.ints.remove(0)),
                1 => drop(self.doubles.remove(0)),
                _ => drop(self.masks.remove(0)),
            }
        }
    }
}

impl Scratch {
    fn free(&self) -> MutexGuard<'_, Free> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty buffer with room for `len` values: the smallest free one
    /// that has it, else the largest, grown to exactly `len`.
    pub(crate) fn take<T: Lent>(&self, len: usize) -> Vec<T> {
        let mut buf = {
            let mut free = self.free();
            let shelf = T::shelf(&mut free);
            let fits = shelf.partition_point(|b| b.capacity() < len);
            match shelf.len() {
                0 => Vec::new(),
                n => shelf.remove(fits.min(n - 1)),
            }
        };
        buf.clear();
        buf.reserve_exact(len);
        buf
    }

    /// Hand a row-number buffer back for the next taker.
    pub(crate) fn give(&self, buf: Vec<u32>) {
        let mut free = self.free();
        free.shelve(buf);
        if free.rows.len() > SCRATCH_BUFFERS {
            free.rows.remove(0);
        }
    }

    /// Take back a dropped result's columns, keeping at most the bytes of
    /// the largest result handed back so far.
    pub(crate) fn hand_back(&self, columns: Vec<Column>) {
        let bytes = columns.iter().map(|c| {
            let width = size_of::<i64>() + usize::from(c.validity.is_some());
            c.len() * width
        });
        let mut free = self.free();
        free.kept = free.kept.max(bytes.sum());
        for col in columns {
            match col.data {
                ColumnData::Int(v) => free.shelve(v),
                ColumnData::Double(v) => free.shelve(v),
            }
            if let Some(mask) = col.validity {
                free.shelve(mask);
            }
        }
        free.trim();
    }
}

/// Bytes of filter results a database remembers, bitmaps and key text,
/// the least recently used going first: about 220 bitmaps of the
/// benchmark's 150 000-row `lineitem`.
const FILTER_CACHE_BYTES: usize = 4 << 20;

/// The rows a filter over a base-table scan kept: one bit per table row,
/// and how many are set.
#[derive(Debug)]
struct Kept {
    bits: Vec<u64>,
    count: usize,
}

impl Kept {
    /// The bitmap of `keep`, row numbers of a `rows`-row table.
    fn of(keep: &[u32], rows: u32) -> Kept {
        let mut bits = vec![0; (rows as usize).div_ceil(64)];
        for &r in keep {
            bits[r as usize / 64] |= 1 << (r % 64);
        }
        let count = keep.len();
        Kept { bits, count }
    }

    /// The kept row numbers, ascending, written into `into`.
    fn decode(&self, mut into: Vec<u32>) -> Vec<u32> {
        for (w, &word) in self.bits.iter().enumerate() {
            // A table has at most `u32::MAX` rows (see `row_count`).
            let base = w as u32 * 64;
            let mut word = word;
            while word != 0 {
                into.push(base + word.trailing_zeros());
                word &= word - 1;
            }
        }
        into
    }
}

/// The bytes an entry counts against [`FILTER_CACHE_BYTES`].
fn entry_bytes((table, pred): &(String, String), kept: &Kept) -> usize {
    kept.bits.len() * size_of::<u64>() + table.len() + pred.len()
}

/// What filters directly over base-table scans kept, owned by a
/// [`Database`]: a map from the table's name and the printed predicate
/// to the stored predicate and its rows, bounded at
/// [`FILTER_CACHE_BYTES`]. Two predicates that print alike share a slot,
/// never an answer: a hit must equal the stored `Pred` (an INTEGER `3`
/// and a DOUBLE `3.0` print alike and can keep different rows). The
/// database empties it whenever a table changes. No lock is held while a
/// predicate is evaluated or a bitmap decoded.
#[derive(Debug)]
pub(crate) struct FilterCache {
    inner: Mutex<Filters>,
}

/// [`FilterCache`]'s entries, the bytes they count, and its counters.
#[derive(Debug)]
struct Filters {
    entries: Lru<(String, String), (Pred, Arc<Kept>)>,
    bytes: usize,
    stats: CacheStats,
}

impl Default for FilterCache {
    fn default() -> Self {
        let inner = Filters {
            entries: Lru::new(usize::MAX),
            bytes: 0,
            stats: CacheStats::default(),
        };
        FilterCache {
            inner: Mutex::new(inner),
        }
    }
}

impl FilterCache {
    fn lock(&self) -> MutexGuard<'_, Filters> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, key: &(String, String), pred: &Pred) -> Option<Arc<Kept>> {
        let mut f = self.lock();
        match f.entries.get(key) {
            Some((stored, kept)) if stored == pred => {
                let kept = Arc::clone(kept);
                f.stats.hits += 1;
                Some(kept)
            }
            _ => {
                f.stats.misses += 1;
                None
            }
        }
    }

    /// Store `kept`, evicting the least recently used entries until the
    /// cache holds at most its bytes; an entry larger than that is not
    /// stored.
    fn insert(&self, key: (String, String), pred: Pred, kept: Kept) {
        let bytes = entry_bytes(&key, &kept);
        let mut f = self.lock();
        if let Some((_, old)) = f.entries.remove(&key) {
            f.bytes -= entry_bytes(&key, &old);
        }
        if bytes > FILTER_CACHE_BYTES {
            return;
        }
        while f.bytes + bytes > FILTER_CACHE_BYTES {
            let (victim, (_, old)) = f.entries.pop_lru().expect("bytes held are in entries");
            f.bytes -= entry_bytes(&victim, &old);
            f.stats.evictions += 1;
        }
        f.entries.insert(key, (pred, Arc::new(kept)));
        f.bytes += bytes;
        f.stats.inserts += 1;
    }

    /// Forget every entry; the counters stay.
    pub(crate) fn clear(&mut self) {
        let f = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        f.entries.clear();
        f.bytes = 0;
    }

    /// Hits, misses, inserts and evictions since the database was created.
    pub(crate) fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

/// Row numbers are `u32` from the scan on; a longer table is refused.
pub(crate) fn row_count(rows: usize) -> Result<u32, ExecError> {
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
    let mut cached = false;
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
            let keep = match &**input {
                Plan::Scan { table } => {
                    let (keep, hit) = select_over_scan(table, pred, &rel, db)?;
                    cached = hit;
                    keep
                }
                _ => select(pred, &rel, &db.scratch)?,
            };
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
        cached,
    };
    Ok((rel, total))
}

/// The rows of `rel` that `pred` keeps, evaluated.
fn select(pred: &Pred, rel: &Rel<'_>, scratch: &Scratch) -> Result<Vec<u32>, ExecError> {
    let cols: Vec<_> = (0..rel.cols.len()).map(|i| rel.col_ref(i)).collect();
    let pred = compile_pred(pred, &rel.schema)?;
    Ok(pred.select(&cols, rel.rows, scratch.take(rel.rows as usize)))
}

/// [`select`] on `rel`, a scan of `table`: the rows the database's filter
/// cache holds for `pred` there, else evaluated and stored; and whether
/// they came from the cache. Debug builds evaluate a hit too and compare.
fn select_over_scan(
    table: &str,
    pred: &Pred,
    rel: &Rel<'_>,
    db: &Database,
) -> Result<(Vec<u32>, bool), ExecError> {
    let key = (table.to_string(), pred.to_string());
    let Some(kept) = db.filters.lookup(&key, pred) else {
        let keep = select(pred, rel, &db.scratch)?;
        db.filters
            .insert(key, pred.clone(), Kept::of(&keep, rel.rows));
        return Ok((keep, false));
    };
    let keep = kept.decode(db.scratch.take(kept.count));
    #[cfg(debug_assertions)]
    {
        let fresh = select(pred, rel, &db.scratch)?;
        debug_assert_eq!(fresh, keep, "cached rows of {pred} on {table}");
        db.scratch.give(fresh);
    }
    Ok((keep, true))
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
/// probe-side-major, columns left then right. Columns are named bare, so
/// inputs that share a column name are refused.
fn hash_join<'a>(
    mut left: Rel<'a>,
    mut right: Rel<'a>,
    left_key: &str,
    right_key: &str,
    scratch: &Scratch,
) -> Result<Rel<'a>, ExecError> {
    let mut right_columns = right.schema.columns().iter();
    if let Some(c) = right_columns.find(|c| left.schema.column(&c.name).is_some()) {
        let why = format!("column {} is in both inputs of a join", c.name);
        return Err(ExecError::Unsupported(why));
    }
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

    /// Two threads run the same queries against one database, each
    /// dropping the other's results, so buffers cross threads both ways
    /// while queries gather into them; every result is the serial one.
    #[test]
    fn results_dropped_on_another_thread_match_the_serial_run() {
        use sia_expr::Value;
        use std::sync::mpsc;
        let mut db = db();
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Integer),
            ColumnDef::nullable("v", DataType::Integer),
            ColumnDef::new("d", DataType::Double),
        ]);
        let rows: Vec<Vec<Value>> = (0..3000i64)
            .map(|r| {
                let v = if r % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(r % 101)
                };
                vec![Value::Int(r % 500), v, Value::Double(r as f64 / 3.0)]
            })
            .collect();
        db.insert("t", Table::from_rows(schema, &rows));
        let pred = |sql: &str| sia_sql::parse_predicate(sql).unwrap();
        let plans = [
            Plan::scan("t"),
            Plan::scan("t").filter(pred("v < 50 AND d > 10")),
            Plan::scan("t").filter(pred("k < 100")).hash_join(
                Plan::scan("lineitem"),
                "k",
                "l_orderkey",
            ),
            Plan::scan("orders")
                .hash_join(Plan::scan("t"), "o_orderkey", "k")
                .filter(pred("v + o_orderdate < 40")),
            Plan::scan("t").project(vec!["v".to_string(), "d".to_string()]),
        ];
        let cells = |t: &Table| -> Vec<Vec<Value>> {
            let row = |r| t.columns.iter().map(|c| c.get(r)).collect();
            (0..t.num_rows()).map(row).collect()
        };
        let serial: Vec<_> = plans
            .iter()
            .map(|p| cells(&execute(p, &db).unwrap().0))
            .collect();
        let (to_b, from_a) = mpsc::channel::<(usize, Table)>();
        let (to_a, from_b) = mpsc::channel::<(usize, Table)>();
        let (db, plans, serial) = (&db, &plans, &serial);
        std::thread::scope(|s| {
            for (to_other, from_other) in [(to_b, from_b), (to_a, from_a)] {
                s.spawn(move || {
                    let check = |(i, t): (usize, Table)| assert_eq!(cells(&t), serial[i]);
                    for _ in 0..20 {
                        for (i, plan) in plans.iter().enumerate() {
                            to_other.send((i, execute(plan, db).unwrap().0)).unwrap();
                            from_other.try_iter().for_each(check);
                        }
                    }
                    drop(to_other);
                    from_other.into_iter().for_each(check);
                });
            }
        });
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
