//! The database: named tables, query planning and execution, and
//! `run_sql`, a parse-and-run convenience for tests.

use crate::compile::{compile_pred, ColRef};
use crate::exec::{
    execute_analyze, row_count, ExecError, ExecStats, FilterCache, OpStats, Scratch,
};
#[cfg(debug_assertions)]
use crate::moveraround::move_around;
use crate::moveraround::{move_around_cached, MoveAroundReport, Source};
use crate::optimize::{optimize, schema_columns, OptimizerConfig};
use crate::plan::Plan;
use crate::table::Table;
use sia_cache::{CacheStats, Lru, PredicateCache};
use sia_expr::{Catalog, Pred, Schema};
use sia_sql::{Query, SelectList};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Boundary syntheses a database remembers (least recently used go
/// first). An entry is a canonical predicate and a learned one — a few
/// hundred bytes — and a query template has a handful of boundaries.
const SYNTHESIS_CACHE_ENTRIES: usize = 1024;

/// Optimized plans a database remembers (least recently used go first).
/// An entry is a query, its plan and its move-around report: 7 KiB on
/// average for the benchmark's `engine_join` queries (3 to 12 KiB).
const PLAN_MEMO_ENTRIES: usize = 1024;

/// A collection of named in-memory tables.
#[derive(Debug)]
pub struct Database {
    tables: HashMap<String, Table>,
    /// Answers to the move-around pass's boundary syntheses, keyed by
    /// canonical context + target columns. No schema or row data enters a
    /// key, so `insert` has nothing to invalidate.
    synthesized: PredicateCache,
    /// The optimized plans of queries planned before. A plan reads the
    /// schemas of its tables, so `insert` empties it.
    plans: Mutex<PlanMemo>,
    /// The rows filters directly over base-table scans kept, as bitmaps.
    /// They read their table's rows, so `insert` empties it.
    pub(crate) filters: FilterCache,
    /// The buffers execution borrows: what one query, or its dropped
    /// result, hands back, the next one reuses.
    pub(crate) scratch: Arc<Scratch>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            synthesized: PredicateCache::new(SYNTHESIS_CACHE_ENTRIES),
            plans: Mutex::new(PlanMemo {
                entries: Lru::new(PLAN_MEMO_ENTRIES),
                stats: CacheStats::default(),
            }),
            filters: FilterCache::default(),
            scratch: Arc::default(),
        }
    }
}

/// A plan and the report a repeat of its query returns.
type Memoized = Arc<(Plan, MoveAroundReport)>;

/// A bounded LRU map from a query's printed SQL and its config to the
/// optimized plan. Two queries that print alike share a slot, never a
/// plan: a hit must equal the stored `Query`.
#[derive(Debug)]
struct PlanMemo {
    entries: Lru<(String, OptimizerConfig), (Query, Memoized)>,
    stats: CacheStats,
}

impl PlanMemo {
    fn lookup(&mut self, key: &(String, OptimizerConfig), query: &Query) -> Option<Memoized> {
        match self.entries.get(key) {
            Some((stored, planned)) if stored == query => {
                self.stats.hits += 1;
                Some(Arc::clone(planned))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store `planned`, evicting the least recently used entry when full.
    fn insert(&mut self, key: (String, OptimizerConfig), query: Query, planned: Memoized) {
        self.stats.evictions += self.entries.insert(key, (query, planned));
        self.stats.inserts += 1;
    }
}

/// Everything a report says apart from where its pushes came from: the
/// tables and predicates only.
#[cfg(debug_assertions)]
fn moves(r: &MoveAroundReport) -> impl PartialEq + std::fmt::Debug + '_ {
    let synthesized: Vec<_> = r.synthesized.iter().map(|s| (&s.table, &s.pred)).collect();
    (&r.gathered, &r.derived, synthesized, r.contradiction)
}

/// What a repeat of a first sight reports: every boundary synthesis
/// answered from the cache.
fn as_repeat(mut moved: MoveAroundReport) -> MoveAroundReport {
    moved.synthesis_hits += moved.synthesis_misses;
    moved.synthesis_misses = 0;
    for s in &mut moved.synthesized {
        s.source = Source::Cached;
    }
    moved
}

/// The result of running one query.
#[derive(Debug)]
pub struct QueryResult {
    /// Output rows.
    pub table: Table,
    /// Wall-clock execution time (excludes planning).
    pub elapsed: Duration,
    /// Execution counters.
    pub stats: ExecStats,
    /// The optimized plan that ran.
    pub plan: Plan,
    /// What the move-around pass did (empty when the mode is `Off`).
    pub moved: MoveAroundReport,
    /// Every operator's rows and self time, in `plan`'s pre-order.
    pub operators: Vec<OpStats>,
}

impl QueryResult {
    /// The executed plan as EXPLAIN prints it, each operator's line
    /// carrying its rows in, rows out and self time, and `cached` on a
    /// filter the database's filter cache answered; the last line is what
    /// of `elapsed` no operator accounts for — materializing the result.
    pub fn explain_analyze(&self) -> String {
        fn walk(
            plan: &Plan,
            depth: usize,
            ops: &mut std::slice::Iter<'_, OpStats>,
            out: &mut String,
        ) {
            let op = ops.next().copied().unwrap_or_default();
            let _ = writeln!(
                out,
                "{}{} [rows_in={} rows_out={} self={:.3} ms{}]",
                "  ".repeat(depth),
                plan.label(),
                op.rows_in,
                op.rows_out,
                op.self_time.as_secs_f64() * 1e3,
                if op.cached { " cached" } else { "" },
            );
            for child in plan.children() {
                walk(child, depth + 1, ops, out);
            }
        }
        let mut out = String::new();
        walk(&self.plan, 0, &mut self.operators.iter(), &mut out);
        let in_operators: Duration = self.operators.iter().map(|op| op.self_time).sum();
        let _ = writeln!(
            out,
            "Materialize [rows_out={} self={:.3} ms]",
            self.table.num_rows(),
            self.elapsed.saturating_sub(in_operators).as_secs_f64() * 1e3,
        );
        out
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register (or replace) a table. Forgets every memoized plan and
    /// every cached filter result.
    pub fn insert(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
        let memo = self.plans.get_mut().expect("plan memo poisoned");
        memo.entries.clear();
        self.filters.clear();
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    fn columns_of(&self, table: &str) -> Vec<String> {
        self.tables
            .get(table)
            .map(|t| schema_columns(&t.schema))
            .unwrap_or_default()
    }

    /// Schema of a registered table (oracle for the move-around pass).
    pub fn schema_of(&self, table: &str) -> Option<Schema> {
        self.tables.get(table).map(|t| t.schema.clone())
    }

    /// `query` with every column reference in WHERE and the SELECT list
    /// resolved against its FROM tables and written bare, as the executor
    /// and the move-around pass read names, and the table that owns each
    /// bare name. A qualifier outside FROM or a column no FROM table has
    /// is [`ExecError::UnknownColumn`]. A table listed twice in FROM, and
    /// a column name two FROM tables share, are [`ExecError::Unsupported`]
    /// whether or not the query names the column, since the executor
    /// names columns bare and a join's output could not hold both.
    fn resolve(&self, query: &Query) -> Result<(Query, HashMap<String, String>), ExecError> {
        let mut catalog = Catalog::new();
        for t in &query.tables {
            let table = self
                .tables
                .get(t)
                .ok_or_else(|| ExecError::UnknownTable(t.clone()))?;
            if catalog.table(t).is_some() {
                return Err(ExecError::Unsupported(format!(
                    "table {t} is listed twice in FROM; self-joins need aliases"
                )));
            }
            for other in catalog.tables() {
                if let Some(c) =
                    (table.schema.columns().iter()).find(|c| other.schema.column(&c.name).is_some())
                {
                    return Err(ExecError::Unsupported(format!(
                        "column {} is in both {} and {}",
                        c.name, other.name, t
                    )));
                }
            }
            catalog.add_table(t.clone(), table.schema.clone());
        }
        let mut names = query
            .predicate
            .as_ref()
            .map_or_else(Vec::new, Pred::columns);
        if let SelectList::Columns(cols) = &query.select {
            names.extend(cols.iter().cloned());
        }
        let (mut bare, mut owner) = (HashMap::new(), HashMap::new());
        for name in names {
            let (table, column) =
                (catalog.resolve(&name)).map_err(|_| ExecError::UnknownColumn(name.clone()))?;
            owner.insert(column.name.clone(), table.name.clone());
            bare.insert(name, column.name.clone());
        }
        let rename = |c: &str| bare[c].clone();
        let resolved = Query {
            select: match &query.select {
                SelectList::Star => SelectList::Star,
                SelectList::Columns(cols) => {
                    SelectList::Columns(cols.iter().map(|c| rename(c)).collect())
                }
            },
            tables: query.tables.clone(),
            predicate: query.predicate.as_ref().map(|p| p.map_columns(&rename)),
        };
        Ok((resolved, owner))
    }

    /// Build a logical plan for a query: left-deep join tree over the FROM
    /// list using equi-join conjuncts from the WHERE clause, remaining
    /// predicate as a filter on top, then the projection. Column names are
    /// resolved here, qualified or bare, so a name that plans also runs.
    pub fn plan(&self, query: &Query) -> Result<Plan, ExecError> {
        let (query, owner) = self.resolve(query)?;
        let pred = query.predicate_or_true();
        // Partition conjuncts into equi-join conditions and filters.
        let mut join_conds: Vec<(String, String, String, String)> = Vec::new(); // (t1, c1, t2, c2)
        let mut filters: Vec<Pred> = Vec::new();
        for conj in pred.conjuncts() {
            if let Pred::Cmp {
                op: sia_expr::CmpOp::Eq,
                lhs: sia_expr::Expr::Column(a),
                rhs: sia_expr::Expr::Column(b),
            } = conj
            {
                let (ta, tb) = (&owner[a], &owner[b]);
                if ta != tb {
                    join_conds.push((ta.clone(), a.clone(), tb.clone(), b.clone()));
                    continue;
                }
            }
            filters.push(conj.clone());
        }
        // Left-deep join tree in FROM order; tables without a usable join
        // condition would need a cross join, which this engine does not
        // support (the paper's workload never needs one).
        let mut plan = Plan::scan(query.tables[0].clone());
        let mut joined: Vec<String> = vec![query.tables[0].clone()];
        let mut remaining: Vec<String> = query.tables[1..].to_vec();
        let mut conds = join_conds;
        while !remaining.is_empty() {
            // Find a join condition connecting a joined table to a new one.
            let pos = conds.iter().position(|(ta, _, tb, _)| {
                (joined.contains(ta) && remaining.contains(tb))
                    || (joined.contains(tb) && remaining.contains(ta))
            });
            let Some(pos) = pos else {
                return Err(ExecError::Unsupported(format!(
                    "no equi-join condition connects table(s) {remaining:?}"
                )));
            };
            let (ta, ca, tb, cb) = conds.remove(pos);
            let (new_table, left_key, right_key) = if joined.contains(&ta) {
                (tb.clone(), ca, cb)
            } else {
                (ta.clone(), cb, ca)
            };
            plan = plan.hash_join(Plan::scan(new_table.clone()), left_key, right_key);
            remaining.retain(|t| *t != new_table);
            joined.push(new_table);
        }
        // Any leftover join conditions act as plain filters.
        for (_, ca, _, cb) in conds {
            filters.push(sia_expr::Expr::Column(ca).eq_(sia_expr::Expr::Column(cb)));
        }
        plan = plan.filter(Pred::and_all(filters));
        if let SelectList::Columns(cols) = &query.select {
            plan = plan.project(cols.clone());
        }
        Ok(plan)
    }

    /// Plan and optimize a query without running it: the plan `run`
    /// would execute, and what the move-around pass did to get there.
    /// The move-around pass (if enabled in `config`) runs before the
    /// local rewrite rules, which then merge and route whatever it
    /// attached; a boundary synthesis this database has answered before
    /// is answered from its cache.
    ///
    /// A query this database has planned before under the same `config`
    /// is answered from its plan memo without planning: the stored plan,
    /// and the report a repeat makes (every synthesis a cache hit). A
    /// first sight is memoized only when every boundary synthesis
    /// returned an answer; `insert` empties the memo. No lock is held
    /// while planning, so two first sights of one query may both plan.
    pub fn optimized_plan(
        &self,
        query: &Query,
        config: OptimizerConfig,
    ) -> Result<(Plan, MoveAroundReport), ExecError> {
        let key = (query.to_string(), config);
        let hit = self.memo().lookup(&key, query);
        if let Some(planned) = hit {
            let (plan, moved) = (planned.0.clone(), planned.1.clone());
            #[cfg(debug_assertions)]
            {
                let fresh = self.reference_plan(query, config);
                let (fresh_plan, fresh_moved) = fresh.expect("a memoized query plans");
                debug_assert_eq!(fresh_plan, plan, "memoized plan of {query}");
                debug_assert_eq!(
                    moves(&fresh_moved),
                    moves(&moved),
                    "memoized moves of {query}"
                );
            }
            return Ok((plan, moved));
        }
        let plan = self.plan(query)?;
        let schema_of = |t: &str| self.schema_of(t);
        let (plan, moved, answered) =
            move_around_cached(plan, &schema_of, config.move_around, &self.synthesized);
        let plan = optimize(plan, &|t| self.columns_of(t), config);
        if answered {
            let planned = Arc::new((plan.clone(), as_repeat(moved.clone())));
            self.memo().insert(key, query.clone(), planned);
        }
        Ok((plan, moved))
    }

    /// The plan memo, locked; it is never held while planning.
    fn memo(&self) -> std::sync::MutexGuard<'_, PlanMemo> {
        self.plans.lock().expect("plan memo poisoned")
    }

    /// `optimized_plan` with neither memo nor synthesis cache: the free
    /// [`move_around`] and [`optimize`], which a memo hit must equal.
    #[cfg(debug_assertions)]
    fn reference_plan(
        &self,
        query: &Query,
        config: OptimizerConfig,
    ) -> Result<(Plan, MoveAroundReport), ExecError> {
        let schema_of = |t: &str| self.schema_of(t);
        let (plan, moved) = move_around(self.plan(query)?, &schema_of, config.move_around);
        Ok((optimize(plan, &|t| self.columns_of(t), config), moved))
    }

    /// Hits, misses, inserts and evictions of the boundary-synthesis
    /// cache since this database was created.
    pub fn synthesis_cache(&self) -> CacheStats {
        self.synthesized.stats()
    }

    /// Hits, misses, inserts and evictions of the plan memo since this
    /// database was created.
    pub fn plan_cache(&self) -> CacheStats {
        self.memo().stats
    }

    /// Hits, misses, inserts and evictions of the cache of filter results
    /// over base-table scans since this database was created.
    pub fn filter_cache(&self) -> CacheStats {
        self.filters.stats()
    }

    /// Plan, optimize, and execute a query.
    pub fn run(&self, query: &Query, config: OptimizerConfig) -> Result<QueryResult, ExecError> {
        let (plan, moved) = self.optimized_plan(query, config)?;
        let (table, elapsed, stats, operators) = execute_analyze(&plan, self)?;
        Ok(QueryResult {
            table,
            elapsed,
            stats,
            plan,
            moved,
            operators,
        })
    }

    /// Parse and run a SQL string with the default optimizer.
    pub fn run_sql(&self, sql: &str) -> Result<QueryResult, String> {
        let query = sia_sql::parse_query(sql).map_err(|e| e.to_string())?;
        self.run(&query, OptimizerConfig::default())
            .map_err(|e| e.to_string())
    }

    /// Measured selectivity of a predicate against one table: the
    /// fraction of rows accepted, 1.0 on an empty table.
    pub fn selectivity(&self, table: &str, pred: &Pred) -> Result<f64, ExecError> {
        let t = self
            .table(table)
            .ok_or_else(|| ExecError::UnknownTable(table.to_string()))?;
        let compiled = compile_pred(pred, &t.schema)?;
        let rows = row_count(t.num_rows())?;
        if rows == 0 {
            return Ok(1.0);
        }
        let cols: Vec<_> = t.columns.iter().map(ColRef::whole).collect();
        let keep = compiled.select(&cols, rows, self.scratch.take(rows as usize));
        let share = keep.len() as f64 / f64::from(rows);
        self.scratch.give(keep);
        Ok(share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use sia_expr::{ColumnDef, DataType, Schema, Value};

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
    fn end_to_end_join_query() {
        let db = db();
        let r = db
            .run_sql(
                "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
                 AND o_orderdate < 0",
            )
            .unwrap();
        // orders with date < 0: keys 1, 3 → lineitem rows with keys 1,1,3.
        assert_eq!(r.table.num_rows(), 3);
        // Pushdown put the orders filter below the join.
        assert_eq!(r.plan.filters_below_joins(), 1);
    }

    #[test]
    fn plan_rejects_cartesian() {
        let db = db();
        let q =
            sia_sql::parse_query("SELECT * FROM lineitem, orders WHERE o_orderdate < 0").unwrap();
        let err = db.plan(&q).unwrap_err();
        assert!(matches!(err, ExecError::Unsupported(_)), "{err:?}");
        assert!(err.to_string().contains("no equi-join condition"), "{err}");
        assert!(!err.to_string().contains("unknown column"), "{err}");
    }

    #[test]
    fn operator_numbers_add_up_to_the_counters() {
        let db = db();
        let r = db
            .run_sql(
                "SELECT l_shipdate, o_orderdate FROM lineitem, orders \
                 WHERE o_orderkey = l_orderkey AND o_orderdate < 10 \
                 AND l_shipdate - o_orderdate < 12",
            )
            .unwrap();
        // Pre-order walk of the plan, in step with `operators`.
        fn kinds<'p>(plan: &'p Plan, out: &mut Vec<&'p Plan>) {
            out.push(plan);
            plan.children().into_iter().for_each(|c| kinds(c, out));
        }
        let mut nodes = Vec::new();
        kinds(&r.plan, &mut nodes);
        assert_eq!(nodes.len(), r.operators.len());
        let sum = |kind: &str, field: fn(&OpStats) -> u64| -> u64 {
            let of_kind = nodes.iter().zip(&r.operators);
            let of_kind = of_kind.filter(|(node, _)| node.label().starts_with(kind));
            of_kind.map(|(_, op)| field(op)).sum()
        };
        let (scan, filter, join) = ("SeqScan", "Filter", "HashJoin");
        assert!(
            sum(filter, |_| 1) >= 2 && sum(join, |_| 1) == 1,
            "{}",
            r.plan
        );
        assert_eq!(sum(scan, |op| op.rows_in), r.stats.rows_scanned);
        assert_eq!(sum(filter, |op| op.rows_in), r.stats.rows_filtered);
        assert_eq!(sum(join, |op| op.rows_in), r.stats.join_input_rows);
        assert_eq!(sum(join, |op| op.rows_out), r.stats.join_output_rows);
        assert_eq!(r.operators[0].rows_out, r.table.num_rows() as u64);
        let in_operators: Duration = r.operators.iter().map(|op| op.self_time).sum();
        assert!(
            in_operators <= r.elapsed,
            "{in_operators:?} > {:?}",
            r.elapsed
        );

        // EXPLAIN ANALYZE is the plan's own tree, a line per operator plus
        // the materialization, each with its numbers.
        let text = r.explain_analyze();
        let plain = r.plan.to_string();
        assert_eq!(text.lines().count(), plain.lines().count() + 1, "{text}");
        for (line, want) in text.lines().zip(plain.lines()) {
            assert!(
                line.starts_with(want) && line.contains(" [rows_in="),
                "{line}"
            );
        }
        let rows = r.table.num_rows();
        assert!(text.contains(&format!(
            "Project (l_shipdate, o_orderdate) [rows_in={rows} rows_out={rows} self="
        )));
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("Materialize [rows_out="));
    }

    #[test]
    fn projection_in_query() {
        let db = db();
        let r = db
            .run_sql("SELECT l_shipdate FROM lineitem WHERE l_shipdate > 5")
            .unwrap();
        assert_eq!(r.table.schema.len(), 1);
        assert_eq!(r.table.num_rows(), 3);
        assert_eq!(r.table.value(0, "l_shipdate"), Value::Int(7));
    }

    #[test]
    fn pushdown_preserves_semantics() {
        let db = db();
        let sql = "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
                   AND l_shipdate - o_orderdate < 8 AND l_shipdate < 10";
        let q = sia_sql::parse_query(sql).unwrap();
        let with = db.run(&q, OptimizerConfig::default()).unwrap();
        // The reference is the unoptimized plan, executed as planned.
        let plan = db.plan(&q).unwrap();
        let (table, _, stats, _) = execute_analyze(&plan, &db).unwrap();
        assert_eq!(with.table.num_rows(), table.num_rows());
        assert!(with.plan.filters_below_joins() > 0);
        assert_eq!(plan.filters_below_joins(), 0);
        // Pushdown shrinks the join input.
        assert!(with.stats.join_input_rows < stats.join_input_rows);
    }

    #[test]
    fn selectivity_measurement() {
        let db = db();
        let p = sia_sql::parse_predicate("l_shipdate < 8").unwrap();
        assert_eq!(db.selectivity("lineitem", &p).unwrap(), 0.6);
        let mut db = db;
        let empty = Table::empty(db.table("lineitem").unwrap().schema.clone());
        db.insert("none", empty);
        assert_eq!(db.selectivity("none", &p).unwrap(), 1.0);
        assert!(matches!(
            db.selectivity("nope", &p),
            Err(ExecError::UnknownTable(_))
        ));
    }

    /// A column named with its table plans and runs as its bare name
    /// does, in every mode; a qualifier outside FROM fails in `plan`.
    #[test]
    fn qualified_names_run_as_their_bare_names() {
        use crate::moveraround::MoveAround;
        let mut db = Database::new();
        for name in ["lineitem", "orders"] {
            let spec = sia_gen::table(name).expect("a registry table");
            db.insert(name, Table::from_rows(spec.schema(), &spec.sample(600, 9)));
        }
        let join = "FROM orders, lineitem WHERE orders.o_orderkey = lineitem.l_orderkey \
                    AND orders.o_orderdate < DATE '1994-01-01'";
        let queries = [
            "SELECT * FROM lineitem WHERE lineitem.l_quantity < 3".to_string(),
            format!("SELECT * {join}"),
            format!("SELECT lineitem.l_orderkey {join}"),
        ];
        let cells = |t: &Table| -> Vec<Vec<Value>> {
            let row = |i| t.columns.iter().map(|c| c.get(i)).collect();
            (0..t.num_rows()).map(row).collect()
        };
        for qualified in queries {
            let bare = qualified
                .replace("lineitem.l_", "l_")
                .replace("orders.o_", "o_");
            let qualified = sia_sql::parse_query(&qualified).unwrap();
            let bare = sia_sql::parse_query(&bare).unwrap();
            for mode in [MoveAround::Off, MoveAround::Static, MoveAround::Synthesis] {
                let config = OptimizerConfig { move_around: mode };
                let (q, b) = (db.run(&qualified, config), db.run(&bare, config));
                let (q, b) = (q.expect("qualified"), b.expect("bare"));
                assert!(b.table.num_rows() > 0, "{bare}");
                assert_eq!(q.plan, b.plan, "{qualified}");
                assert_eq!(q.stats, b.stats, "{qualified}");
                assert_eq!(q.table.schema, b.table.schema, "{qualified}");
                assert_eq!(cells(&q.table), cells(&b.table), "{qualified}");
            }
        }
        let outside = "SELECT * FROM orders WHERE nope.o_orderdate < DATE '1994-01-01'";
        let err = db.plan(&sia_sql::parse_query(outside).unwrap());
        let want = ExecError::UnknownColumn("nope.o_orderdate".into());
        assert_eq!(err, Err(want));
        let spec = sia_gen::table("lineitem").expect("a registry table");
        db.insert("copy", Table::from_rows(spec.schema(), &[]));
        let shared = "SELECT * FROM lineitem, copy WHERE lineitem.l_quantity < 3";
        let err = db.plan(&sia_sql::parse_query(shared).unwrap());
        assert!(matches!(err, Err(ExecError::Unsupported(_))), "{err:?}");
    }

    /// Two tables that share a column the query never names: running the
    /// query in every mode is an `Unsupported` error from `plan`, and
    /// executing a hand-built join of them one from the join; no panic.
    #[test]
    fn a_column_two_tables_share_is_refused_unnamed() {
        use crate::moveraround::MoveAround;
        let int = |name: &str| ColumnDef::new(name, DataType::Integer);
        let mut db = Database::new();
        let rows = vec![Column::int(vec![1, 2]), Column::int(vec![3, 4])];
        db.insert(
            "t",
            Table::new(Schema::new(vec![int("a"), int("x")]), rows.clone()),
        );
        db.insert("u", Table::new(Schema::new(vec![int("b"), int("x")]), rows));
        let sql = "SELECT * FROM t, u WHERE a = b";
        let refused = "unsupported: column x is in both t and u";
        let err = db.run_sql(sql).map(|r| r.table.num_rows());
        assert_eq!(err, Err(refused.to_string()));
        let query = sia_sql::parse_query(sql).unwrap();
        for mode in [MoveAround::Off, MoveAround::Static, MoveAround::Synthesis] {
            let run = db.run(&query, OptimizerConfig { move_around: mode });
            let err = run.map(|r| r.table.num_rows()).unwrap_err();
            assert_eq!(err.to_string(), refused, "{mode:?}");
        }
        let join = Plan::scan("t").hash_join(Plan::scan("u"), "a", "b");
        let err = crate::exec::execute(&join, &db).map(|r| r.1).unwrap_err();
        let want = ExecError::Unsupported("column x is in both inputs of a join".into());
        assert_eq!(err, want);
    }

    /// A self-join without aliases is refused as one in every mode, not
    /// reported as a join with no equi-join condition.
    #[test]
    fn a_table_listed_twice_is_refused_as_a_self_join() {
        use crate::moveraround::MoveAround;
        let mut db = Database::new();
        let schema = Schema::new(vec![ColumnDef::new("a", DataType::Integer)]);
        db.insert("t", Table::new(schema, vec![Column::int(vec![1, 2])]));
        let query = sia_sql::parse_query("SELECT * FROM t, t WHERE a = a").unwrap();
        let want = "unsupported: table t is listed twice in FROM; self-joins need aliases";
        for mode in [MoveAround::Off, MoveAround::Static, MoveAround::Synthesis] {
            let run = db.run(&query, OptimizerConfig { move_around: mode });
            let err = run.map(|r| r.table.num_rows()).unwrap_err();
            assert_eq!(err.to_string(), want, "{mode:?}");
        }
    }

    #[test]
    fn unknown_table_error() {
        let db = db();
        assert!(db.run_sql("SELECT * FROM nope").is_err());
    }
}
