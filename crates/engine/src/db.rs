//! The database: named tables, query planning and execution, and
//! `run_sql`, a parse-and-run convenience for tests.

use crate::exec::{execute_analyze, ExecError, ExecStats, OpStats, Scratch};
use crate::moveraround::{move_around_cached, MoveAroundReport};
use crate::optimize::{optimize, OptimizerConfig};
use crate::plan::Plan;
use crate::table::Table;
use sia_cache::{CacheStats, PredicateCache};
use sia_expr::{Pred, Schema};
use sia_sql::{Query, SelectList};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Boundary syntheses a database remembers (least recently used go
/// first). An entry is a canonical predicate and a learned one — a few
/// hundred bytes — and a query template has a handful of boundaries.
const SYNTHESIS_CACHE_ENTRIES: usize = 1024;

/// A collection of named in-memory tables.
#[derive(Debug)]
pub struct Database {
    tables: HashMap<String, Table>,
    /// Answers to the move-around pass's boundary syntheses, keyed by
    /// canonical context + target columns. No schema or row data enters a
    /// key, so `insert` has nothing to invalidate.
    synthesized: PredicateCache,
    /// The row-number buffers execution borrows: what one query hands
    /// back, the next one reuses.
    pub(crate) scratch: Scratch,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            synthesized: PredicateCache::new(SYNTHESIS_CACHE_ENTRIES),
            scratch: Scratch::default(),
        }
    }
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
    /// carrying its rows in, rows out and self time; the last line is what
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
                "{}{} [rows_in={} rows_out={} self={:.3} ms]",
                "  ".repeat(depth),
                plan.label(),
                op.rows_in,
                op.rows_out,
                op.self_time.as_secs_f64() * 1e3,
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

    /// Register (or replace) a table.
    pub fn insert(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    fn columns_of(&self, table: &str) -> Vec<String> {
        self.tables
            .get(table)
            .map(|t| t.schema.columns().iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default()
    }

    /// Schema of a registered table (oracle for the move-around pass).
    pub fn schema_of(&self, table: &str) -> Option<Schema> {
        self.tables.get(table).map(|t| t.schema.clone())
    }

    /// Which table (among the query's FROM list) owns a column.
    fn owner_of(&self, tables: &[String], col: &str) -> Option<String> {
        if let Some((t, c)) = col.split_once('.') {
            if tables.iter().any(|n| n == t) && self.columns_of(t).iter().any(|n| n == c) {
                return Some(t.to_string());
            }
            return None;
        }
        let mut hit = None;
        for t in tables {
            if self.columns_of(t).iter().any(|n| n == col) {
                if hit.is_some() {
                    return None; // ambiguous
                }
                hit = Some(t.clone());
            }
        }
        hit
    }

    /// Build a logical plan for a query: left-deep join tree over the FROM
    /// list using equi-join conjuncts from the WHERE clause, remaining
    /// predicate as a filter on top, then the projection.
    pub fn plan(&self, query: &Query) -> Result<Plan, ExecError> {
        for t in &query.tables {
            if !self.tables.contains_key(t) {
                return Err(ExecError::UnknownTable(t.clone()));
            }
        }
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
                let (oa, ob) = (
                    self.owner_of(&query.tables, a),
                    self.owner_of(&query.tables, b),
                );
                if let (Some(ta), Some(tb)) = (oa, ob) {
                    if ta != tb {
                        join_conds.push((ta, a.clone(), tb, b.clone()));
                        continue;
                    }
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
    pub fn optimized_plan(
        &self,
        query: &Query,
        config: OptimizerConfig,
    ) -> Result<(Plan, MoveAroundReport), ExecError> {
        let plan = self.plan(query)?;
        let schema_of = |t: &str| self.schema_of(t);
        let (plan, moved) =
            move_around_cached(plan, &schema_of, config.move_around, &self.synthesized);
        Ok((optimize(plan, &|t| self.columns_of(t), config), moved))
    }

    /// Hits, misses, inserts and evictions of the boundary-synthesis
    /// cache since this database was created.
    pub fn synthesis_cache(&self) -> CacheStats {
        self.synthesized.stats()
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

    /// Measured selectivity of a predicate against one table.
    pub fn selectivity(&self, table: &str, pred: &Pred) -> Result<f64, ExecError> {
        let t = self
            .table(table)
            .ok_or_else(|| ExecError::UnknownTable(table.to_string()))?;
        let compiled = crate::compile::compile_pred(pred, &t.schema)?;
        Ok(compiled.selectivity(t))
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
    }

    #[test]
    fn unknown_table_error() {
        let db = db();
        assert!(db.run_sql("SELECT * FROM nope").is_err());
    }
}
