//! The paper's TPC-H data and its §6.3 200-query workload, built from the
//! registry's `orders` and `lineitem` ([`crate::schema`]), replacing
//! dbgen and the authors' query generator.
//!
//! [`generate`] draws the `orders` ⋈ `lineitem` columns the benchmark
//! queries read. Every value range comes from the registry's [`Dist`]s:
//! `o_orderdate` uniform over its span, the lineitem dates offset from
//! it by dbgen's offsets (`l_shipdate` and `l_commitdate` from the order
//! date, `l_receiptdate` from the ship date), and the quantity, lines per
//! order and prices uniform over their ranges. Scale factor 1 is 150 000
//! orders (TPC-H's 1.5 M scaled down 10× keeps in-memory runs
//! proportionate; the *relative* behaviour — join sizes, selectivities —
//! is unchanged because every experiment compares two plans on the same
//! data).
//!
//! [`generate_workload`] instantiates the §6.3 template
//!
//! ```sql
//! SELECT * FROM lineitem, orders
//! WHERE o_orderkey = l_orderkey AND <predicate>
//! ```
//!
//! where `<predicate>` is a conjunction of 3–8 randomly generated terms,
//! each term a binary arithmetic comparison over the three lineitem date
//! columns, `o_orderdate`, date constants, and day intervals — and **every
//! term references `o_orderdate`**, so the original predicate can never be
//! pushed below the join toward `lineitem`. Unsatisfiable draws are
//! rejected (checked with the workspace SMT solver) and regenerated,
//! exactly as the paper does.

use crate::schema::{table, Dist, TableSpec};
use sia_core::PredEncoder;
use sia_engine::{Column, Database, Table};
use sia_expr::{col, Catalog, CmpOp, Date, Expr, Pred, Schema};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};
use sia_sql::{Query, SelectList};
use std::ops::{Range, RangeInclusive};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Scale factor: 1.0 ⇒ 150,000 orders, ~600,000 lineitems.
    pub scale_factor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 0.05,
            seed: 0x7fc8,
        }
    }
}

/// Number of orders at a scale factor.
pub fn orders_at(scale_factor: f64) -> usize {
    (150_000.0 * scale_factor).round().max(1.0) as usize
}

/// The catalog of the two benchmark tables, `orders` then `lineitem`.
pub fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table("orders", orders_schema());
    cat.add_table("lineitem", lineitem_schema());
    cat
}

/// The registry's `orders`, projected onto the columns [`generate`] draws.
fn orders_schema() -> Schema {
    projected("orders", &["o_orderkey", "o_orderdate", "o_totalprice"])
}

/// The registry's `lineitem`, projected onto the columns [`generate`] draws.
fn lineitem_schema() -> Schema {
    projected(
        "lineitem",
        &[
            "l_orderkey",
            "l_linenumber",
            "l_quantity",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
            "l_extendedprice",
        ],
    )
}

fn registry(name: &str) -> TableSpec {
    table(name).unwrap_or_else(|| panic!("{name} is a registry table"))
}

/// The registry table `name`'s schema, keeping only the columns in `keep`
/// (in declaration order).
fn projected(name: &str, keep: &[&str]) -> Schema {
    let cols = registry(name).schema().columns().to_vec();
    Schema::new(
        cols.into_iter()
            .filter(|c| keep.contains(&c.name.as_str()))
            .collect(),
    )
}

fn dist<'a>(spec: &'a TableSpec, name: &str) -> &'a Dist {
    let col = spec.column(name);
    &col.unwrap_or_else(|| panic!("{name} is a column of {}", spec.name))
        .dist
}

/// The inclusive range of a uniform INTEGER or DATE column.
fn ints(spec: &TableSpec, name: &str) -> RangeInclusive<i64> {
    match dist(spec, name) {
        Dist::IntUniform { lo, hi } => *lo..=*hi,
        Dist::DateUniform { lo_days, hi_days } => *lo_days..=*hi_days,
        other => panic!("{name} is not a uniform integer: {other:?}"),
    }
}

/// The half-open range of a uniform DOUBLE column.
fn doubles(spec: &TableSpec, name: &str) -> Range<f64> {
    match dist(spec, name) {
        Dist::DoubleUniform { lo, hi } => *lo..*hi,
        other => panic!("{name} is not a uniform double: {other:?}"),
    }
}

/// The day offsets of a DATE column from `base`.
fn offsets(spec: &TableSpec, name: &str, base: &str) -> RangeInclusive<i64> {
    match dist(spec, name) {
        Dist::DateOffset { base: b, lo, hi } if *b == base => *lo..=*hi,
        other => panic!("{name} is not an offset from {base}: {other:?}"),
    }
}

/// Generate a database with `orders` and `lineitem`.
pub fn generate(config: &TpchConfig) -> Database {
    let (orders, lineitem) = (registry("orders"), registry("lineitem"));
    let order_dates = ints(&orders, "o_orderdate");
    let total_prices = doubles(&orders, "o_totalprice");
    let lines = ints(&lineitem, "l_linenumber");
    let ship_after = offsets(&lineitem, "l_shipdate", "l_orderdate");
    let commit_after = offsets(&lineitem, "l_commitdate", "l_orderdate");
    let receipt_after = offsets(&lineitem, "l_receiptdate", "l_shipdate");
    let quantities = ints(&lineitem, "l_quantity");
    let extended_prices = doubles(&lineitem, "l_extendedprice");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_orders = orders_at(config.scale_factor);

    let mut o_orderkey = Vec::with_capacity(n_orders);
    let mut o_orderdate = Vec::with_capacity(n_orders);
    let mut o_totalprice = Vec::with_capacity(n_orders);

    let mut l_orderkey = Vec::new();
    let mut l_linenumber = Vec::new();
    let mut l_quantity = Vec::new();
    let mut l_shipdate = Vec::new();
    let mut l_commitdate = Vec::new();
    let mut l_receiptdate = Vec::new();
    let mut l_extendedprice = Vec::new();

    for key in 1..=n_orders as i64 {
        let orderdate = rng.gen_range(order_dates.clone());
        o_orderkey.push(key);
        o_orderdate.push(orderdate);
        o_totalprice.push(rng.gen_range(total_prices.clone()));
        let items = rng.gen_range(lines.clone());
        for line in 1..=items {
            let ship = orderdate + rng.gen_range(ship_after.clone());
            let commit = orderdate + rng.gen_range(commit_after.clone());
            let receipt = ship + rng.gen_range(receipt_after.clone());
            l_orderkey.push(key);
            l_linenumber.push(line);
            l_quantity.push(rng.gen_range(quantities.clone()));
            l_shipdate.push(ship);
            l_commitdate.push(commit);
            l_receiptdate.push(receipt);
            l_extendedprice.push(rng.gen_range(extended_prices.clone()));
        }
    }

    let mut db = Database::new();
    db.insert(
        "orders",
        Table::new(
            orders_schema(),
            vec![
                Column::int(o_orderkey),
                Column::int(o_orderdate),
                Column::double(o_totalprice),
            ],
        ),
    );
    db.insert(
        "lineitem",
        Table::new(
            lineitem_schema(),
            vec![
                Column::int(l_orderkey),
                Column::int(l_linenumber),
                Column::int(l_quantity),
                Column::int(l_shipdate),
                Column::int(l_commitdate),
                Column::int(l_receiptdate),
                Column::double(l_extendedprice),
            ],
        ),
    );
    db
}

/// The lineitem date columns the benchmark constrains.
pub const LINEITEM_COLS: [&str; 3] = ["l_shipdate", "l_commitdate", "l_receiptdate"];

/// The orders-side column every term must reference.
pub const ORDERS_COL: &str = "o_orderdate";

/// A generated benchmark query.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// Sequential id (0-based).
    pub id: usize,
    /// The full query (join + predicate).
    pub query: Query,
    /// The random predicate (without the join condition).
    pub predicate: Pred,
}

impl BenchQuery {
    /// Render as SQL.
    pub fn sql(&self) -> String {
        self.query.to_string()
    }
}

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of queries (the paper uses 200).
    pub count: usize,
    /// Minimum conjunct count.
    pub min_terms: usize,
    /// Maximum conjunct count.
    pub max_terms: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            count: 200,
            min_terms: 3,
            max_terms: 8,
            seed: 0x51A_2021,
        }
    }
}

/// Generate the workload. Each returned predicate is satisfiable and
/// every one of its terms references `o_orderdate`.
pub fn generate_workload(config: &WorkloadConfig) -> Vec<BenchQuery> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.count);
    let mut id = 0;
    while out.len() < config.count {
        let n_terms = rng.gen_range(config.min_terms..=config.max_terms);
        let terms: Vec<Pred> = (0..n_terms).map(|_| random_term(&mut rng)).collect();
        let predicate = Pred::and_all(terms);
        if !is_satisfiable(&predicate) {
            continue;
        }
        let query = Query {
            select: SelectList::Star,
            tables: vec!["lineitem".into(), "orders".into()],
            predicate: Some(
                col("o_orderkey")
                    .eq_(col("l_orderkey"))
                    .and(predicate.clone()),
            ),
        };
        out.push(BenchQuery {
            id,
            query,
            predicate,
        });
        id += 1;
    }
    out
}

fn random_lineitem_col(rng: &mut StdRng) -> Expr {
    col(LINEITEM_COLS[rng.gen_range(0..LINEITEM_COLS.len())])
}

fn random_date(rng: &mut StdRng) -> Expr {
    // Uniform over the populated order-date range.
    let lo = Date::parse("1992-06-01").unwrap().to_days();
    let hi = Date::parse("1998-06-01").unwrap().to_days();
    Expr::Date(Date::from_days(rng.gen_range(lo..=hi)))
}

fn random_interval(rng: &mut StdRng) -> Expr {
    Expr::Int(rng.gen_range(-60..=120))
}

fn random_cmp(rng: &mut StdRng) -> CmpOp {
    match rng.gen_range(0..10) {
        0..=3 => CmpOp::Lt,
        4..=5 => CmpOp::Le,
        6..=7 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// One random term. Shapes (all referencing `o_orderdate`):
///
/// 1. `l_col - o_orderdate ⋖ interval` — the push-down-blocking
///    difference constraint;
/// 2. `o_orderdate ⋖ date` — an orders-side range;
/// 3. `l_col - l_col ⋖ l_col - o_orderdate + interval` — the paper's
///    complex arithmetic shape (§2);
/// 4. `l_col ⋖ o_orderdate + interval` — a shifted bound.
fn random_term(rng: &mut StdRng) -> Pred {
    let op = random_cmp(rng);
    match rng.gen_range(0..10) {
        0..=3 => random_lineitem_col(rng)
            .sub(col(ORDERS_COL))
            .cmp(op, random_interval(rng)),
        4..=5 => col(ORDERS_COL).cmp(op, random_date(rng)),
        6..=7 => {
            let a = random_lineitem_col(rng);
            let b = random_lineitem_col(rng);
            a.sub(b).cmp(
                op,
                random_lineitem_col(rng)
                    .sub(col(ORDERS_COL))
                    .add(random_interval(rng)),
            )
        }
        _ => random_lineitem_col(rng).cmp(op, col(ORDERS_COL).add(random_interval(rng))),
    }
}

/// Satisfiability filter (§6.3: "we re-generate the query if the
/// predicate cannot be satisfied by any tuples").
pub fn is_satisfiable(p: &Pred) -> bool {
    let mut enc = PredEncoder::new();
    match enc.encode(p) {
        Ok(f) => enc.solver().check(&f).is_sat(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_engine::ColumnData;

    /// FNV-1a over `bytes`, folded into `h`.
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// A digest of both tables: each column's name, type, nullability
    /// and every value's bytes, in schema order.
    fn digest(db: &Database) -> u64 {
        let mut h = FNV_BASIS;
        for name in ["orders", "lineitem"] {
            let t = db.table(name).unwrap();
            fnv(&mut h, name.as_bytes());
            for (def, col) in t.schema.columns().iter().zip(&t.columns) {
                let head = format!("{}:{:?}:{}", def.name, def.ty, def.nullable);
                fnv(&mut h, head.as_bytes());
                assert!(col.validity.is_none(), "{} has no NULLs", def.name);
                match &col.data {
                    ColumnData::Int(v) => v.iter().for_each(|x| fnv(&mut h, &x.to_le_bytes())),
                    ColumnData::Double(v) => {
                        v.iter()
                            .for_each(|x| fnv(&mut h, &x.to_bits().to_le_bytes()));
                    }
                }
            }
        }
        h
    }

    /// Every generated byte, pinned at two (scale, seed) pairs: the
    /// digests were recorded from the hand-written generator this one
    /// replaced.
    #[test]
    fn generated_bytes_are_pinned() {
        for (scale_factor, seed, want) in [
            (0.01, 1, 0x8600_16f8_0389_6393),
            (0.05, 0x7fc8, 0x0fb4_fb18_35cf_e018),
        ] {
            let db = generate(&TpchConfig { scale_factor, seed });
            assert_eq!(digest(&db), want, "scale {scale_factor}, seed {seed:#x}");
        }
    }

    /// The printed SQL of the paper's 200 queries, pinned the same way.
    #[test]
    fn workload_sql_is_pinned() {
        let mut h = FNV_BASIS;
        for q in generate_workload(&WorkloadConfig::default()) {
            fnv(&mut h, q.sql().as_bytes());
            fnv(&mut h, b"\n");
        }
        assert_eq!(h, 0xa1af_9efd_355c_3958);
    }

    #[test]
    fn row_counts_scale() {
        let db = generate(&TpchConfig {
            scale_factor: 0.01,
            seed: 1,
        });
        let orders = db.table("orders").unwrap();
        let lineitem = db.table("lineitem").unwrap();
        assert_eq!(orders.num_rows(), 1500);
        // The registry's lines per order average 4.
        let ratio = lineitem.num_rows() as f64 / orders.num_rows() as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    /// Every generated value lies in the range the registry declares for
    /// its column, the lineitem dates measured from their base dates.
    #[test]
    fn date_invariants_hold() {
        let db = generate(&TpchConfig {
            scale_factor: 0.005,
            seed: 2,
        });
        let (o, l) = (registry("orders"), registry("lineitem"));
        let li = db.table("lineitem").unwrap();
        let orders = db.table("orders").unwrap();
        // Map orderkey → orderdate.
        let mut dates = std::collections::HashMap::new();
        for r in 0..orders.num_rows() {
            dates.insert(
                orders.value(r, "o_orderkey").as_i64().unwrap(),
                orders.value(r, "o_orderdate").as_i64().unwrap(),
            );
        }
        let int = |t: &Table, r, c| t.value(r, c).as_i64().unwrap();
        for r in 0..li.num_rows() {
            let od = dates[&int(li, r, "l_orderkey")];
            assert!(ints(&o, "o_orderdate").contains(&od));
            let ship = int(li, r, "l_shipdate");
            let commit = int(li, r, "l_commitdate");
            let receipt = int(li, r, "l_receiptdate");
            let after = |c, base| offsets(&l, c, base);
            assert!(after("l_shipdate", "l_orderdate").contains(&(ship - od)));
            assert!(after("l_commitdate", "l_orderdate").contains(&(commit - od)));
            assert!(after("l_receiptdate", "l_shipdate").contains(&(receipt - ship)));
            assert!(ints(&l, "l_quantity").contains(&int(li, r, "l_quantity")));
            assert!(ints(&l, "l_linenumber").contains(&int(li, r, "l_linenumber")));
            let price = li.value(r, "l_extendedprice").as_f64().unwrap();
            assert!(doubles(&l, "l_extendedprice").contains(&price));
        }
    }

    #[test]
    fn deterministic() {
        let cfg = TpchConfig {
            scale_factor: 0.002,
            seed: 42,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        let (ta, tb) = (a.table("lineitem").unwrap(), b.table("lineitem").unwrap());
        assert_eq!(ta.num_rows(), tb.num_rows());
        for r in (0..ta.num_rows()).step_by(97) {
            assert_eq!(
                ta.value(r, "l_shipdate").as_i64(),
                tb.value(r, "l_shipdate").as_i64()
            );
        }
    }

    #[test]
    fn queries_run_against_generated_data() {
        let db = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 3,
        });
        let r = db
            .run_sql(
                "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
                 AND o_orderdate < DATE '1995-01-01'",
            )
            .unwrap();
        assert!(r.table.num_rows() > 0);
        let joined = r.table.num_rows();
        let all = db
            .run_sql("SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey")
            .unwrap()
            .table
            .num_rows();
        assert!(joined < all);
        assert_eq!(
            all,
            db.table("lineitem").unwrap().num_rows(),
            "every lineitem joins exactly one order"
        );
    }

    #[test]
    fn generates_requested_count() {
        let qs = generate_workload(&WorkloadConfig {
            count: 25,
            ..WorkloadConfig::default()
        });
        assert_eq!(qs.len(), 25);
        assert_eq!(qs[24].id, 24);
    }

    #[test]
    fn every_term_references_o_orderdate() {
        let qs = generate_workload(&WorkloadConfig {
            count: 15,
            ..WorkloadConfig::default()
        });
        for q in &qs {
            for term in q.predicate.conjuncts() {
                assert!(
                    term.columns().contains(&ORDERS_COL.to_string()),
                    "term {term} lacks o_orderdate in query {}",
                    q.id
                );
            }
            let n = q.predicate.conjuncts().len();
            assert!((3..=8).contains(&n));
        }
    }

    #[test]
    fn predicates_are_satisfiable() {
        let qs = generate_workload(&WorkloadConfig {
            count: 10,
            ..WorkloadConfig::default()
        });
        for q in &qs {
            assert!(is_satisfiable(&q.predicate), "query {} unsat", q.id);
        }
    }

    #[test]
    fn queries_parse_back() {
        let qs = generate_workload(&WorkloadConfig {
            count: 5,
            ..WorkloadConfig::default()
        });
        for q in &qs {
            let reparsed = sia_sql::parse_query(&q.sql()).unwrap();
            assert_eq!(reparsed.tables, vec!["lineitem", "orders"]);
            assert!(reparsed.predicate.is_some());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = WorkloadConfig {
            count: 8,
            ..WorkloadConfig::default()
        };
        let a = generate_workload(&cfg);
        let b = generate_workload(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sql(), y.sql());
        }
    }

    #[test]
    fn unsatisfiable_filter_works() {
        let p = sia_sql::parse_predicate(
            "o_orderdate < DATE '1993-01-01' AND o_orderdate > DATE '1994-01-01'",
        )
        .unwrap();
        assert!(!is_satisfiable(&p));
    }
}
