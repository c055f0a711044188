//! TPC-H-style data generation for the `orders` ⋈ `lineitem` workload.
//!
//! Reproduces the distributions the benchmark queries care about:
//! `o_orderdate` uniform over [1992-01-01, 1998-08-02] and the lineitem
//! date columns derived from it with dbgen's offsets (`l_shipdate` =
//! orderdate + 1..121, `l_commitdate` = orderdate + 30..90,
//! `l_receiptdate` = shipdate + 1..30). Scale factor 1 corresponds to
//! 150,000 orders (TPC-H's 1.5M scaled down 10× keeps in-memory runs
//! proportionate; the *relative* behaviour — join sizes, selectivities —
//! is unchanged because every experiment compares two plans on the same
//! data).

use sia_engine::{Column, Database, Table};
use sia_expr::{Catalog, ColumnDef, DataType, Date, Schema};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};

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

/// The `orders` schema (columns used by the benchmark).
fn orders_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("o_orderkey", DataType::Integer),
        ColumnDef::new("o_orderdate", DataType::Date),
        ColumnDef::new("o_totalprice", DataType::Double),
    ])
}

/// The `lineitem` schema (columns used by the benchmark).
fn lineitem_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("l_orderkey", DataType::Integer),
        ColumnDef::new("l_linenumber", DataType::Integer),
        ColumnDef::new("l_quantity", DataType::Integer),
        ColumnDef::new("l_shipdate", DataType::Date),
        ColumnDef::new("l_commitdate", DataType::Date),
        ColumnDef::new("l_receiptdate", DataType::Date),
        ColumnDef::new("l_extendedprice", DataType::Double),
    ])
}

/// Generate a database with `orders` and `lineitem`.
pub fn generate(config: &TpchConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_orders = orders_at(config.scale_factor);
    let start = Date::parse("1992-01-01").unwrap().to_days();
    let end = Date::parse("1998-08-02").unwrap().to_days();

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
        let orderdate = rng.gen_range(start..=end);
        o_orderkey.push(key);
        o_orderdate.push(orderdate);
        o_totalprice.push(rng.gen_range(850.0..555_000.0));
        let items = rng.gen_range(1..=7);
        for line in 1..=items {
            let ship = orderdate + rng.gen_range(1i64..=121);
            let commit = orderdate + rng.gen_range(30i64..=90);
            let receipt = ship + rng.gen_range(1i64..=30);
            l_orderkey.push(key);
            l_linenumber.push(line);
            l_quantity.push(rng.gen_range(1..=50));
            l_shipdate.push(ship);
            l_commitdate.push(commit);
            l_receiptdate.push(receipt);
            l_extendedprice.push(rng.gen_range(900.0..105_000.0));
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

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::Value;

    #[test]
    fn row_counts_scale() {
        let db = generate(&TpchConfig {
            scale_factor: 0.01,
            seed: 1,
        });
        let orders = db.table("orders").unwrap();
        let lineitem = db.table("lineitem").unwrap();
        assert_eq!(orders.num_rows(), 1500);
        // 1–7 items per order, expectation 4.
        let ratio = lineitem.num_rows() as f64 / orders.num_rows() as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn date_invariants_hold() {
        let db = generate(&TpchConfig {
            scale_factor: 0.005,
            seed: 2,
        });
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
        let lo = Date::parse("1992-01-01").unwrap().to_days();
        let hi = Date::parse("1998-08-02").unwrap().to_days();
        for r in 0..li.num_rows() {
            let key = li.value(r, "l_orderkey").as_i64().unwrap();
            let od = dates[&key];
            assert!((lo..=hi).contains(&od));
            let ship = li.value(r, "l_shipdate").as_i64().unwrap();
            let commit = li.value(r, "l_commitdate").as_i64().unwrap();
            let receipt = li.value(r, "l_receiptdate").as_i64().unwrap();
            assert!((1..=121).contains(&(ship - od)), "ship offset");
            assert!((30..=90).contains(&(commit - od)), "commit offset");
            assert!((1..=30).contains(&(receipt - ship)), "receipt offset");
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
        let _ = Value::Null;
    }
}
