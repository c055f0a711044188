//! Schema registry for the workload generator: every TPC-H table plus a
//! synthetic wide table, each column annotated with a sampling distribution
//! so generated constants can be drawn from realistic value ranges and
//! selectivity can be estimated against sampled rows.

use sia_expr::{ColumnDef, DataType, Date, Schema, Value};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};

/// How values of a column are distributed, for sampling and constant drawing.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Uniform integer in `lo..=hi`.
    IntUniform {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Dictionary-encoded categorical column: uniform code in `0..cardinality`.
    IntDict {
        /// Number of distinct codes.
        cardinality: i64,
    },
    /// Uniform double in `lo..hi`.
    DoubleUniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Uniform date between two days-since-epoch bounds (inclusive).
    DateUniform {
        /// Inclusive lower bound in days since 1970-01-01.
        lo_days: i64,
        /// Inclusive upper bound in days since 1970-01-01.
        hi_days: i64,
    },
    /// A date offset from an earlier column in the same table by a uniform
    /// number of days in `lo..=hi` — models TPC-H's shipdate/commitdate/
    /// receiptdate correlation with the order date.
    DateOffset {
        /// Name of the base column (must appear earlier in the table spec).
        base: &'static str,
        /// Inclusive lower offset in days.
        lo: i64,
        /// Inclusive upper offset in days.
        hi: i64,
    },
}

/// One column of a generator table: definition, distribution, NULL rate.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name.
    pub name: &'static str,
    /// Declared type.
    pub ty: DataType,
    /// Sampling distribution.
    pub dist: Dist,
    /// Fraction of sampled values that are NULL (0.0 = non-nullable).
    pub null_rate: f64,
}

impl ColumnSpec {
    fn new(name: &'static str, ty: DataType, dist: Dist) -> Self {
        ColumnSpec {
            name,
            ty,
            dist,
            null_rate: 0.0,
        }
    }

    fn with_nulls(mut self, rate: f64) -> Self {
        self.null_rate = rate;
        self
    }

    /// Whether this column is dictionary-encoded categorical.
    pub fn is_dict(&self) -> bool {
        matches!(self.dist, Dist::IntDict { .. })
    }
}

/// A table the generator can target: named columns with distributions.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (lower-case, TPC-H style).
    pub name: &'static str,
    /// Columns in declaration order.
    pub cols: Vec<ColumnSpec>,
}

impl TableSpec {
    /// The `sia-expr` schema for type checking and lint seeding.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.cols
                .iter()
                .map(|c| {
                    if c.null_rate > 0.0 {
                        ColumnDef::nullable(c.name, c.ty)
                    } else {
                        ColumnDef::new(c.name, c.ty)
                    }
                })
                .collect(),
        )
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    /// Column spec by name.
    pub fn column(&self, name: &str) -> Option<&ColumnSpec> {
        self.cols.iter().find(|c| c.name == name)
    }

    /// Sample `n` rows deterministically. Each row is one `Value` per column
    /// in declaration order; NULLs appear per the column's `null_rate`.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Vec<Value>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row: Vec<Value> = Vec::with_capacity(self.cols.len());
            for col in &self.cols {
                if col.null_rate > 0.0 && rng.gen_bool(col.null_rate) {
                    row.push(Value::Null);
                    continue;
                }
                let v = match &col.dist {
                    Dist::IntUniform { lo, hi } => Value::Int(rng.gen_range(*lo..=*hi)),
                    Dist::IntDict { cardinality } => {
                        Value::Int(rng.gen_range(0..(*cardinality).max(1)))
                    }
                    Dist::DoubleUniform { lo, hi } => Value::Double(rng.gen_range(*lo..*hi)),
                    Dist::DateUniform { lo_days, hi_days } => {
                        Value::Int(rng.gen_range(*lo_days..=*hi_days))
                    }
                    Dist::DateOffset { base, lo, hi } => {
                        let idx = self
                            .index_of(base)
                            .unwrap_or_else(|| panic!("DateOffset base {base:?} not in table"));
                        let base_days = match row[idx] {
                            Value::Int(d) => d,
                            // Base was NULL (or non-int): fall back to epoch of
                            // the registry's date range so the offset still
                            // yields a plausible date.
                            _ => days("1995-01-01"),
                        };
                        Value::Int(base_days + rng.gen_range(*lo..=*hi))
                    }
                };
                row.push(v);
            }
            rows.push(row);
        }
        rows
    }
}

fn days(s: &str) -> i64 {
    Date::parse(s).expect("valid literal date").to_days()
}

fn date_uniform(lo: &str, hi: &str) -> Dist {
    Dist::DateUniform {
        lo_days: days(lo),
        hi_days: days(hi),
    }
}

/// All tables the generator knows about.
///
/// `orders` and `lineitem` are the one declaration of the benchmark's
/// tables: [`crate::tpch`] draws its data and projects its schemas from
/// them (`lineitem` also carries the order date its offsets start from).
/// The remaining TPC-H tables use TPC-H-spec-style ranges with
/// text columns dictionary-encoded as small integer domains; `wide` is a
/// synthetic 16-column table with NULL-heavy and categorical columns.
pub fn tables() -> Vec<TableSpec> {
    use DataType::{Date as DateTy, Double, Integer};
    vec![
        TableSpec {
            name: "orders",
            cols: vec![
                ColumnSpec::new(
                    "o_orderkey",
                    Integer,
                    Dist::IntUniform {
                        lo: 1,
                        hi: 1_500_000,
                    },
                ),
                ColumnSpec::new(
                    "o_custkey",
                    Integer,
                    Dist::IntUniform { lo: 1, hi: 150_000 },
                ),
                ColumnSpec::new(
                    "o_orderdate",
                    DateTy,
                    date_uniform("1992-01-01", "1998-08-02"),
                ),
                ColumnSpec::new(
                    "o_totalprice",
                    Double,
                    Dist::DoubleUniform {
                        lo: 850.0,
                        hi: 555_000.0,
                    },
                ),
                ColumnSpec::new("o_orderstatus", Integer, Dist::IntDict { cardinality: 3 }),
                ColumnSpec::new("o_orderpriority", Integer, Dist::IntDict { cardinality: 5 }),
            ],
        },
        TableSpec {
            name: "lineitem",
            cols: vec![
                ColumnSpec::new(
                    "l_orderkey",
                    Integer,
                    Dist::IntUniform {
                        lo: 1,
                        hi: 1_500_000,
                    },
                ),
                ColumnSpec::new("l_linenumber", Integer, Dist::IntUniform { lo: 1, hi: 7 }),
                ColumnSpec::new("l_quantity", Integer, Dist::IntUniform { lo: 1, hi: 50 }),
                ColumnSpec::new(
                    "l_orderdate",
                    DateTy,
                    date_uniform("1992-01-01", "1998-08-02"),
                ),
                ColumnSpec::new(
                    "l_shipdate",
                    DateTy,
                    Dist::DateOffset {
                        base: "l_orderdate",
                        lo: 1,
                        hi: 121,
                    },
                ),
                ColumnSpec::new(
                    "l_commitdate",
                    DateTy,
                    Dist::DateOffset {
                        base: "l_orderdate",
                        lo: 30,
                        hi: 90,
                    },
                ),
                ColumnSpec::new(
                    "l_receiptdate",
                    DateTy,
                    Dist::DateOffset {
                        base: "l_shipdate",
                        lo: 1,
                        hi: 30,
                    },
                ),
                ColumnSpec::new(
                    "l_extendedprice",
                    Double,
                    Dist::DoubleUniform {
                        lo: 900.0,
                        hi: 105_000.0,
                    },
                ),
                ColumnSpec::new("l_returnflag", Integer, Dist::IntDict { cardinality: 3 }),
                ColumnSpec::new("l_linestatus", Integer, Dist::IntDict { cardinality: 2 }),
            ],
        },
        TableSpec {
            name: "part",
            cols: vec![
                ColumnSpec::new(
                    "p_partkey",
                    Integer,
                    Dist::IntUniform { lo: 1, hi: 200_000 },
                ),
                ColumnSpec::new("p_size", Integer, Dist::IntUniform { lo: 1, hi: 50 }),
                ColumnSpec::new(
                    "p_retailprice",
                    Double,
                    Dist::DoubleUniform {
                        lo: 900.0,
                        hi: 2_000.0,
                    },
                ),
                ColumnSpec::new("p_brand", Integer, Dist::IntDict { cardinality: 25 }),
                ColumnSpec::new("p_container", Integer, Dist::IntDict { cardinality: 40 }),
                ColumnSpec::new("p_mfgr", Integer, Dist::IntDict { cardinality: 5 }),
            ],
        },
        TableSpec {
            name: "customer",
            cols: vec![
                ColumnSpec::new(
                    "c_custkey",
                    Integer,
                    Dist::IntUniform { lo: 1, hi: 150_000 },
                ),
                ColumnSpec::new("c_nationkey", Integer, Dist::IntDict { cardinality: 25 }),
                ColumnSpec::new(
                    "c_acctbal",
                    Double,
                    Dist::DoubleUniform {
                        lo: -999.99,
                        hi: 9_999.99,
                    },
                ),
                ColumnSpec::new("c_mktsegment", Integer, Dist::IntDict { cardinality: 5 }),
            ],
        },
        TableSpec {
            name: "supplier",
            cols: vec![
                ColumnSpec::new("s_suppkey", Integer, Dist::IntUniform { lo: 1, hi: 10_000 }),
                ColumnSpec::new("s_nationkey", Integer, Dist::IntDict { cardinality: 25 }),
                ColumnSpec::new(
                    "s_acctbal",
                    Double,
                    Dist::DoubleUniform {
                        lo: -999.99,
                        hi: 9_999.99,
                    },
                ),
            ],
        },
        TableSpec {
            name: "partsupp",
            cols: vec![
                ColumnSpec::new(
                    "ps_partkey",
                    Integer,
                    Dist::IntUniform { lo: 1, hi: 200_000 },
                ),
                ColumnSpec::new(
                    "ps_suppkey",
                    Integer,
                    Dist::IntUniform { lo: 1, hi: 10_000 },
                ),
                ColumnSpec::new(
                    "ps_availqty",
                    Integer,
                    Dist::IntUniform { lo: 1, hi: 9_999 },
                ),
                ColumnSpec::new(
                    "ps_supplycost",
                    Double,
                    Dist::DoubleUniform {
                        lo: 1.0,
                        hi: 1_000.0,
                    },
                ),
            ],
        },
        TableSpec {
            name: "nation",
            cols: vec![
                ColumnSpec::new("n_nationkey", Integer, Dist::IntUniform { lo: 0, hi: 24 }),
                ColumnSpec::new("n_regionkey", Integer, Dist::IntDict { cardinality: 5 }),
                ColumnSpec::new("n_name", Integer, Dist::IntDict { cardinality: 25 }),
            ],
        },
        TableSpec {
            name: "region",
            cols: vec![
                ColumnSpec::new("r_regionkey", Integer, Dist::IntUniform { lo: 0, hi: 4 }),
                ColumnSpec::new("r_name", Integer, Dist::IntDict { cardinality: 5 }),
            ],
        },
        TableSpec {
            name: "wide",
            cols: vec![
                ColumnSpec::new(
                    "w_key",
                    Integer,
                    Dist::IntUniform {
                        lo: 1,
                        hi: 1_000_000,
                    },
                ),
                ColumnSpec::new("w_i0", Integer, Dist::IntUniform { lo: 0, hi: 100 }),
                ColumnSpec::new("w_i1", Integer, Dist::IntUniform { lo: -500, hi: 500 }),
                ColumnSpec::new("w_i2", Integer, Dist::IntUniform { lo: 0, hi: 10_000 }),
                ColumnSpec::new("w_i3", Integer, Dist::IntUniform { lo: 1900, hi: 2030 }),
                ColumnSpec::new("w_d0", Double, Dist::DoubleUniform { lo: 0.0, hi: 1.0 }),
                ColumnSpec::new(
                    "w_d1",
                    Double,
                    Dist::DoubleUniform {
                        lo: -1_000.0,
                        hi: 1_000.0,
                    },
                ),
                ColumnSpec::new("w_t0", DateTy, date_uniform("2015-01-01", "2026-01-01")),
                ColumnSpec::new(
                    "w_t1",
                    DateTy,
                    Dist::DateOffset {
                        base: "w_t0",
                        lo: 0,
                        hi: 365,
                    },
                ),
                ColumnSpec::new("w_n0", Integer, Dist::IntUniform { lo: 0, hi: 1_000 })
                    .with_nulls(0.3),
                ColumnSpec::new("w_n1", Integer, Dist::IntUniform { lo: 0, hi: 100 })
                    .with_nulls(0.5),
                ColumnSpec::new("w_n2", Double, Dist::DoubleUniform { lo: 0.0, hi: 100.0 })
                    .with_nulls(0.3),
                ColumnSpec::new("w_n3", DateTy, date_uniform("2020-01-01", "2026-01-01"))
                    .with_nulls(0.2),
                ColumnSpec::new("w_c0", Integer, Dist::IntDict { cardinality: 8 }),
                ColumnSpec::new("w_c1", Integer, Dist::IntDict { cardinality: 25 }),
                ColumnSpec::new("w_c2", Integer, Dist::IntDict { cardinality: 100 }),
            ],
        },
    ]
}

/// Look up a table spec by name.
pub fn table(name: &str) -> Option<TableSpec> {
    tables().into_iter().find(|t| t.name == name)
}

/// Every (table name, schema) pair — the registry consumers use to seed
/// `sia-analyze` lint so synthetic-schema requests don't trip `type-suspect`.
pub fn schemas() -> Vec<(String, Schema)> {
    tables()
        .into_iter()
        .map(|t| (t.name.to_string(), t.schema()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_tpch_and_wide() {
        let names: Vec<&str> = tables().iter().map(|t| t.name).collect();
        for want in [
            "orders", "lineitem", "part", "customer", "supplier", "partsupp", "nation", "region",
            "wide",
        ] {
            assert!(names.contains(&want), "missing table {want}");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_typed() {
        let t = table("wide").unwrap();
        let a = t.sample(64, 7);
        let b = t.sample(64, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for row in &a {
            assert_eq!(row.len(), t.cols.len());
            for (v, c) in row.iter().zip(&t.cols) {
                match (v, c.ty) {
                    (Value::Null, _) => assert!(c.null_rate > 0.0),
                    (Value::Int(_), DataType::Integer | DataType::Date) => {}
                    (Value::Double(_), DataType::Double) => {}
                    other => panic!("value/type mismatch {other:?} for {}", c.name),
                }
            }
        }
    }

    #[test]
    fn lineitem_offsets_follow_base() {
        let t = table("lineitem").unwrap();
        let od = t.index_of("l_orderdate").unwrap();
        let sd = t.index_of("l_shipdate").unwrap();
        for row in t.sample(128, 3) {
            let (Value::Int(o), Value::Int(s)) = (row[od], row[sd]) else {
                panic!("dates must be ints");
            };
            assert!((1..=121).contains(&(s - o)));
        }
    }
}
