//! Plan-equivalence suite for the move-around pass: the same query on
//! seeded `sia-gen` data must return identical result sets with the pass
//! off, static, and static+synthesis — while strictly increasing the
//! number of filters sitting below joins on the snippet-1 chain plan.

use sia_engine::{Database, MoveAround, OptimizerConfig, QueryResult, Table};
use sia_expr::Value;

/// A database with the full sia-gen registry loaded at small row counts
/// (keys are drawn from narrow ranges so joins actually match).
fn gen_db(rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    for spec in sia_gen::tables() {
        let data = spec.sample(rows, seed ^ u64::from(spec.name.len() as u32));
        db.insert(spec.name, Table::from_rows(spec.schema(), &data));
    }
    db
}

fn config(mode: MoveAround) -> OptimizerConfig {
    OptimizerConfig { move_around: mode }
}

/// Sorted row-major rendering of a result, for order-insensitive
/// comparison (`Value` is not `Ord`; Display is exact for ints and
/// dates, and doubles come out of identical arithmetic on both sides).
fn sorted_rows(r: &QueryResult) -> Vec<String> {
    let names: Vec<String> = r
        .table
        .schema
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let mut rows: Vec<String> = (0..r.table.num_rows())
        .map(|i| {
            names
                .iter()
                .map(|n| match r.table.value(i, n) {
                    Value::Null => "NULL".to_string(),
                    v => format!("{v:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

fn assert_equivalent(db: &Database, sql: &str) {
    let q = sia_sql::parse_query(sql).expect("parse");
    let off = db.run(&q, config(MoveAround::Off)).expect("off");
    let st = db.run(&q, config(MoveAround::Static)).expect("static");
    let syn = db.run(&q, config(MoveAround::Synthesis)).expect("synth");
    assert_eq!(
        sorted_rows(&off),
        sorted_rows(&st),
        "static changed results for {sql}\noff plan:\n{}\nstatic plan:\n{}",
        off.plan,
        st.plan
    );
    assert_eq!(
        sorted_rows(&off),
        sorted_rows(&syn),
        "synthesis changed results for {sql}\noff plan:\n{}\nsynth plan:\n{}",
        off.plan,
        syn.plan
    );
}

#[test]
fn chain_join_results_identical_across_modes() {
    // Narrow keys (nation/region) so a three-table chain has matches.
    let db = gen_db(256, 11);
    assert_equivalent(
        &db,
        "SELECT * FROM customer, nation, region \
         WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
         AND r_regionkey <= 2",
    );
}

#[test]
fn star_join_results_identical_across_modes() {
    let db = gen_db(256, 23);
    assert_equivalent(
        &db,
        "SELECT * FROM nation, customer, supplier \
         WHERE n_nationkey = c_nationkey AND n_nationkey = s_nationkey \
         AND n_nationkey < 12",
    );
}

#[test]
fn self_join_results_identical_across_modes() {
    // The SQL layer has no aliases: register the same sampled data under
    // a second name with renamed columns to express a self-join.
    let mut db = Database::new();
    let spec = sia_gen::table("nation").expect("nation spec");
    let data = spec.sample(128, 5);
    db.insert("nation", Table::from_rows(spec.schema(), &data));
    let mirrored = sia_expr::Schema::new(
        spec.schema()
            .columns()
            .iter()
            .map(|c| sia_expr::ColumnDef::new(format!("m_{}", &c.name[2..]), c.ty))
            .collect(),
    );
    db.insert("mirror", Table::from_rows(mirrored, &data));
    assert_equivalent(
        &db,
        "SELECT * FROM nation, mirror \
         WHERE n_regionkey = m_regionkey AND n_nationkey > 17",
    );
}

#[test]
fn chain_pushes_more_filters_than_local_rules() {
    // The snippet-1 shape: a deep chain with one selective filter at the
    // top. Local rules can only route the filter to its own table; the
    // move-around pass derives a bound for every chained key.
    let db = gen_db(200, 3);
    let sql = "SELECT * FROM customer, nation, region \
               WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
               AND r_regionkey >= 3";
    let q = sia_sql::parse_query(sql).expect("parse");
    let off = db.run(&q, config(MoveAround::Off)).expect("off");
    let st = db.run(&q, config(MoveAround::Static)).expect("static");
    assert!(
        st.plan.filters_below_joins() > off.plan.filters_below_joins(),
        "expected strictly more pushed filters\noff:\n{}\nstatic:\n{}",
        off.plan,
        st.plan
    );
    // The derived bounds shrink what flows into the joins.
    assert!(
        st.stats.join_input_rows < off.stats.join_input_rows,
        "derived predicates saved no join input rows ({} vs {})",
        st.stats.join_input_rows,
        off.stats.join_input_rows
    );
    // And the report says so.
    assert!(!st.moved.derived.is_empty());
    assert!(st.moved.scans_pushed() >= 1);
}

/// `t1(a) ⋈ t2(b)` over the keys 15..=25: the executor truncates integer
/// division, so `a / 2 <= 10` keeps a = 21 (21 / 2 = 10). A bound derived
/// by reading the quotient as rational (`b <= 20`) would drop that row.
#[test]
fn integer_division_keeps_its_truncated_rows_in_every_mode() {
    let mut db = Database::new();
    let keys: Vec<Vec<Value>> = (15..=25).map(|k| vec![Value::Int(k)]).collect();
    for (table, column) in [("t1", "a"), ("t2", "b")] {
        let schema = sia_expr::Schema::new(vec![sia_expr::ColumnDef::new(
            column,
            sia_expr::DataType::Integer,
        )]);
        db.insert(table, Table::from_rows(schema, &keys));
    }
    for filter in ["a / 2 <= 10", "a / -2 >= -10"] {
        let sql = format!("SELECT * FROM t1, t2 WHERE a = b AND {filter}");
        let q = sia_sql::parse_query(&sql).expect("parse");
        for mode in [MoveAround::Off, MoveAround::Static, MoveAround::Synthesis] {
            let r = db.run(&q, config(mode)).expect("run");
            assert_eq!(r.table.num_rows(), 7, "{mode:?} on {sql}\n{}", r.plan);
        }
        assert_equivalent(&db, &sql);
    }
}

#[test]
fn equality_classes_propagate_point_constraints() {
    // A point constraint on one side of an equality class reaches the
    // other side: n_regionkey = r_regionkey ∧ r_regionkey = 4 derives
    // n_regionkey = 4 at the nation scan.
    let db = gen_db(200, 29);
    let sql = "SELECT * FROM nation, region \
               WHERE n_regionkey = r_regionkey AND r_regionkey = 4";
    let q = sia_sql::parse_query(sql).expect("parse");
    let st = db.run(&q, config(MoveAround::Static)).expect("static");
    assert!(
        st.moved
            .derived
            .iter()
            .any(|(t, p)| t == "nation" && p.columns() == vec!["n_regionkey".to_string()]),
        "no constant propagated to nation: {}",
        st.moved
    );
    assert_equivalent(&db, sql);
}
