//! Differential corpus for the executor: seeded random tables, predicates
//! and plans, each run through `execute` and through the reference below,
//! and compared cell for cell (row order included) and on all four
//! `ExecStats` counters. Each case runs its plan, a plan of another shape
//! on the same database, then its own plan again, so buffers one query
//! hands back to the database are reused by the next.
//!
//! The reference is the executor's specification written down once — rows
//! as values, `sia_expr::eval_pred` one row at a time, a nested-loop join
//! in probe-major / build-ascending order — and shares no operator code
//! with `src/exec.rs` or `src/compile.rs`.

use sia_engine::{execute, Database, ExecStats, Plan, Table};
use sia_expr::{eval_pred, ColumnDef, DataType, Pred, Schema, Value};
use sia_gen::GenConfig;
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};
use sia_sql::parse_predicate;

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.num_rows())
        .map(|r| t.columns.iter().map(|c| c.get(r)).collect())
        .collect()
}

fn reference(plan: &Plan, db: &Database, stats: &mut ExecStats) -> Table {
    match plan {
        Plan::Scan { table } => {
            let t = db.table(table).expect("table exists").clone();
            stats.rows_scanned += t.num_rows() as u64;
            t
        }
        Plan::Filter { pred, input } => {
            let t = reference(input, db, stats);
            stats.rows_filtered += t.num_rows() as u64;
            let kept: Vec<Vec<Value>> = rows_of(&t)
                .into_iter()
                .filter(|values| {
                    let get = |c: &str| values[t.schema.index_of(c).expect("columns resolve")];
                    eval_pred(pred, &get) == Some(true)
                })
                .collect();
            Table::from_rows(t.schema.clone(), &kept)
        }
        Plan::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (l, r) = (reference(left, db, stats), reference(right, db, stats));
            stats.join_input_rows += (l.num_rows() + r.num_rows()) as u64;
            let lk = l.schema.index_of(left_key).expect("left key");
            let rk = r.schema.index_of(right_key).expect("right key");
            let (l_rows, r_rows) = (rows_of(&l), rows_of(&r));
            // The smaller input (the left on a tie) is the build side; the
            // probe side's order leads, build matches follow in build order.
            let build_left = l_rows.len() <= r_rows.len();
            let mut out = Vec::new();
            for outer in if build_left { &r_rows } else { &l_rows } {
                for inner in if build_left { &l_rows } else { &r_rows } {
                    let (lr, rr) = if build_left {
                        (inner, outer)
                    } else {
                        (outer, inner)
                    };
                    if !lr[lk].is_null() && lr[lk] == rr[rk] {
                        out.push([lr.clone(), rr.clone()].concat());
                    }
                }
            }
            stats.join_output_rows += out.len() as u64;
            let schema = Schema::new([l.schema.columns(), r.schema.columns()].concat());
            Table::from_rows(schema, &out)
        }
        Plan::Project { columns, input } => {
            let t = reference(input, db, stats);
            let idx: Vec<usize> = columns
                .iter()
                .map(|c| t.schema.index_of(c).expect("projected column"))
                .collect();
            let defs = idx.iter().map(|&i| t.schema.columns()[i].clone());
            let rows: Vec<Vec<Value>> = rows_of(&t)
                .iter()
                .map(|row| idx.iter().map(|&i| row[i]).collect())
                .collect();
            Table::from_rows(Schema::new(defs.collect()), &rows)
        }
    }
}

/// A table `p` with an integer key `p_k` (few values, so it joins with
/// duplicates), integers `p_a` and `p_b` (`p_b` often 0, a divisor), and a
/// DOUBLE `p_d`; every column but `p_b` may hold NULLs, `p_a` the integer
/// extremes and `p_d` NaN.
fn random_table(rng: &mut StdRng, p: &str, rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::nullable(format!("{p}_k"), DataType::Integer),
        ColumnDef::nullable(format!("{p}_a"), DataType::Integer),
        ColumnDef::new(format!("{p}_b"), DataType::Integer),
        ColumnDef::nullable(format!("{p}_d"), DataType::Double),
    ]);
    let null_rate = [0.0, 0.15, 0.6][rng.gen_range(0..3usize)];
    let or_null = |rng: &mut StdRng, v: Value| {
        if rng.gen_bool(null_rate) {
            Value::Null
        } else {
            v
        }
    };
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let a = match rng.gen_range(0..40u32) {
                0 => i64::MAX,
                1 => i64::MIN,
                _ => rng.gen_range(-20i64..=20),
            };
            let d = match rng.gen_range(0..25u32) {
                0 => f64::NAN,
                _ => rng.gen_range(-20i64..=20) as f64 / 2.0,
            };
            let k = Value::Int(rng.gen_range(0i64..6));
            vec![
                or_null(rng, k),
                or_null(rng, Value::Int(a)),
                Value::Int(rng.gen_range(-2i64..=2)),
                or_null(rng, Value::Double(d)),
            ]
        })
        .collect();
    Table::from_rows(schema, &data)
}

/// A hand-written predicate shape over tables `p` and `q` (the same table
/// for a single-input filter): `OR`, `NOT`, division by a column that is
/// often zero and by the literal 0, int-vs-double comparisons, constants
/// on either side.
fn hand_pred(rng: &mut StdRng, p: &str, q: &str) -> Pred {
    let c = rng.gen_range(-8i64..=8);
    let shapes = [
        format!("{p}_a + {p}_b * 2 >= {c}"),
        format!("{c} < {q}_a"),
        format!("{p}_a / {q}_b > {c} OR {q}_a = {c}"),
        format!("NOT ({p}_a < {q}_b) AND {p}_a <> {c}"),
        format!("{p}_a < {q}_d"),
        format!("{c}.5 >= {q}_d - {p}_a"),
        format!("{p}_d * 2 > {q}_a - {c} OR NOT ({q}_d <= {c}.5)"),
        format!("{p}_d / 0 > 1 OR {p}_a / 0 = {c}"),
        format!("{p}_a / 0 = 0 OR {q}_k = {q}_k"),
        format!("NOT ({p}_a >= {c} OR {q}_d < {p}_a)"),
        format!("{p}_a * {q}_a > {c} AND ({p}_b = 0 OR {q}_a / {p}_b < 3)"),
        format!("NOT (NOT ({p}_d / {q}_b > {c}) AND {q}_a - {p}_a < 1)"),
        format!("{p}_k < 0"),
    ];
    let sql = &shapes[rng.gen_range(0..shapes.len())];
    parse_predicate(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// A random subset of `table`'s columns in random order.
fn some_columns(rng: &mut StdRng, names: &[String]) -> Vec<String> {
    let mut names = names.to_vec();
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    names.truncate(rng.gen_range(0..=names.len()));
    names
}

/// Case `case` of the corpus: its database, its plan, and a plan of
/// another shape over the same database.
fn build_case(case: u64, gen_preds: &[Pred]) -> (Database, Plan, Plan) {
    let rng = &mut StdRng::seed_from_u64(0xD1FF ^ case);
    // Mostly tiny tables (the nested-loop reference is quadratic), empty
    // ones included; now and then one long enough to cross chunk edges.
    let size = |rng: &mut StdRng| match rng.gen_range(0..10u32) {
        0 => 0,
        1 => 1,
        2 => rng.gen_range(2040usize..5000),
        _ => rng.gen_range(2usize..60),
    };
    let mut db = Database::new();
    for p in ["t", "u", "v"] {
        let rows = size(rng);
        db.insert(p, random_table(rng, p, rows));
    }
    let wide = sia_gen::table("wide").expect("registry table");
    let rows = wide.sample(size(rng), case);
    db.insert("wide", Table::from_rows(wide.schema(), &rows));

    let shape = rng.gen_range(0..SHAPES);
    let plan = build_plan(rng, shape, gen_preds);
    let other_shape = (shape + rng.gen_range(1..SHAPES)) % SHAPES;
    let other = build_plan(rng, other_shape, gen_preds);
    (db, plan, other)
}

const SHAPES: u32 = 8;

/// A plan of shape `shape` over the tables [`build_case`] inserts.
fn build_plan(rng: &mut StdRng, shape: u32, gen_preds: &[Pred]) -> Plan {
    let scan = Plan::scan;
    let gen_pred = |rng: &mut StdRng| gen_preds[rng.gen_range(0..gen_preds.len())].clone();
    match shape {
        0 => scan("t"),
        1 => scan("t").filter(hand_pred(rng, "t", "t")),
        2 => scan("wide").filter(gen_pred(rng)),
        3 => {
            let joined = scan("t")
                .filter(hand_pred(rng, "t", "t"))
                .hash_join(scan("u").filter(hand_pred(rng, "u", "u")), "t_k", "u_k")
                .filter(hand_pred(rng, "t", "u"));
            let names: Vec<String> = ["t_k", "t_a", "t_b", "t_d", "u_k", "u_a", "u_b", "u_d"]
                .iter()
                .map(ToString::to_string)
                .collect();
            joined.project(some_columns(rng, &names))
        }
        4 => {
            let third_key = ["t_a", "u_k", "u_b"][rng.gen_range(0..3usize)];
            let mut plan = scan("t").hash_join(scan("u"), "t_k", "u_k");
            if rng.gen_bool_fair() {
                plan = plan.filter(hand_pred(rng, "u", "t"));
            }
            plan = plan.hash_join(scan("v").filter(hand_pred(rng, "v", "v")), third_key, "v_k");
            if rng.gen_bool_fair() {
                plan = plan.filter(hand_pred(rng, "v", "t"));
            }
            plan
        }
        5 => scan("u")
            .hash_join(scan("t"), "u_a", "t_k")
            .filter(hand_pred(rng, "t", "u")),
        6 => scan("wide")
            .filter(gen_pred(rng))
            .hash_join(scan("u"), "w_i0", "u_k")
            .filter(hand_pred(rng, "u", "u")),
        _ => scan("t")
            .filter(hand_pred(rng, "t", "t"))
            .filter(hand_pred(rng, "t", "t"))
            .project(vec!["t_d".to_string(), "t_k".to_string()]),
    }
}

/// Run `plan` on `db` and hold it to the reference: schema, every cell in
/// order, and all four counters.
fn check(case: u64, plan: &Plan, db: &Database) -> (Table, ExecStats) {
    let (got, _, got_stats) =
        execute(plan, db).unwrap_or_else(|e| panic!("case {case}: {e}\n{plan}"));
    let mut want_stats = ExecStats::default();
    let want = reference(plan, db, &mut want_stats);
    assert_eq!(got.schema, want.schema, "case {case}\n{plan}");
    // Debug text, so that NaN cells compare equal to themselves.
    let (got_rows, want_rows) = (rows_of(&got), rows_of(&want));
    assert_eq!(got_rows.len(), want_rows.len(), "case {case}\n{plan}");
    for (i, (g, w)) in got_rows.iter().zip(&want_rows).enumerate() {
        assert_eq!(
            format!("{g:?}"),
            format!("{w:?}"),
            "case {case} row {i}\n{plan}"
        );
    }
    assert_eq!(got_stats, want_stats, "case {case}\n{plan}");
    (got, got_stats)
}

fn run_corpus(cases: u64) {
    let gen_preds: Vec<Pred> = sia_gen::generate(&GenConfig {
        table: "wide".to_string(),
        count: 48,
        seed: 0xD1FF,
        ..GenConfig::default()
    })
    .expect("generator config is valid")
    .into_iter()
    .map(|r| r.predicate)
    .collect();
    let (mut nonempty, mut joined) = (0, 0);
    for case in 0..cases {
        let (db, plan, other) = build_case(case, &gen_preds);
        let (got, got_stats) = check(case, &plan, &db);
        // The database's scratch buffers now hold what this plan left in
        // them; a plan of another shape reuses and refills them, and none
        // of it may reach the plan's second run. (The other plan is only
        // run: its reference can be a quadratic join of the long tables.)
        execute(&other, &db).unwrap_or_else(|e| panic!("case {case}: {e}\n{other}"));
        check(case, &plan, &db);
        nonempty += u64::from(got.num_rows() > 0);
        joined += u64::from(got_stats.join_output_rows > 0);
    }
    // The corpus is not vacuous: results and join matches are common, and
    // so are empty results.
    assert!(
        nonempty * 4 >= cases && nonempty < cases,
        "{nonempty} of {cases}"
    );
    assert!(
        joined * 5 >= cases,
        "{joined} of {cases} cases joined anything"
    );
}

#[test]
fn executor_matches_the_reference_on_200_cases() {
    run_corpus(200);
}

#[test]
#[ignore = "the long run: cargo test --release -p sia-engine --test exec_diff -- --include-ignored"]
fn executor_matches_the_reference_on_5000_cases() {
    run_corpus(5000);
}

/// Equal inputs decide the build side (the left) and with it the row
/// order; the corpus's sizes rarely tie with matches that survive to the
/// result, so the tie gets cases of its own.
#[test]
fn equal_inputs_build_on_the_left() {
    for seed in 0..20 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        db.insert("t", random_table(rng, "t", 8));
        db.insert("u", random_table(rng, "u", 8));
        let plan = Plan::scan("t").hash_join(Plan::scan("u"), "t_k", "u_k");
        let (got, _, _) = execute(&plan, &db).expect("runs");
        let want = reference(&plan, &db, &mut ExecStats::default());
        let (got, want) = (rows_of(&got), rows_of(&want));
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed}");
    }
}
