//! Plan-equivalence suite for the move-around pass: the same query on
//! seeded `sia-gen` data must return identical result sets with the pass
//! off, static, and static+synthesis — while strictly increasing the
//! number of filters sitting below joins on the snippet-1 chain plan —
//! and every predicate the pass pushes must be implied, by the solver's
//! judgement, by what held above the scans.

use sia_core::{verify_implies, PredEncoder, Validity};
use sia_engine::{Database, MoveAround, OptimizerConfig, QueryResult, Table};
use sia_expr::Value;

/// A database with the full sia-gen registry loaded, `rows(table)` rows
/// per table (keys are drawn from narrow ranges so joins actually match).
fn gen_db(seed: u64, rows: impl Fn(&str) -> usize) -> Database {
    let mut db = Database::new();
    for spec in sia_gen::tables() {
        let data = spec.sample(rows(spec.name), seed ^ u64::from(spec.name.len() as u32));
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

/// Run `sql` with the pass off, static and with synthesis, and assert the
/// three return the same rows.
fn same_rows(db: &Database, sql: &str) -> [QueryResult; 3] {
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
    [off, st, syn]
}

/// Solver-check every predicate the pass attached: the gathered
/// conjunction (filters plus join equalities, exactly what held above
/// the scans) must imply each of them. Returns how many were checked.
fn audit(r: &QueryResult) -> usize {
    let gathered = r.moved.gathered_conjunction();
    let derived = r.moved.derived.iter().map(|(t, p)| (t, p));
    let synthesized = r.moved.synthesized.iter().map(|s| (&s.table, &s.pred));
    let pushes: Vec<_> = derived.chain(synthesized).collect();
    for (table, pred) in &pushes {
        let verdict = verify_implies(&mut PredEncoder::new(), &gathered, pred);
        assert_eq!(
            verdict,
            Ok(Validity::Valid),
            "unsound push at {table}: `{gathered}` does not imply `{pred}`"
        );
    }
    pushes.len()
}

/// [`same_rows`], then [`audit`] the static and synthesis runs.
fn assert_equivalent(db: &Database, sql: &str) {
    let [_, st, syn] = same_rows(db, sql);
    audit(&st);
    audit(&syn);
}

#[test]
fn chain_join_results_identical_across_modes() {
    // Narrow keys (nation/region) so a three-table chain has matches.
    let db = gen_db(11, |_| 256);
    assert_equivalent(
        &db,
        "SELECT * FROM customer, nation, region \
         WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
         AND r_regionkey <= 2",
    );
}

#[test]
fn star_join_results_identical_across_modes() {
    let db = gen_db(23, |_| 256);
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
    let db = gen_db(3, |_| 200);
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
///
/// Rows only, no [`audit`]: the static pass derives `b / 2 <= 10` for t2,
/// sound by substitution, but the encoder keeps every quotient an opaque
/// term of its own, so the solver finds a model of the refutation with
/// `(a / 2)` and `(b / 2)` apart although `a = b` (ROADMAP 1(c)).
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
        same_rows(&db, &sql);
    }
}

#[test]
fn equality_classes_propagate_point_constraints() {
    // A point constraint on one side of an equality class reaches the
    // other side: n_regionkey = r_regionkey ∧ r_regionkey = 4 derives
    // n_regionkey = 4 at the nation scan.
    let db = gen_db(29, |_| 200);
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

/// The three join workloads, at TPC-H proportions (below). `chain` is the
/// snippet-1 shape: a key chain where one selective bound must travel
/// through two equivalence classes to reach every scan. `star` is a hub
/// table whose key bound reaches each spoke. `synth` carries a predicate
/// over `r_name` — a column in no equivalence class, so neither
/// substitution nor the zone closure can project it onto the nation
/// scan — only synthesis (its exact-shadow exit) can compress
/// `2*n_nationkey <= 5*r_name ∧ r_name <= 3` to the scan-local bound
/// `n_nationkey <= 7`.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "chain",
        "SELECT * FROM customer, nation, region, supplier \
         WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
         AND n_nationkey = s_nationkey AND s_nationkey <= 7",
    ),
    (
        "star",
        "SELECT * FROM nation, customer, supplier \
         WHERE n_nationkey = c_nationkey AND n_nationkey = s_nationkey \
         AND n_nationkey < 12",
    ),
    (
        "synth",
        "SELECT * FROM nation, region \
         WHERE n_regionkey = r_regionkey AND 2 * n_nationkey <= 5 * r_name \
         AND r_name <= 3",
    ),
];

/// Share of `base` that `base - after` is.
fn cut(base: u64, after: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let share = base.saturating_sub(after) as f64 / base.max(1) as f64;
    share
}

/// The workloads keep their rows in every mode, a repeat answers every
/// boundary synthesis from the cache with the same plan, every push is
/// solver-checked, the static pass alone cuts the chain's rows into joins
/// by at least 30 %, and at least one scan is reachable only through
/// synthesis. `--nocapture` shows the cuts and each synthesis-mode run as
/// executed.
#[test]
fn join_workloads_cut_join_inputs_with_sound_pushes() {
    // Dimension tables stay at catalog size so joins match richly
    // without blowing up intermediate results.
    let db = gen_db(0xE17, |table| match table {
        "nation" => 50,
        "region" => 10,
        _ => 600,
    });
    let (mut saved, mut checked, mut synth_only) = (0, 0, 0);
    let mut chain_cut = 0.0;
    for (name, sql) in WORKLOADS {
        let [off, st, syn] = same_rows(&db, sql);
        let q = sia_sql::parse_query(sql).expect("parse");
        let repeat = db.run(&q, config(MoveAround::Synthesis)).expect("repeat");
        assert_eq!(sorted_rows(&repeat), sorted_rows(&off), "{name} repeat");
        assert_eq!(repeat.plan, syn.plan, "{name} repeat plan");
        assert_eq!(repeat.moved.synthesis_misses, 0, "{name} repeat missed");
        checked += [&st, &syn, &repeat].map(audit).iter().sum::<usize>();

        let base = off.stats.join_input_rows;
        let (static_rows, synth_rows) = (st.stats.join_input_rows, syn.stats.join_input_rows);
        if name == "chain" {
            chain_cut = cut(base, static_rows);
        }
        saved += base.saturating_sub(synth_rows);
        // Scans the static run derived nothing for but synthesis pushed to.
        synth_only += syn
            .moved
            .synthesized
            .iter()
            .filter(|s| !st.moved.derived.iter().any(|(dt, _)| *dt == s.table))
            .count();
        println!(
            "{name}: rows-into-joins {base} -> {static_rows} static ({:.1}% cut) -> \
             {synth_rows} with synthesis ({:.1}% cut) | {} derived, {} synthesized",
            100.0 * cut(base, static_rows),
            100.0 * cut(base, synth_rows),
            st.moved.derived.len(),
            syn.moved.synthesized.len(),
        );
        print!(
            "{name}, move-around with synthesis, as executed:\n{}",
            syn.explain_analyze()
        );
    }
    println!(
        "total: {saved} join input rows saved | {checked} pushes solver-checked, 0 unsound | \
         {synth_only} scan(s) reachable only via synthesis"
    );
    assert!(
        chain_cut >= 0.30,
        "static move-around cut only {:.1}% of rows into joins on chain (need >= 30%)",
        100.0 * chain_cut
    );
    assert!(
        synth_only >= 1,
        "no scan was reachable only through synthesis: synth lost its blocked join boundary"
    );
}

/// The eight `engine_synth` templates, each at two constants: a
/// cross-table conjunct with a non-unit coefficient over two (or three)
/// tables. Every column is a registry INTEGER or DATE, so each boundary is
/// answered by Cooper's projection or its exact shadow.
const SYNTH_TEMPLATES: [(&str, &str, [&str; 2]); 8] = [
    (
        "nation, region",
        "n_regionkey = r_regionkey AND 2 * n_nationkey <= 5 * r_name AND r_name <= {}",
        ["3", "2"],
    ),
    (
        "customer, nation",
        "c_nationkey = n_nationkey AND 2 * c_mktsegment <= 3 * n_regionkey AND n_regionkey <= {}",
        ["2", "1"],
    ),
    (
        "supplier, nation",
        "s_nationkey = n_nationkey AND 3 * s_suppkey <= 7 * n_name AND n_name <= {}",
        ["10", "8"],
    ),
    (
        "lineitem, orders",
        "o_orderkey = l_orderkey AND 3 * l_quantity + l_linenumber <= o_orderdate - 8000 \
         AND o_orderdate < DATE '{}'",
        ["1992-03-01", "1992-02-01"],
    ),
    (
        "lineitem, orders",
        "o_orderkey = l_orderkey AND 2 * l_shipdate >= 3 * o_orderdate - 2000 \
         AND o_orderdate > DATE '{}'",
        ["1997-01-01", "1997-06-01"],
    ),
    (
        "partsupp, supplier",
        "ps_suppkey = s_suppkey AND 2 * ps_availqty <= 5 * s_nationkey AND s_nationkey <= {}",
        ["8", "6"],
    ),
    (
        "customer, nation, region",
        "c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
         AND 2 * c_mktsegment <= 3 * r_name AND r_name <= {}",
        ["2", "1"],
    ),
    (
        "lineitem, orders",
        "o_orderkey = l_orderkey AND l_shipdate + l_commitdate <= 2 * o_orderdate + {} \
         AND o_orderdate < DATE '1994-01-01'",
        ["100", "90"],
    ),
];

/// Every `engine_synth` template keeps its rows in all three modes, and
/// every push it gets is solver-checked. `--nocapture` prints what each
/// synthesis run pushed.
#[test]
fn engine_synth_templates_keep_their_rows_in_every_mode() {
    // `orders` and `lineitem` from the TPC-H generator, whose keys join
    // (independently sampled ones almost never do); the rest sampled.
    let mut db = sia_gen::tpch::generate(&sia_gen::tpch::TpchConfig {
        scale_factor: 0.002,
        seed: 1,
    });
    for spec in sia_gen::tables() {
        let n = match spec.name {
            "orders" | "lineitem" | "wide" => continue,
            "nation" => 50,
            "region" => 10,
            _ => 400,
        };
        let data = spec.sample(n, 0x5E7 ^ spec.name.len() as u64);
        db.insert(spec.name, Table::from_rows(spec.schema(), &data));
    }
    for (tables, filter, constants) in SYNTH_TEMPLATES {
        for k in constants {
            let sql = format!("SELECT * FROM {tables} WHERE {}", filter.replace("{}", k));
            let [off, st, syn] = same_rows(&db, &sql);
            audit(&st);
            audit(&syn);
            let pushed: Vec<String> = syn
                .moved
                .synthesized
                .iter()
                .map(|s| format!("{}: {}", s.table, s.pred))
                .collect();
            println!(
                "{sql}\n  {} rows, join input {} off -> {} synthesis; synthesized [{}]",
                off.table.num_rows(),
                off.stats.join_input_rows,
                syn.stats.join_input_rows,
                pushed.join("; ")
            );
        }
    }
}

/// An INTEGER boundary and the same shape over a DOUBLE kept column, in one
/// `Database` whose synthesis cache would otherwise hand the second the
/// first's answer: `2 * n_nationkey <= 5 * r_name AND r_name <= 3` projects
/// exactly to `n_nationkey <= 7`, which over a DOUBLE `pp` would cut the row
/// with `pp = 7.5`, `r = 3`. The cache key carries the column types, and
/// the exact shadow answers only declared-integral columns, so every mode
/// keeps that row.
#[test]
fn an_int_answer_is_never_served_to_a_double_column() {
    let mut db = gen_db(0xE17, |table| match table {
        "nation" => 50,
        "region" => 10,
        _ => 0,
    });
    let int_sql = "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey \
                   AND 2 * n_nationkey <= 5 * r_name AND r_name <= 3";
    let [_, _, syn] = same_rows(&db, int_sql);
    assert!(
        syn.moved
            .synthesized
            .iter()
            .any(|s| s.table == "nation" && s.pred.to_string() == "n_nationkey <= 7"),
        "{}",
        syn.moved
    );
    let schema = |cols: [(&str, sia_expr::DataType); 2]| {
        sia_expr::Schema::new(
            cols.iter()
                .map(|(c, ty)| sia_expr::ColumnDef::new(*c, *ty))
                .collect(),
        )
    };
    let t = schema([
        ("k", sia_expr::DataType::Integer),
        ("pp", sia_expr::DataType::Double),
    ]);
    let u = schema([
        ("j", sia_expr::DataType::Integer),
        ("r", sia_expr::DataType::Integer),
    ]);
    let t_rows: Vec<Vec<Value>> = [(1, 7.5), (2, 7.0), (3, 8.0), (4, -1.5)]
        .iter()
        .map(|&(k, p)| vec![Value::Int(k), Value::Double(p)])
        .collect();
    let u_rows: Vec<Vec<Value>> = [(1, 3), (2, 3), (3, 3), (4, 0)]
        .iter()
        .map(|&(j, r)| vec![Value::Int(j), Value::Int(r)])
        .collect();
    db.insert("t", Table::from_rows(t, &t_rows));
    db.insert("u", Table::from_rows(u, &u_rows));
    let double_sql = "SELECT * FROM t, u WHERE k = j AND 2 * pp <= 5 * r AND r <= 3";
    let [off, _, syn] = same_rows(&db, double_sql);
    assert_eq!(off.table.num_rows(), 3, "{}", off.plan);
    assert!(
        syn.moved
            .synthesized
            .iter()
            .all(|s| s.pred.to_string() != "pp <= 7"),
        "{}",
        syn.moved
    );
}
