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
    let pushes: Vec<_> = r.moved.derived.iter().chain(&r.moved.synthesized).collect();
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
/// scan — only CEGIS synthesis can compress `2*n_nationkey <= 5*r_name ∧
/// r_name <= 3` to the scan-local bound `n_nationkey <= 7`.
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
            .filter(|(t, _)| !st.moved.derived.iter().any(|(dt, _)| dt == t))
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
