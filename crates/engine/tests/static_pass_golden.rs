//! The static pass's output, pinned at the commit before `Closure` began
//! building its abstract state once per query: what
//! `Database::optimized_plan` reports derived (and whether it finds a
//! contradiction) for `engine_join`'s 41 queries and `engine_synth`'s 16
//! templates in `Static` mode, and what `close` →
//! `contradictory` / `entailed_over` answer for 200 seeded `sia-gen`
//! conjunctions over every single column and each table's column set
//! (and `contradictory` again with an entailed conjunct negated).
//! Any restructuring of `sia_analyze::Closure` or the pass must reproduce
//! `static_pass.golden` byte for byte.
//!
//! The queries are read from the golden file's `Q` lines (their SQL as
//! `sia-perf` submits it under its bed seed); everything else in the file
//! is regenerated and compared. On a mismatch the regenerated text is left
//! in cargo's `target/tmp`.

use std::fmt::Write as _;

use sia_analyze::Analyzer;
use sia_engine::{Database, MoveAround, OptimizerConfig, Table};
use sia_expr::{col, Pred, Schema};
use sia_gen::GenConfig;

const GOLDEN: &str = include_str!("static_pass.golden");

/// Seed of the generated conjunctions.
const SEED: u64 = 0x60_1D;

/// The whole `sia-gen` registry, no rows: planning reads schemas only.
fn empty_db() -> Database {
    let mut db = Database::new();
    for spec in sia_gen::tables() {
        db.insert(spec.name, Table::from_rows(spec.schema(), &[]));
    }
    db
}

fn plans(out: &mut String) {
    let db = empty_db();
    let config = OptimizerConfig {
        move_around: MoveAround::Static,
    };
    for sql in GOLDEN.lines().filter_map(|l| l.strip_prefix("Q ")) {
        let query = sia_sql::parse_query(sql).expect("golden SQL parses");
        let (_, report) = db.optimized_plan(&query, config).expect("golden SQL plans");
        writeln!(out, "Q {sql}").unwrap();
        writeln!(out, "  contradiction: {}", report.contradiction).unwrap();
        for (table, pred) in &report.derived {
            writeln!(out, "  derived {table}: {pred}").unwrap();
        }
    }
}

/// A `lineitem` conjunction and an `orders` conjunction (IN-lists and
/// nested groups included) under the two equalities that tie the tables.
fn conjunctions() -> Vec<Pred> {
    let side = |table: &str, seed: u64| {
        sia_gen::generate(&GenConfig {
            table: table.into(),
            count: 200,
            seed,
            cnf_weight: 1.0,
            ..GenConfig::default()
        })
        .expect("valid generator config")
    };
    let join = col("l_orderkey")
        .eq_(col("o_orderkey"))
        .and(col("l_orderdate").eq_(col("o_orderdate")));
    side("lineitem", SEED)
        .into_iter()
        .zip(side("orders", SEED + 1))
        .map(|(l, o)| join.clone().and(l.predicate).and(o.predicate))
        .collect()
}

fn closures(out: &mut String) {
    let schemas: Vec<(&str, Schema)> = ["lineitem", "orders"]
        .into_iter()
        .map(|t| (t, sia_gen::table(t).expect("registry table").schema()))
        .collect();
    let an = Analyzer::with_schemas(schemas.iter().map(|(_, s)| s));
    for p in conjunctions() {
        let cl = an.close(&p);
        writeln!(out, "P {p}").unwrap();
        writeln!(out, "  contradictory: {}", cl.contradictory()).unwrap();
        for (table, schema) in &schemas {
            let cols: Vec<String> = schema.columns().iter().map(|c| c.name.clone()).collect();
            for c in &cols {
                let e = cl.entailed_over(&an, std::slice::from_ref(c));
                if !e.is_true() {
                    writeln!(out, "  {c} => {e}").unwrap();
                }
            }
            let e = cl.entailed_over(&an, &cols);
            writeln!(out, "  {table}.* => {e}").unwrap();
            // `p` with an entailed conjunct negated admits no row; whether
            // the closure sees that is part of what is pinned.
            if let Some(c) = e.conjuncts().into_iter().find(|c| !c.is_true()) {
                let refuted = an.close(&p.clone().and(c.clone().not().nnf()));
                writeln!(
                    out,
                    "  NOT ({c}) contradictory: {}",
                    refuted.contradictory()
                )
                .unwrap();
            }
        }
    }
}

#[test]
fn static_pass_output_is_byte_identical_to_the_golden() {
    let mut actual = String::new();
    plans(&mut actual);
    closures(&mut actual);
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("static_pass.golden");
        std::fs::write(&path, &actual).expect("write the regenerated golden");
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or(actual.lines().count().min(GOLDEN.lines().count()), |i| i)
            + 1;
        panic!(
            "static pass output drifted from static_pass.golden at line {line}; \
             regenerated text is in {}",
            path.display()
        );
    }
}
