//! Property suite for the workload generator: every generated predicate
//! parses, canonicalizes idempotently, type-checks against its schema, and
//! respects the selectivity / zone / repetition knobs; generation is fully
//! deterministic under a fixed seed.

use sia_analyze::Analyzer;
use sia_cache::canonicalize;
use sia_expr::{ArithOp, Expr, Pred};
use sia_gen::{generate, schemas, table, GenConfig, ZonePolicy};
use sia_sql::parse_predicate;

/// A spread of configs covering the knob space.
fn configs() -> Vec<GenConfig> {
    let mut configs = vec![
        GenConfig {
            count: 20,
            ..GenConfig::default()
        },
        GenConfig {
            table: "wide".to_string(),
            count: 20,
            null_weight: 0.5,
            in_list_rate: 0.4,
            seed: 0x71DE,
            ..GenConfig::default()
        },
        GenConfig {
            table: "part".to_string(),
            count: 15,
            zone: ZonePolicy::Eligible,
            cnf_weight: 0.3,
            seed: 7,
            ..GenConfig::default()
        },
        GenConfig {
            count: 15,
            zone: ZonePolicy::Ineligible,
            div_rate: 0.6,
            seed: 99,
            ..GenConfig::default()
        },
        GenConfig {
            table: "orders".to_string(),
            count: 20,
            target_selectivity: Some(0.3),
            selectivity_tolerance: 0.12,
            repeat_rate: 0.3,
            seed: 0x5EED,
            ..GenConfig::default()
        },
    ];
    // The remaining TPC-H tables, each from its own stream.
    let rest = ["partsupp", "customer", "supplier", "nation", "region"];
    configs.extend(rest.iter().zip(1u64..).map(|(t, i)| GenConfig {
        table: t.to_string(),
        count: 10,
        seed: 0x51A_57A2 ^ i,
        ..GenConfig::default()
    }));
    configs
}

#[test]
fn every_predicate_parses_and_round_trips() {
    for cfg in configs() {
        for r in generate(&cfg).unwrap() {
            let text = r.predicate.to_string();
            let parsed = parse_predicate(&text)
                .unwrap_or_else(|e| panic!("generated predicate must parse: {e}: {text}"));
            assert_eq!(parsed.to_string(), text, "Display/parse fixpoint");
            assert!(!r.cols.is_empty(), "request must name target columns");
        }
    }
}

#[test]
fn canonicalization_is_idempotent() {
    for cfg in configs() {
        for r in generate(&cfg).unwrap() {
            let canon = canonicalize(&r.predicate);
            let again = canonicalize(&canon.reconstruct());
            assert_eq!(
                canon.key_fragment(),
                again.key_fragment(),
                "canonical fixpoint for {}",
                r.predicate
            );
        }
    }
}

#[test]
fn predicates_type_check_against_the_registry() {
    let analyzer = schemas()
        .iter()
        .fold(Analyzer::new(), |a, (_, s)| a.with_schema(s));
    for cfg in configs() {
        let spec = table(&cfg.table).unwrap();
        let schema = spec.schema();
        for r in generate(&cfg).unwrap() {
            // Every referenced column exists in the request's table…
            for c in &r.cols {
                assert!(
                    schema.column(c).is_some(),
                    "unknown column {c} in table {}",
                    cfg.table
                );
            }
            // …and the registry-seeded linter finds nothing type-suspect.
            let suspects: Vec<String> = analyzer
                .lint(&r.predicate)
                .into_iter()
                .filter(|w| w.code == "type-suspect")
                .map(|w| w.message)
                .collect();
            assert!(suspects.is_empty(), "{}: {suspects:?}", r.predicate);
        }
    }
}

#[test]
fn targeted_selectivity_lands_within_tolerance() {
    let cfg = GenConfig {
        count: 25,
        target_selectivity: Some(0.3),
        selectivity_tolerance: 0.15,
        seed: 0x5E1,
        ..GenConfig::default()
    };
    for r in generate(&cfg).unwrap() {
        let est = r.est_selectivity.expect("fresh requests are measured");
        assert!(
            (est - 0.3).abs() <= 0.15,
            "{} landed at {est}, outside 0.3±0.15",
            r.id
        );
    }
}

#[test]
fn same_seed_same_workload_different_seed_differs() {
    let cfg = GenConfig {
        count: 30,
        repeat_rate: 0.4,
        drift_rate: 0.3,
        target_selectivity: Some(0.25),
        ..GenConfig::default()
    };
    let a = generate(&cfg).unwrap();
    let b = generate(&cfg).unwrap();
    assert_eq!(a, b, "same seed + config must be byte-identical");
    let c = generate(&GenConfig {
        seed: cfg.seed + 1,
        ..cfg
    })
    .unwrap();
    assert_ne!(a, c, "a different seed must move the workload");
}

/// Structural zone-eligibility: unit-coefficient bounds and differences only.
fn expr_is_zone_eligible(e: &Expr) -> bool {
    match e {
        Expr::Column(_) | Expr::Int(_) | Expr::Double(_) | Expr::Date(_) => true,
        Expr::Binary { op, lhs, rhs } => match op {
            ArithOp::Sub => matches!(&**lhs, Expr::Column(_)) && matches!(&**rhs, Expr::Column(_)),
            _ => false,
        },
    }
}

fn pred_atoms(p: &Pred, out: &mut Vec<(Expr, Expr)>) {
    match p {
        Pred::Lit(_) => {}
        Pred::Cmp { lhs, rhs, .. } => out.push((lhs.clone(), rhs.clone())),
        Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|q| pred_atoms(q, out)),
        Pred::Not(q) => pred_atoms(q, out),
    }
}

#[test]
fn zone_knob_controls_static_derivability() {
    // Eligible: every atom stays in the difference-bound fragment.
    let eligible = GenConfig {
        count: 20,
        zone: ZonePolicy::Eligible,
        seed: 11,
        ..GenConfig::default()
    };
    for r in generate(&eligible).unwrap() {
        let mut atoms = Vec::new();
        pred_atoms(&r.predicate, &mut atoms);
        for (lhs, rhs) in atoms {
            assert!(
                expr_is_zone_eligible(&lhs) && expr_is_zone_eligible(&rhs),
                "ineligible atom in eligible workload: {} in {}",
                lhs,
                r.predicate
            );
        }
    }
    // Ineligible: static derivation must never produce an exact result, so
    // the synthesizer cannot discharge the request without learner/solver work.
    let ineligible = GenConfig {
        count: 20,
        zone: ZonePolicy::Ineligible,
        seed: 12,
        ..GenConfig::default()
    };
    let analyzer = Analyzer::new();
    for r in generate(&ineligible).unwrap() {
        let exact = analyzer
            .derive(&r.predicate, &r.cols)
            .is_some_and(|d| d.is_exact());
        assert!(
            !exact,
            "static derivation was exact for a zone-ineligible predicate: {}",
            r.predicate
        );
    }
}

#[test]
fn repetition_replays_templates_and_drift_keeps_the_canonical_shape() {
    let cfg = GenConfig {
        count: 40,
        repeat_rate: 0.6,
        drift_rate: 0.5,
        seed: 0xCAFE,
        ..GenConfig::default()
    };
    let reqs = generate(&cfg).unwrap();
    let repeats = reqs.iter().filter(|r| r.template.is_some()).count();
    assert!(repeats >= 10, "repeat_rate 0.6 produced only {repeats}/40");
    let mut verbatim = 0;
    for r in &reqs {
        let Some(j) = r.template else { continue };
        let orig = &reqs[j];
        let (a, b) = (canonicalize(&r.predicate), canonicalize(&orig.predicate));
        assert_eq!(
            a.template.to_string(),
            b.template.to_string(),
            "a repeat must share its template's canonical shape"
        );
        if r.predicate == orig.predicate {
            verbatim += 1;
        }
    }
    assert!(verbatim > 0, "some repeats must be verbatim (cache hits)");
    // With drift off, every repeat is verbatim.
    let no_drift = GenConfig {
        drift_rate: 0.0,
        ..cfg
    };
    let plain = generate(&no_drift).unwrap();
    for r in &plain {
        if let Some(j) = r.template {
            assert_eq!(r.predicate, plain[j].predicate);
        }
    }
}
