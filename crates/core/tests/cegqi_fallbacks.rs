//! `cegis.cegqi_fallbacks` counts the runs whose FALSE samples came from
//! CEGQI, once per run. The `sia-obs` collector is process-wide, so this
//! lives alone in its own test binary — one `#[test]`, nothing to race with.

use sia_core::{SiaConfig, Synthesizer};
use sia_obs::Counter;
use sia_sql::parse_predicate;

fn fallbacks(predicate: &str, col: &str) -> u64 {
    sia_obs::reset();
    sia_obs::enable();
    let p = parse_predicate(predicate).unwrap();
    Synthesizer::new(SiaConfig::default())
        .synthesize(&p, &[col.to_string()])
        .unwrap();
    sia_obs::disable();
    sia_obs::snapshot().counter(Counter::CegisCegqiFallbacks)
}

#[test]
fn a_run_that_switches_to_cegqi_is_counted_once() {
    // Sampling the eliminated region answers `Unknown`, and the rest of
    // the run samples through CEGQI.
    assert_eq!(
        fallbacks(
            "2 * n_nationkey <= 5 * r_name AND r_name <= 3",
            "n_nationkey"
        ),
        1
    );
    assert_eq!(fallbacks("a + a + 10 > b + 20 AND b + 10 > 20", "a"), 0);
}
