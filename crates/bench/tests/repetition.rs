//! The generator's repetition knob, end to end: sweeping `repeat_rate`
//! must move the serve-side cache hit rate monotonically upward. Lives
//! here because `sia-bench` is the only crate that sees both `sia-gen`
//! and `sia-serve`.

use sia_bench::load;
use sia_gen::{GenConfig, ZonePolicy};
use sia_serve::{client, server, Request, ServeConfig};

const WORKERS: usize = 2;

/// Serve-side cache hit rate for one generated workload.
fn hit_rate_for(cfg: &GenConfig) -> f64 {
    let reqs: Vec<Request> = sia_gen::generate(cfg)
        .expect("valid config")
        .iter()
        .map(|g| load::request(g, Some(30_000)))
        .collect();
    let handle = server::start(ServeConfig {
        workers: WORKERS,
        cache_capacity: 1024,
        queue_depth: reqs.len().max(64),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    client::run_batch(&addr, &reqs, WORKERS * 2).expect("batch completes");
    let rate = handle.cache().stats().hit_rate();
    handle.shutdown().expect("clean shutdown");
    rate
}

#[test]
fn hit_rate_is_monotone_in_repeat_rate() {
    let sweep = [0.0, 0.5, 0.9].map(|repeat_rate| {
        hit_rate_for(&GenConfig {
            count: 60,
            repeat_rate,
            zone: ZonePolicy::Eligible,
            min_terms: 2,
            max_terms: 3,
            seed: 0x51A_4EBE,
            ..GenConfig::default()
        })
    });
    for pair in sweep.windows(2) {
        assert!(
            pair[1] >= pair[0] - 0.02,
            "hit rate not monotone in repeat_rate: {sweep:?}"
        );
    }
    assert!(
        sweep[2] >= sweep[0] + 0.2,
        "repeat_rate sweep barely moved the hit rate: {sweep:?}"
    );
}
