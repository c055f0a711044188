//! The `serve` gate: throughput and latency of the synthesis service on
//! the §6.3 preset with repeated predicate *shapes*. Half of the repeats
//! are alpha-renamed (uniform column prefix), so cache hits come from
//! canonicalization rather than from byte-identical requests — the
//! scenario `sia-cache` is built for. Results land in `BENCH_serve.json`.
//!
//! Three phases share the workload:
//!
//! 1. **Closed-loop throughput**, cached vs uncached: drive the batch
//!    client as fast as it will go. The cached server is first warmed
//!    with each shape's first request, so its timed pass measures the
//!    cache rather than waiting on one synthesis of the slowest shape.
//!    Gates: every timed cached request hits — the alpha-renamed
//!    repeats only through canonicalization — and the canonicalizing
//!    cache buys at least [`MIN_SPEEDUP`].
//! 2. **Open-loop load** at each of [`RATES`] against a warmed cached
//!    server, attributing wall time to server phases from the
//!    per-response breakdowns. Gates: p99 at the lowest rate within
//!    [`P99_BUDGET_US`], and at least [`MIN_COVERAGE`] of server wall
//!    time attributed at every rate.
//! 3. **Overload sweep** at [`OVERLOAD_MULTS`] × the measured uncached
//!    saturation against an overload-hardened server (adaptive
//!    admission, two-lane shedding, brownout) with a retry-budgeted
//!    client pipelining its arrivals over a fixed set of connections
//!    (thousands of requests a second, where a thread and a connection
//!    per arrival would swamp the client). Gates: nothing lost, retries
//!    within the 10 % budget, and goodput at the highest multiple at
//!    least [`GOODPUT_FRAC`] of the first — overload sheds load, it does
//!    not collapse throughput.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sia_cache::CacheStats;
use sia_gen::tpch::ORDERS_COL;
use sia_serve::{client, server, Request, RetryBudget, ServeConfig, Status};

use crate::load::{self, percentile, Answer, Arrival};
use crate::{util, Gates};

const SHAPES: usize = 8;
const REPS: usize = 8;
const WORKERS: usize = 4;
/// Cached over uncached closed-loop throughput.
pub const MIN_SPEEDUP: f64 = 2.0;
/// Offered open-loop rates, req/s.
pub const RATES: [f64; 2] = [40.0, 160.0];
const LOAD_SECS: f64 = 3.0;
/// Latency budget for the lowest offered rate, µs.
pub const P99_BUDGET_US: f64 = 500_000.0;
/// Share of server wall time the phase breakdowns must account for.
pub const MIN_COVERAGE: f64 = 0.95;
/// Multiples of saturation the overload sweep offers.
pub const OVERLOAD_MULTS: [f64; 2] = [1.0, 2.0];
const OVERLOAD_SECS: f64 = 3.0;
/// Client connections the overload sweep pipelines its arrivals over,
/// one per worker.
const OVERLOAD_CONNS: usize = WORKERS;
const DEADLINE: Duration = Duration::from_millis(1000);
/// Client retry-token earn rate per fresh request.
const RETRY_BUDGET: f64 = 0.1;
/// Goodput at the highest multiple over goodput at the first.
pub const GOODPUT_FRAC: f64 = 0.8;

struct RunStats {
    throughput_rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    hit_rate: f64,
    ok: usize,
    total: usize,
}

fn build_requests() -> Vec<Request> {
    let tasks = sia_gen::paper_6_3_tasks(SHAPES, 2, 4, sia_gen::SEED_6_3_SERVE);
    if tasks.len() < SHAPES {
        let skipped = SHAPES - tasks.len();
        eprintln!("note: {skipped} of {SHAPES} shapes skipped ({ORDERS_COL}-only predicates)");
    }
    sia_gen::with_repeats(&tasks, REPS)
        .iter()
        .map(|g| load::request(g, Some(30_000)))
        .collect()
}

/// Time one closed-loop pass of `requests` against a fresh server that
/// has first answered `warm` (untimed). The hit rate is the timed
/// pass's own.
fn run_once(requests: &[Request], warm: &[Request], cache_capacity: usize) -> RunStats {
    let handle = server::start(ServeConfig {
        workers: WORKERS,
        cache_capacity,
        queue_depth: requests.len().max(64),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    client::run_batch(&addr, warm, WORKERS * 2).expect("warmup completes");
    let before = handle.cache().stats();

    let start = Instant::now();
    let responses = client::run_batch(&addr, requests, WORKERS * 2).expect("batch completes");
    let elapsed = start.elapsed();

    let ok = responses.iter().filter(|r| r.status == Status::Ok).count();
    #[allow(clippy::cast_precision_loss)]
    let mut lat: Vec<f64> = responses.iter().map(|r| r.micros as f64).collect();
    let after = handle.cache().stats();
    let stats = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        ..after
    };
    handle.shutdown().expect("clean shutdown");

    #[allow(clippy::cast_precision_loss)]
    RunStats {
        throughput_rps: responses.len() as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&mut lat, 50.0),
        p95_us: percentile(&mut lat, 95.0),
        p99_us: percentile(&mut lat, 99.0),
        hit_rate: stats.hit_rate(),
        ok,
        total: responses.len(),
    }
}

/// Two passes, keeping the higher-throughput one: the speedup gate
/// compares best against best, so a scheduler burst during a single
/// pass cannot sink the ratio.
fn best_of_two(mut run: impl FnMut() -> RunStats) -> RunStats {
    let first = run();
    let second = run();
    if second.throughput_rps > first.throughput_rps {
        second
    } else {
        first
    }
}

/// One open-loop measurement at a fixed offered rate.
struct LoadStats {
    rate_rps: f64,
    offered: usize,
    ok: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    /// Fraction of total server wall time attributed to top-level
    /// phases by the per-response breakdowns.
    coverage: f64,
    /// Aggregated per-phase wall time, µs (nested paths included).
    phases: BTreeMap<String, u64>,
}

/// The arrival count for `secs` seconds at `rate` req/s.
fn arrivals_for(rate: f64, secs: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (rate * secs).ceil().max(1.0) as usize;
    n
}

/// Offer `rate` req/s for [`LOAD_SECS`] against a running server.
fn run_load(addr: &str, pool: &[Request], rate: f64, seed: u64) -> LoadStats {
    let schedule = load::poisson_schedule(rate, arrivals_for(rate, LOAD_SECS), seed);
    let (arrivals, _) = load::open_loop(&schedule, |i| {
        client::request_one(addr, &pool[i % pool.len()])
    });

    let mut lat = Vec::with_capacity(arrivals.len());
    let mut ok = 0usize;
    let mut phases: BTreeMap<String, u64> = BTreeMap::new();
    let mut attributed = 0u64;
    let mut server_us = 0u64;
    for a in &arrivals {
        let Ok(resp) = &a.result else { continue };
        ok += usize::from(resp.status == Status::Ok);
        lat.push(a.latency_us());
        server_us += resp.micros;
        for (path, us) in &resp.phases {
            *phases.entry(path.clone()).or_insert(0) += us;
            if !path.contains('/') {
                attributed += us;
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let coverage = if server_us == 0 {
        0.0
    } else {
        attributed as f64 / server_us as f64
    };
    LoadStats {
        rate_rps: rate,
        offered: schedule.len(),
        ok,
        p50_us: percentile(&mut lat, 50.0),
        p99_us: percentile(&mut lat, 99.0),
        p999_us: percentile(&mut lat, 99.9),
        coverage,
        phases,
    }
}

/// One open-loop overload measurement at a multiple of saturation.
struct OverloadStats {
    mult: f64,
    offered: usize,
    /// In-deadline, non-degraded `Ok` completions — the goodput numerator.
    good: usize,
    ok: usize,
    expired: usize,
    rejected: usize,
    retries: usize,
    /// Arrivals that never got any response (after the retry, if any).
    lost: usize,
    goodput_rps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Offer `rate` req/s for [`OVERLOAD_SECS`] against an overload-hardened
/// server, over [`OVERLOAD_CONNS`] pipelined connections. Every request
/// carries [`DEADLINE`] as its timeout; `overloaded` rejections are
/// retried at most once, paying from a shared token-bucket retry budget
/// and waiting the server's `retry_after_ms` hint first.
fn run_overload(addr: &str, pool: &[Request], mult: f64, rate: f64, seed: u64) -> OverloadStats {
    let schedule = load::poisson_schedule(rate, arrivals_for(rate, OVERLOAD_SECS), seed);
    let deadline_ms = u64::try_from(DEADLINE.as_millis()).unwrap_or(u64::MAX);
    let budget = std::sync::Mutex::new(RetryBudget::new(RETRY_BUDGET));
    let request = |i: usize| Request {
        timeout_ms: Some(deadline_ms),
        ..pool[i % pool.len()].clone()
    };
    let (arrivals, elapsed) =
        load::open_loop_pipelined(addr, &schedule, OVERLOAD_CONNS, request, &budget)
            .expect("overload connections open");
    overload_stats(mult, &arrivals, elapsed)
}

/// Goodput counts only in-deadline, non-degraded `Ok` completions,
/// measured from the scheduled arrival.
fn overload_stats(mult: f64, arrivals: &[Arrival<Answer>], elapsed: Duration) -> OverloadStats {
    let (mut good, mut ok, mut expired, mut rejected, mut retries, mut lost) = (0, 0, 0, 0, 0, 0);
    let mut lat = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let (retried, resp) = &a.result;
        retries += usize::from(*retried);
        let Some(resp) = resp else {
            lost += 1;
            continue;
        };
        lat.push(a.latency_us());
        match resp.status {
            Status::Ok => {
                ok += 1;
                if !resp.degraded && a.done.saturating_sub(a.scheduled) <= DEADLINE {
                    good += 1;
                }
            }
            Status::Expired => expired += 1,
            Status::Overloaded => rejected += 1,
            _ => {}
        }
    }
    #[allow(clippy::cast_precision_loss)]
    OverloadStats {
        mult,
        offered: arrivals.len(),
        good,
        ok,
        expired,
        rejected,
        retries,
        lost,
        goodput_rps: good as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&mut lat, 50.0),
        p99_us: percentile(&mut lat, 99.0),
    }
}

fn overload_gates(overloads: &[OverloadStats], gates: &mut Gates) {
    for s in overloads {
        gates.require(
            s.lost == 0,
            format!("{} requests lost at {:.1}x", s.lost, s.mult),
        );
        gates.require(
            s.retries <= s.offered / 10 + 4,
            format!(
                "retry amplification at {:.1}x: {} retries for {} fresh requests",
                s.mult, s.retries, s.offered
            ),
        );
    }
    if let [first, .., last] = overloads {
        gates.require(
            last.goodput_rps >= GOODPUT_FRAC * first.goodput_rps,
            format!(
                "goodput collapsed under overload: {:.1} rps at {:.1}x vs {:.1} rps at {:.1}x \
                 (need >= {GOODPUT_FRAC:.2}x)",
                last.goodput_rps, last.mult, first.goodput_rps, first.mult
            ),
        );
    }
}

fn overload_json(s: &OverloadStats) -> String {
    format!(
        "{{\"mult\":{},\"offered\":{},\"goodput_rps\":{},\"good\":{},\"ok\":{},\
         \"expired\":{},\"rejected\":{},\"retries\":{},\"lost\":{},\"p50_us\":{},\
         \"p99_us\":{}}}",
        sia_obs::json_number(s.mult),
        s.offered,
        sia_obs::json_number(s.goodput_rps),
        s.good,
        s.ok,
        s.expired,
        s.rejected,
        s.retries,
        s.lost,
        sia_obs::json_number(s.p50_us),
        sia_obs::json_number(s.p99_us),
    )
}

fn print_overload(s: &OverloadStats) {
    println!(
        "{:>4.1}x: goodput {:.1} rps ({} good / {} ok of {}) | {} expired | \
         {} rejected | {} retries | {} lost | p50 {:.0} us | p99 {:.0} us",
        s.mult,
        s.goodput_rps,
        s.good,
        s.ok,
        s.offered,
        s.expired,
        s.rejected,
        s.retries,
        s.lost,
        s.p50_us,
        s.p99_us
    );
}

fn load_json(s: &LoadStats) -> String {
    let phases = s
        .phases
        .iter()
        .map(|(path, us)| format!("{}:{us}", sia_obs::json_string(path)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"rate_rps\":{},\"offered\":{},\"ok\":{},\"p50_us\":{},\"p99_us\":{},\
         \"p999_us\":{},\"coverage\":{},\"phases\":{{{phases}}}}}",
        sia_obs::json_number(s.rate_rps),
        s.offered,
        s.ok,
        sia_obs::json_number(s.p50_us),
        sia_obs::json_number(s.p99_us),
        sia_obs::json_number(s.p999_us),
        sia_obs::json_number(s.coverage),
    )
}

fn print_load(s: &LoadStats) {
    println!(
        "{:>7.0} rps: p50 {:.0} us | p99 {:.0} us | p99.9 {:.0} us | \
         coverage {:.1}% | {} / {} ok",
        s.rate_rps,
        s.p50_us,
        s.p99_us,
        s.p999_us,
        100.0 * s.coverage,
        s.ok,
        s.offered
    );
}

fn stats_json(label: &str, s: &RunStats) -> String {
    format!(
        "{}:{{\"throughput_rps\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
         \"hit_rate\":{},\"ok\":{},\"total\":{}}}",
        sia_obs::json_string(label),
        sia_obs::json_number(s.throughput_rps),
        sia_obs::json_number(s.p50_us),
        sia_obs::json_number(s.p95_us),
        sia_obs::json_number(s.p99_us),
        sia_obs::json_number(s.hit_rate),
        s.ok,
        s.total
    )
}

fn print_stats(label: &str, s: &RunStats) {
    println!(
        "{label:>8}: {:.1} req/s | p50 {:.0} us | p95 {:.0} us | p99 {:.0} us | \
         hit rate {:.1}% | {} / {} ok",
        s.throughput_rps,
        s.p50_us,
        s.p95_us,
        s.p99_us,
        100.0 * s.hit_rate,
        s.ok,
        s.total
    );
}

/// Run the three phases, print and write the results, and report the
/// missed bars.
pub fn run() -> Gates {
    // The closed-loop comparison runs with the global collector off —
    // its production configuration, and the one the obs-overhead gate
    // budgets. (Enabled-collector event emission serializes on the
    // collector lock and taxes the cache-hit fast path hardest, which
    // would understate the cache speedup.) The open-loop sweep below
    // re-enables it so the metrics payload carries real span data.
    sia_obs::reset();
    sia_obs::disable();

    let requests = build_requests();
    println!(
        "== serve benchmark: {} requests ({SHAPES} shapes x {REPS} reps, {WORKERS} workers) ==",
        requests.len()
    );
    // `with_repeats` lays the requests out shape by shape, REPS each.
    let firsts: Vec<Request> = requests.iter().step_by(REPS).cloned().collect();
    let cached = best_of_two(|| run_once(&requests, &firsts, 1024));
    print_stats("cached", &cached);
    let uncached = best_of_two(|| run_once(&requests, &[], 0));
    print_stats("uncached", &uncached);
    let speedup = cached.throughput_rps / uncached.throughput_rps;
    println!("speedup: {speedup:.2}x (cached vs uncached throughput)");

    // Open-loop saturation sweep against one warmed cached server.
    sia_obs::enable();
    let handle = server::start(ServeConfig {
        workers: WORKERS,
        cache_capacity: 1024,
        queue_depth: requests.len().max(256),
        ..ServeConfig::default()
    })
    .expect("load server starts");
    let addr = handle.addr().to_string();
    // Warmup: populate the cache and fault in every code path before
    // the measured arrivals start.
    let warm = client::run_batch(&addr, &requests, WORKERS * 2).expect("warmup completes");
    assert!(warm.iter().all(|r| r.status == Status::Ok), "warmup failed");
    println!(
        "== open-loop load: {LOAD_SECS:.0}s per rate, {} rates ==",
        RATES.len()
    );
    let loads: Vec<LoadStats> = (0u64..)
        .zip(RATES)
        .map(|(i, rate)| {
            let s = run_load(&addr, &requests, rate, 0x51A_10AD ^ i);
            print_load(&s);
            s
        })
        .collect();
    // The live stats op sees the whole run: every offered request that
    // was not rejected must have completed by now.
    let live = handle.stats();
    println!(
        "server totals: {} completed, {} rejected, p99 {} us, {} slow",
        live.completed, live.rejected, live.p99_us, live.slow
    );
    handle.shutdown().expect("clean shutdown");

    // Overload sweep against a fresh overload-hardened server. Cache
    // off, so every completion pays real synthesis cost and the
    // multiples genuinely oversubscribe the pool.
    let handle = server::start(ServeConfig {
        workers: WORKERS,
        cache_capacity: 0,
        queue_depth: 256,
        admission_delay_budget: Some(DEADLINE / 4),
        ..ServeConfig::default()
    })
    .expect("overload server starts");
    let addr = handle.addr().to_string();
    println!(
        "== overload sweep: {OVERLOAD_SECS:.0}s per multiple, saturation {:.1} rps, \
         deadline {} ms ==",
        uncached.throughput_rps,
        DEADLINE.as_millis()
    );
    let overloads: Vec<OverloadStats> = (0u64..)
        .zip(OVERLOAD_MULTS)
        .map(|(i, mult)| {
            let rate = uncached.throughput_rps * mult;
            let s = run_overload(&addr, &requests, mult, rate, 0x51A_0BAD ^ i);
            print_overload(&s);
            s
        })
        .collect();
    let live = handle.stats();
    println!(
        "overload server totals: {} completed, {} rejected, {} expired, {} shed, \
         admission limit {}, brownout L{}",
        live.completed, live.rejected, live.expired, live.shed, live.admission_limit, live.brownout
    );
    handle.shutdown().expect("clean shutdown");

    util::write_results(
        "BENCH_serve.json",
        &format!(
            "{{\"experiment\":\"serve\",{},{},\"speedup\":{},\"load\":[{}],\"overload\":[{}],\
             \"metrics\":{}}}\n",
            stats_json("cached", &cached),
            stats_json("uncached", &uncached),
            sia_obs::json_number(speedup),
            loads.iter().map(load_json).collect::<Vec<_>>().join(","),
            overloads
                .iter()
                .map(overload_json)
                .collect::<Vec<_>>()
                .join(","),
            sia_obs::snapshot().to_json()
        ),
    );

    let mut gates = Gates::default();
    gates.require(
        cached.ok == cached.total && uncached.ok == uncached.total,
        format!(
            "requests failed: cached {}/{}, uncached {}/{}",
            cached.ok, cached.total, uncached.ok, uncached.total
        ),
    );
    gates.require(
        cached.hit_rate >= 1.0,
        format!(
            "warmed cached pass hit {:.1}% of lookups (need 100%: every repeat, \
             renamed or not, is a canonical hit)",
            100.0 * cached.hit_rate
        ),
    );
    gates.require(
        speedup >= MIN_SPEEDUP,
        format!("cached throughput only {speedup:.2}x uncached (need >= {MIN_SPEEDUP}x)"),
    );
    let low = &loads[0];
    gates.require(
        low.p99_us <= P99_BUDGET_US,
        format!(
            "p99 at {} rps is {:.0} us (budget {P99_BUDGET_US:.0} us)",
            low.rate_rps, low.p99_us
        ),
    );
    for s in &loads {
        gates.require(
            s.coverage >= MIN_COVERAGE,
            format!(
                "phase coverage at {} rps is {:.1}% (need >= 95%)",
                s.rate_rps,
                100.0 * s.coverage
            ),
        );
        gates.require(
            s.ok > 0,
            format!("no successful responses at {} rps", s.rate_rps),
        );
    }
    overload_gates(&overloads, &mut gates);
    gates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lost_overload_sample_reaches_the_lost_gate() {
        let arrivals: Vec<Arrival<Answer>> = (0..5)
            .map(|i| Arrival {
                scheduled: Duration::from_millis(i),
                done: Duration::from_millis(i + 1),
                result: (false, None),
            })
            .collect();
        let s = overload_stats(2.0, &arrivals, Duration::from_secs(1));
        assert_eq!((s.lost, s.offered, s.p99_us), (5, 5, 0.0));
        let mut gates = Gates::default();
        overload_gates(&[s], &mut gates);
        assert_eq!(gates.failures(), ["5 requests lost at 2.0x"]);
    }
}
