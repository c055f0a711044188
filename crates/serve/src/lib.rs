//! `sia-serve`: a concurrent, supervised predicate-synthesis service.
//!
//! Synthesis requests arrive as line-delimited JSON over TCP, pass
//! through admission control into a bounded queue, and are executed by a
//! worker pool with per-request deadlines. Results are memoized in
//! `sia-cache`'s canonicalizing predicate cache, so repeated predicate
//! *shapes* (the common case in query workloads) are answered in
//! microseconds instead of re-running CEGIS.
//!
//! The service is built to degrade, not drop: requests run under a
//! panic guard and answer with a fallback (the original predicate,
//! marked `degraded`) when synthesis dies; a supervisor respawns dead
//! workers with backoff and a restart-storm breaker; cache snapshots are
//! written crash-safely (temp file + fsync + atomic rename, CRC-checked
//! records); and the client retries `overloaded` rejections with
//! jittered backoff before shedding client-side.
//!
//! Every request is traced end to end: the client stamps a trace ID on
//! the wire, the server's reader opens a `serve.request` root span that
//! crosses the queue into the worker pool (`sia_obs::SpanContext`), and
//! each response carries a per-phase wall-time breakdown (queue wait,
//! parse, lint, cache probe, synthesis). Live telemetry — cumulative
//! counters, log-bucket latency percentiles, cache hit rates, per-phase
//! totals — is answered queue-free by the `stats` op, and requests over
//! a configurable threshold leave exemplars in a slow-request log.
//!
//! - [`protocol`] — the wire format (requests, responses, statuses,
//!   health, stats, trace IDs).
//! - [`server`] — [`server::start`], [`server::ServeConfig`], and the
//!   worker-pool [`server::ServerHandle`]; behind it, one module per
//!   responsibility: `admission` (the two-lane queue and the AIMD /
//!   brownout law that moves its limit), `answer` (running one request,
//!   degrading on failure), `supervisor` (keeping the pool alive) and
//!   `telemetry` (live counters, phase totals, the slow log).
//! - [`client`] — blocking helpers: [`client::run_batch`],
//!   [`client::run_batch_retry`], [`client::request_one`],
//!   [`client::health`], [`client::stats`], [`client::shutdown`].
//!
//! Built entirely on `std` (threads, a `Mutex` + `Condvar` queue,
//! `TcpListener`); cooperative cancellation comes from
//! `sia_smt::Budget`, which the solver's inner loops poll, and fault
//! injection comes from `sia_fault` failpoints (`serve.worker.request`,
//! `serve.worker.die`).

mod admission;
mod answer;
pub mod client;
pub mod protocol;
pub mod server;
mod supervisor;
mod telemetry;

pub use client::{BatchOutcome, RetryBudget, RetryPolicy};
pub use protocol::{fresh_trace_id, HealthInfo, Request, Response, StatsInfo, Status};
pub use server::{start, ServeConfig, ServerHandle};

/// A duration in whole microseconds, saturating.
fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The splitmix64 finalizer: scatters trace IDs and retry jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// See [`sia_obs`]'s lock helper: a poisoned lock only means a panic
/// mid-update; every critical section in this crate leaves its data
/// usable at each step.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
