//! The supervisor thread: the worker pool's keeper.
//!
//! It owns the worker join handles. A worker dies either *between* jobs
//! (the `serve.worker.die` failpoint) or by a panic outside the
//! per-request unwind guard, which [`JobGuard`](crate::answer::JobGuard)
//! answers on the way out — so a dead worker holds no unanswered job
//! and a respawn loses nothing. The supervisor respawns a dead slot
//! with per-slot exponential backoff; a restart storm (too many
//! respawns in a short window) opens a circuit breaker that pauses
//! respawning until the window drains. It also gives the queue its
//! control tick, writes periodic crash-safe cache snapshots when
//! configured, and joins the drained workers at shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::CONTROL_TICK;
use crate::server::{worker_loop, Shared};

/// Supervisor poll interval for dead-worker detection and snapshots.
const SUPERVISE_POLL: Duration = Duration::from_millis(10);

/// First respawn delay after a worker death; doubles per consecutive
/// death of the same slot, capped at [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(20);

/// Upper bound on the per-slot respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// A slot that survives this long has its backoff reset.
const BACKOFF_RESET_AFTER: Duration = Duration::from_secs(1);

/// Respawns within [`STORM_WINDOW`] that open the circuit breaker.
const STORM_LIMIT: usize = 16;

/// Sliding window for restart-storm detection.
const STORM_WINDOW: Duration = Duration::from_secs(2);

/// Shared worker-pool bookkeeping, read by health requests.
#[derive(Debug)]
pub(crate) struct PoolState {
    pub(crate) target: usize,
    pub(crate) alive: AtomicUsize,
    pub(crate) restarts: AtomicU64,
    pub(crate) breaker_open: AtomicBool,
}

impl PoolState {
    pub(crate) fn new(workers: usize) -> PoolState {
        PoolState {
            target: workers.max(1),
            alive: AtomicUsize::new(0),
            restarts: AtomicU64::new(0),
            breaker_open: AtomicBool::new(false),
        }
    }
}

pub(crate) fn spawn_worker(slot: usize, shared: &Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("sia-worker-{slot}"))
        .spawn(move || {
            shared.pool.alive.fetch_add(1, Ordering::Relaxed);
            let _alive = AliveGuard(&shared.pool);
            worker_loop(&shared);
        })
}

/// Decrements the live-worker count however the worker exits — clean
/// drain or unwinding panic.
struct AliveGuard<'a>(&'a PoolState);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.alive.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The supervisor: detect dead workers, respawn with backoff and a
/// restart-storm breaker, tick the admission law, write periodic cache
/// snapshots, and join everything at shutdown.
pub(crate) fn supervise(
    mut slots: Vec<Option<JoinHandle<()>>>,
    shared: &Arc<Shared>,
    snapshot: Option<&(String, Duration)>,
) {
    let now = Instant::now();
    let mut backoff_exp: Vec<u32> = vec![0; slots.len()];
    let mut next_spawn: Vec<Instant> = vec![now; slots.len()];
    let mut spawned_at: Vec<Instant> = vec![now; slots.len()];
    let mut recent_respawns: VecDeque<Instant> = VecDeque::new();
    let mut last_snapshot = now;
    let mut last_control = now;
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);

        if last_control.elapsed() >= CONTROL_TICK {
            shared.queue.tick();
            last_control = Instant::now();
        }

        // Reap finished workers. Outside a shutdown, any exit is a death
        // (workers only return cleanly once the queue disconnects).
        for slot in 0..slots.len() {
            let finished = slots[slot].as_ref().is_some_and(JoinHandle::is_finished);
            if finished {
                let _ = slots[slot].take().map(JoinHandle::join);
                if !stopping {
                    if spawned_at[slot].elapsed() >= BACKOFF_RESET_AFTER {
                        backoff_exp[slot] = 0;
                    }
                    let delay = BACKOFF_BASE
                        .saturating_mul(1 << backoff_exp[slot].min(16))
                        .min(BACKOFF_CAP);
                    backoff_exp[slot] = backoff_exp[slot].saturating_add(1);
                    next_spawn[slot] = Instant::now() + delay;
                }
            }
        }

        // Restart-storm breaker: when too many respawns land inside the
        // sliding window, pause respawning until the window drains.
        while recent_respawns
            .front()
            .is_some_and(|t| t.elapsed() > STORM_WINDOW)
        {
            recent_respawns.pop_front();
        }
        let breaker_open = recent_respawns.len() >= STORM_LIMIT;
        shared
            .pool
            .breaker_open
            .store(breaker_open, Ordering::Relaxed);

        if !stopping && !breaker_open {
            for slot in 0..slots.len() {
                if slots[slot].is_none() && Instant::now() >= next_spawn[slot] {
                    if let Ok(handle) = spawn_worker(slot, shared) {
                        slots[slot] = Some(handle);
                        spawned_at[slot] = Instant::now();
                        recent_respawns.push_back(Instant::now());
                        shared.pool.restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        if let Some((path, every)) = snapshot {
            if !stopping && last_snapshot.elapsed() >= *every {
                let _ = shared.cache.save_file(path);
                last_snapshot = Instant::now();
            }
        }

        if stopping && slots.iter().all(Option::is_none) {
            break;
        }
        std::thread::sleep(SUPERVISE_POLL);
    }
}
