//! Admission: the bounded two-lane job queue and the control law that
//! moves its limit.
//!
//! Everything that decides *may this job enter* — the lane lengths, the
//! admission limit, the brownout level, the queue-wait window — sits
//! behind the one mutex [`JobQueue::admit`] and [`JobQueue::pop`] take
//! anyway. So every job is admitted or answered under that lock, and
//! the queue depth is exactly pushes − pops.
//!
//! Readers classify each request into a **cheap or expensive lane**
//! (cache-template probe + static derivability — see
//! [`sia_analyze::Analyzer::derive`]). A queue at its admission limit is
//! the admission control: the reader answers `overloaded` (with a
//! `retry_after_ms` back-off hint) immediately instead of letting
//! latency grow without bound. The limit is moved by [`Admission`], one
//! AIMD controller targeting the queue-delay budget
//! ([`ServeConfig::admission_delay_budget`](crate::ServeConfig); unset,
//! the budget is unbounded and the limit stays at `queue_depth`). The
//! expensive lane is shed on measured delay: once its oldest job has
//! waited past the budget, new expensive requests are refused while
//! cheap ones keep flowing. Under sustained pressure the law's
//! hysteresis walks a **brownout ladder**: first CEGIS refinement rounds
//! are disabled, then static `Derivation::Bounds` results are served
//! flagged `degraded:"brownout"`, then the expensive lane is shed
//! outright.

use std::cmp::Ordering as CmpOrdering;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sia_cache::Canonical;
use sia_expr::Pred;
use sia_obs::{Counter, Hist, SpanContext};
use sia_smt::Budget;

use crate::protocol::Request;
use crate::{lock, micros};

/// AIMD control-tick interval: how often the control thread has the queue
/// re-evaluate the admission limit and brownout level from the queue
/// waits observed since the last tick.
pub(crate) const CONTROL_TICK: Duration = Duration::from_millis(100);

/// Consecutive over-budget control ticks before the brownout ladder
/// escalates one level.
const BROWNOUT_ENTER_STREAK: u32 = 3;

/// Consecutive calm control ticks before the brownout ladder steps back
/// down one level — the exit hysteresis.
const BROWNOUT_EXIT_STREAK: u32 = 5;

/// Top of the brownout ladder: 0 = normal, 1 = no CEGIS refinement,
/// 2 = serve static bounds, 3 = shed the whole expensive lane.
const BROWNOUT_MAX_LEVEL: usize = 3;

/// The AIMD + brownout control law and the state it moves: the live
/// admission limit, the brownout level, and the window of queue waits
/// the next tick will judge.
#[derive(Debug)]
pub(crate) struct Admission {
    /// Queue-delay budget in µs. `u64::MAX` is unbounded: no wait is
    /// over it, so the limit and the level never move.
    budget_us: u64,
    max_limit: usize,
    /// Current admission limit (jobs in queue beyond it are rejected).
    limit: usize,
    /// Current brownout ladder level.
    level: usize,
    over_streak: u32,
    calm_streak: u32,
    /// Queue waits (µs) fed since the last control tick.
    waits: Vec<u64>,
    /// p99 queue wait of the last control window — the basis of the
    /// `retry_after_ms` hint on `overloaded` responses.
    last_p99_us: u64,
}

impl Admission {
    pub(crate) fn new(queue_depth: usize, delay_budget: Duration) -> Admission {
        let max_limit = queue_depth.max(1);
        Admission {
            budget_us: micros(delay_budget),
            max_limit,
            limit: max_limit,
            level: 0,
            over_streak: 0,
            calm_streak: 0,
            waits: Vec::new(),
            last_p99_us: 0,
        }
    }

    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// Whether a job for `lane` must be turned away from a queue holding
    /// `depth` jobs, whose oldest expensive job has waited
    /// `oldest_expensive_us` (0 for an empty lane). An expensive job is
    /// shed on measured delay — once the lane's head is past the budget,
    /// a newcomer behind it would be too — or at brownout level 3; a
    /// calm burst fills the queue to its limit in either lane.
    pub(crate) fn refuses(
        &self,
        lane: Lane,
        depth: usize,
        oldest_expensive_us: u64,
    ) -> Option<Reject> {
        if depth >= self.limit {
            Some(Reject::Full)
        } else if lane == Lane::Expensive
            && (self.level >= BROWNOUT_MAX_LEVEL || oldest_expensive_us > self.budget_us)
        {
            Some(Reject::Shed)
        } else {
            None
        }
    }

    /// Back-off hint for `overloaded` responses: roughly two control
    /// windows of observed queue delay, clamped to a sane range.
    pub(crate) fn retry_after_ms(&self) -> u64 {
        (2 * self.last_p99_us / 1000).clamp(10, 2000)
    }

    /// Record one dequeue's queue wait into the current control window.
    pub(crate) fn observe_wait(&mut self, wait_us: u64) {
        self.waits.push(wait_us);
    }

    /// One control tick over the queue waits fed since the last tick.
    /// Over budget: cut the limit in half (multiplicative decrease).
    /// Otherwise: raise it by one (additive increase). Three consecutive
    /// over-budget ticks climb the brownout ladder; five consecutive
    /// calm ticks (p99 under half the budget, or an idle window) step
    /// back down.
    pub(crate) fn tick(&mut self) {
        let p99 = percentile_99(&self.waits);
        let over = !self.waits.is_empty() && p99 > self.budget_us;
        let calm = self.waits.is_empty() || p99 <= self.budget_us / 2;
        self.waits.clear();
        self.last_p99_us = p99;
        if over {
            self.limit = (self.limit / 2).max(1);
            self.over_streak += 1;
            self.calm_streak = 0;
        } else {
            self.limit = (self.limit + 1).min(self.max_limit);
            self.over_streak = 0;
            self.calm_streak = if calm { self.calm_streak + 1 } else { 0 };
        }
        if self.over_streak >= BROWNOUT_ENTER_STREAK {
            self.level = (self.level + 1).min(BROWNOUT_MAX_LEVEL);
            self.over_streak = 0;
        }
        if self.calm_streak >= BROWNOUT_EXIT_STREAK && self.level > 0 {
            self.level -= 1;
            self.calm_streak = 0;
        }
    }
}

/// p99 of a control window (0 for an empty window). Windows are small
/// (one tick's dequeues), so a sort is fine.
pub(crate) fn percentile_99(waits_us: &[u64]) -> u64 {
    if waits_us.is_empty() {
        return 0;
    }
    let mut sorted = waits_us.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)]
}

/// Scheduling lane, decided by the reader at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Likely fast: cached template or statically derivable — kept
    /// flowing even under pressure.
    Cheap,
    /// Likely a full CEGIS run — shed first under pressure.
    Expensive,
}

/// One unit of work: a parsed request, its open root span (carrying the
/// trace ID across the thread handoff), its admission-time deadline and
/// budget, and where to write the answer.
pub(crate) struct Job {
    pub(crate) request: Request,
    /// Parse + canonicalization result, computed once by the reader and
    /// reused by the worker (classification needs it anyway).
    pub(crate) parsed: Result<(Pred, Canonical), String>,
    /// Solver budget anchored at *admission*: queue wait is charged
    /// against the request's deadline, and a job still queued past it is
    /// answered `expired` at dequeue without running synthesis.
    pub(crate) budget: Budget,
    /// Reader-side phase timings (parse, admit), replayed by the worker
    /// under the adopted span so the response's phase breakdown still
    /// covers them.
    pub(crate) pre_phases: [(&'static str, Duration); 2],
    pub(crate) span: SpanContext,
    pub(crate) out: Arc<Mutex<TcpStream>>,
}

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reject {
    /// Queue at the admission limit.
    Full,
    /// Expensive lane past the delay budget (or brownout level 3): shed.
    Shed,
    /// Server shutting down.
    Closed,
}

/// A refused admission: the reason, the back-off hint to send with it,
/// and the job handed back (boxed — it is a large struct and the error
/// path should stay thin) so the reader can answer it.
pub(crate) struct Rejected<T> {
    pub(crate) why: Reject,
    pub(crate) retry_after_ms: u64,
    pub(crate) job: Box<T>,
}

/// A dequeued job with what the queue knew about it: when it was
/// admitted (the worker's `queue` phase runs from there until it starts
/// on the job) and the brownout level to run it under.
pub(crate) struct Popped<T> {
    pub(crate) job: T,
    pub(crate) enqueued: Instant,
    pub(crate) level: usize,
}

/// A point-in-time view of the queue, taken under its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueueSnapshot {
    pub(crate) depth: usize,
    pub(crate) limit: usize,
    pub(crate) level: usize,
}

/// The bounded two-lane work queue. Cheap jobs are always popped before
/// expensive ones, the admission limit is dynamic ([`Admission`] moves
/// it), and a lagging expensive lane is shed so slow requests cannot
/// crowd out cheap ones. Generic in the job so the queueing and the law
/// are exercised without a socket.
pub(crate) struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    /// Live [`QueueSender`] leases; the last drop closes the queue,
    /// mirroring `sync_channel`'s sender-drop drain semantics.
    senders: AtomicUsize,
}

struct QueueState<T> {
    /// Each lane holds jobs with their enqueue time.
    cheap: VecDeque<(Instant, T)>,
    expensive: VecDeque<(Instant, T)>,
    closed: bool,
    admission: Admission,
}

impl<T> QueueState<T> {
    fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            depth: self.cheap.len() + self.expensive.len(),
            limit: self.admission.limit(),
            level: self.admission.level(),
        }
    }
}

impl<T> JobQueue<T> {
    pub(crate) fn new(admission: Admission) -> (Arc<JobQueue<T>>, QueueSender<T>) {
        let queue = Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                cheap: VecDeque::new(),
                expensive: VecDeque::new(),
                closed: false,
                admission,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
        });
        let sender = QueueSender(Arc::clone(&queue));
        (queue, sender)
    }

    /// Admit a job arriving at `now` under the current limit, or hand it
    /// back. Returns the queue depth after the push. The queue reads the
    /// expensive lane's age off its own enqueue times, so the law is fed
    /// a number, not a clock.
    fn admit(&self, lane: Lane, job: T, now: Instant) -> Result<usize, Rejected<T>> {
        let mut st = lock(&self.state);
        let depth = st.cheap.len() + st.expensive.len();
        let why = if st.closed {
            Some(Reject::Closed)
        } else {
            let oldest = st
                .expensive
                .front()
                .map_or(0, |(at, _)| micros(now.saturating_duration_since(*at)));
            st.admission.refuses(lane, depth, oldest)
        };
        if let Some(why) = why {
            return Err(Rejected {
                why,
                retry_after_ms: st.admission.retry_after_ms(),
                job: Box::new(job),
            });
        }
        let entry = (now, job);
        match lane {
            Lane::Cheap => st.cheap.push_back(entry),
            Lane::Expensive => st.expensive.push_back(entry),
        }
        drop(st);
        self.ready.notify_one();
        Ok(depth + 1)
    }

    /// Block until a job is available (cheap lane first) or the queue is
    /// closed *and* drained. The dequeue's wait feeds the control window
    /// under the same lock.
    pub(crate) fn pop(&self) -> Option<Popped<T>> {
        let mut st = lock(&self.state);
        loop {
            let next = st.cheap.pop_front().or_else(|| st.expensive.pop_front());
            if let Some((enqueued, job)) = next {
                st.admission.observe_wait(micros(enqueued.elapsed()));
                let level = st.admission.level();
                return Some(Popped {
                    job,
                    enqueued,
                    level,
                });
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Run one control tick and count what it changed — after the lock
    /// is released, since a counter may write to a trace sink.
    pub(crate) fn tick(&self) {
        let (before, after) = {
            let mut st = lock(&self.state);
            let before = st.snapshot();
            st.admission.tick();
            (before, st.snapshot())
        };
        match after.limit.cmp(&before.limit) {
            CmpOrdering::Greater => sia_obs::add(Counter::ServeAdmissionIncrease, 1),
            CmpOrdering::Less => sia_obs::add(Counter::ServeAdmissionDecrease, 1),
            CmpOrdering::Equal => {}
        }
        match after.level.cmp(&before.level) {
            CmpOrdering::Greater => sia_obs::add(Counter::ServeBrownoutEnter, 1),
            CmpOrdering::Less => sia_obs::add(Counter::ServeBrownoutExit, 1),
            CmpOrdering::Equal => {}
        }
        #[allow(clippy::cast_precision_loss)]
        sia_obs::record(Hist::ServeAdmissionLimit, after.limit as f64);
    }

    /// Depth, limit and level as of one moment.
    pub(crate) fn snapshot(&self) -> QueueSnapshot {
        lock(&self.state).snapshot()
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// A counted lease on the queue's send side. Held by the accept loop and
/// cloned into every reader; when the last lease drops (accept thread
/// gone, every reader drained) the queue closes and the workers exit
/// once it is empty. Workers hold the queue itself, not a lease, so they
/// never keep it open.
pub(crate) struct QueueSender<T>(Arc<JobQueue<T>>);

impl<T> QueueSender<T> {
    pub(crate) fn admit(&self, lane: Lane, job: T) -> Result<usize, Rejected<T>> {
        self.0.admit(lane, job, Instant::now())
    }

    /// The back-off hint, if the queue is open and at its limit: then it
    /// refuses a job in either lane, so the caller need not classify one.
    pub(crate) fn full(&self) -> Option<u64> {
        let st = lock(&self.0.state);
        let depth = st.cheap.len() + st.expensive.len();
        let full = !st.closed && st.admission.refuses(Lane::Cheap, depth, 0).is_some();
        full.then(|| st.admission.retry_after_ms())
    }
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> QueueSender<T> {
        self.0.senders.fetch_add(1, Ordering::SeqCst);
        QueueSender(Arc::clone(&self.0))
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.0.close();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The law and the queue without a socket or a sleep: jobs are plain
    //! integers, waits and ages are fed as numbers, ticks are told.
    use super::*;

    const BUDGET: Duration = Duration::from_millis(1);

    fn queue(admission: Admission) -> (Arc<JobQueue<u32>>, QueueSender<u32>) {
        JobQueue::new(admission)
    }

    /// A law driven to the top of the brownout ladder.
    fn at_level_three(queue_depth: usize) -> Admission {
        let mut a = Admission::new(queue_depth, BUDGET);
        for _ in 0..3 * BROWNOUT_ENTER_STREAK {
            a.observe_wait(1_000_000);
            a.tick();
        }
        assert_eq!(a.level(), BROWNOUT_MAX_LEVEL);
        a
    }

    fn why(result: Result<usize, Rejected<u32>>) -> Option<Reject> {
        result.err().map(|r| r.why)
    }

    #[test]
    fn a_burst_admits_exactly_the_limit_then_answers_full() {
        for budget in [Duration::MAX, BUDGET] {
            let (q, tx) = queue(Admission::new(6, budget));
            for i in 0..6 {
                assert_eq!(tx.admit(Lane::Cheap, i).ok(), Some(i as usize + 1));
            }
            assert_eq!(why(tx.admit(Lane::Cheap, 6)), Some(Reject::Full));
            assert_eq!(why(tx.admit(Lane::Expensive, 7)), Some(Reject::Full));
            assert_eq!(q.snapshot().depth, 6);
            // One pop makes room for exactly one more.
            assert_eq!(q.pop().map(|p| p.job), Some(0));
            assert!(tx.admit(Lane::Cheap, 8).is_ok());
            assert_eq!(why(tx.admit(Lane::Cheap, 9)), Some(Reject::Full));
        }
    }

    #[test]
    fn a_full_queue_is_seen_before_a_job_is_classified() {
        let (q, tx) = queue(Admission::new(2, BUDGET));
        assert_eq!(tx.full(), None);
        for i in 0..2 {
            assert!(tx.admit(Lane::Expensive, i).is_ok());
        }
        // At the limit every lane is refused, with the refusal's own hint.
        let refused = tx.admit(Lane::Cheap, 2).expect_err("full");
        assert_eq!(tx.full(), Some(refused.retry_after_ms));
        assert!(q.pop().is_some());
        assert_eq!(tx.full(), None);
        // A closed queue refuses as `Closed`, which the full path leaves
        // to admission.
        assert!(tx.admit(Lane::Cheap, 3).is_ok());
        q.close();
        assert_eq!(tx.full(), None);
        assert_eq!(why(tx.admit(Lane::Cheap, 4)), Some(Reject::Closed));
    }

    #[test]
    fn a_calm_law_admits_a_burst_of_queue_depth_expensive_jobs() {
        // A pipelined batch arrives at once: nothing has waited yet, so
        // the expensive lane fills to the limit like the cheap one.
        let (q, _tx) = queue(Admission::new(64, Duration::from_millis(250)));
        let now = Instant::now();
        for i in 0..64 {
            assert_eq!(q.admit(Lane::Expensive, i, now).ok(), Some(i as usize + 1));
        }
        assert_eq!(why(q.admit(Lane::Expensive, 64, now)), Some(Reject::Full));
    }

    #[test]
    fn an_expensive_lane_past_the_budget_sheds_while_cheap_flow() {
        let (q, _tx) = queue(Admission::new(5, BUDGET));
        let t0 = Instant::now();
        let (within, past) = (t0 + BUDGET, t0 + 2 * BUDGET);
        assert!(q.admit(Lane::Expensive, 0, t0).is_ok());
        assert!(q.admit(Lane::Expensive, 1, within).is_ok(), "at the budget");
        assert_eq!(why(q.admit(Lane::Expensive, 2, past)), Some(Reject::Shed));
        assert!(q.admit(Lane::Cheap, 3, past).is_ok());
        assert!(q.admit(Lane::Cheap, 4, past).is_ok());
        assert!(q.admit(Lane::Cheap, 5, past).is_ok());
        assert_eq!(why(q.admit(Lane::Cheap, 6, past)), Some(Reject::Full));
        // Cheap jobs are served first, whatever the arrival order; with
        // the lagging head gone, the lane's age is the next job's.
        let order: Vec<u32> = (0..4).filter_map(|_| q.pop()).map(|p| p.job).collect();
        assert_eq!(order, [3, 4, 5, 0]);
        assert!(q.admit(Lane::Expensive, 7, within).is_ok());
        assert_eq!(q.snapshot().depth, 2);
    }

    #[test]
    fn level_three_sheds_every_expensive_job_and_no_cheap_one() {
        let admission = at_level_three(4096);
        let limit = admission.limit();
        assert_eq!(limit, 8, "nine halvings");
        let (q, tx) = queue(admission);
        assert_eq!(why(tx.admit(Lane::Expensive, 0)), Some(Reject::Shed));
        for i in 0..limit {
            assert!(tx.admit(Lane::Cheap, 1).is_ok(), "cheap job {i} of {limit}");
        }
        assert_eq!(q.pop().map(|p| p.level), Some(BROWNOUT_MAX_LEVEL));
        assert_eq!(why(tx.admit(Lane::Expensive, 2)), Some(Reject::Shed));
    }

    #[test]
    fn a_rejection_carries_the_clamped_back_off_hint() {
        let hint = |admission: Admission| {
            let (_q, tx) = queue(admission);
            while tx.admit(Lane::Cheap, 0).is_ok() {}
            tx.admit(Lane::Cheap, 0).err().map(|r| r.retry_after_ms)
        };
        // hint = clamp(2 · p99 of the last window, 10, 2000) ms, whatever
        // the budget.
        for budget in [Duration::MAX, BUDGET] {
            for (p99_us, want_ms) in [(0, 10), (4_000, 10), (40_000, 80), (5_000_000, 2000)] {
                let mut a = Admission::new(2, budget);
                a.observe_wait(p99_us);
                a.tick();
                assert_eq!(a.retry_after_ms(), want_ms);
                assert_eq!(hint(a), Some(want_ms), "p99 {p99_us} µs");
            }
        }
    }

    #[test]
    fn an_unbounded_budget_never_moves_the_limit_or_the_level() {
        let mut a = Admission::new(8, Duration::MAX);
        for round in 0..40_u64 {
            for _ in 0..round % 5 {
                a.observe_wait(round * 1_000_000_000);
            }
            a.tick();
            assert_eq!((a.limit(), a.level()), (8, 0));
            assert_eq!(a.refuses(Lane::Expensive, 7, u64::MAX - 1), None);
        }
    }

    #[test]
    fn depth_is_pushes_minus_pops_under_any_interleaving() {
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for budget in [Duration::MAX, BUDGET] {
            let (q, tx) = queue(Admission::new(7, budget));
            let (mut pushes, mut pops) = (0_usize, 0_usize);
            for step in 0..2_000_u32 {
                let roll = next() % 8;
                if roll < 3 && pushes > pops {
                    assert!(q.pop().is_some());
                    pops += 1;
                } else {
                    let lane = if roll % 2 == 0 {
                        Lane::Cheap
                    } else {
                        Lane::Expensive
                    };
                    match tx.admit(lane, step) {
                        Ok(depth) => {
                            pushes += 1;
                            assert_eq!(depth, pushes - pops);
                        }
                        Err(rejected) => assert_eq!(*rejected.job, step, "handed back"),
                    }
                }
                if step % 64 == 0 {
                    q.tick();
                }
                assert_eq!(q.snapshot().depth, pushes - pops, "step {step}");
            }
            // The last lease closes the queue; what was admitted drains.
            drop(tx);
            assert_eq!(
                why(q.admit(Lane::Cheap, 0, Instant::now())),
                Some(Reject::Closed)
            );
            while q.pop().is_some() {
                pops += 1;
            }
            assert_eq!((pushes, q.snapshot().depth), (pops, 0));
        }
    }
}
