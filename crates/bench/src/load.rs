//! The open-loop load driver behind the `serve` and `soak` gates.
//!
//! Arrivals are Poisson at the offered rate and each one gets its own
//! thread the moment it is due, whether or not earlier requests have
//! finished, so queueing delay under overload is charged to the server
//! instead of being absorbed by a coordinating client. Latency is
//! measured from the *scheduled* arrival time.

use std::time::{Duration, Instant};

use sia_gen::GenRequest;
use sia_rand::{RngCore, SplitMix64};
use sia_serve::{Request, Response};

/// Uniform draw in `[0, 1)` from 53 random bits.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    u
}

/// `count` Poisson arrival offsets at `rate` req/s (exponential
/// inter-arrival gaps).
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -(1.0 - unit(&mut rng)).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// One arrival's outcome, timed from the start of the drive.
#[derive(Debug)]
pub struct Arrival<T> {
    /// When the arrival was due.
    pub scheduled: Duration,
    /// When `per_arrival` returned.
    pub done: Duration,
    /// What `per_arrival` returned.
    pub result: T,
}

impl<T> Arrival<T> {
    /// Latency from the scheduled arrival, µs.
    pub fn latency_us(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let us = self.done.saturating_sub(self.scheduled).as_micros() as f64;
        us
    }
}

/// What an arrival that may retry came back with: whether it did retry,
/// and the last response (`None` = no answer at all, a lost request).
pub type Answer = (bool, Option<Response>);

/// Run `per_arrival(i)` on a thread of its own at each `schedule[i]`.
/// Returns the arrivals in schedule order and the wall time of the
/// whole drive.
pub fn open_loop<T: Send>(
    schedule: &[Duration],
    per_arrival: impl Fn(usize) -> T + Sync,
) -> (Vec<Arrival<T>>, Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, &scheduled) in schedule.iter().enumerate() {
            if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let (tx, per_arrival) = (tx.clone(), &per_arrival);
            // Results come back over the channel, not through join
            // handles: a finished arrival gives up its stack at once
            // instead of holding it until the end of a long soak.
            s.spawn(move || {
                let result = per_arrival(i);
                let done = start.elapsed();
                let _ = tx.send((i, scheduled, done, result));
            });
        }
    });
    drop(tx);
    let elapsed = start.elapsed();
    let mut arrivals: Vec<_> = rx.into_iter().collect();
    arrivals.sort_by_key(|a| a.0);
    let arrivals = arrivals
        .into_iter()
        .map(|(_, scheduled, done, result)| Arrival {
            scheduled,
            done,
            result,
        })
        .collect();
    (arrivals, elapsed)
}

/// Nearest-rank percentile (p in [0, 100]). An empty slice reads 0, so a
/// run that lost every arrival still reaches its `lost` gate.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((p / 100.0) * (values.len() - 1) as f64).round() as usize;
    values[idx]
}

/// The serve request for a generated one.
pub fn request(g: &GenRequest, timeout_ms: Option<u64>) -> Request {
    Request {
        id: g.id.clone(),
        predicate: g.predicate.to_string(),
        cols: g.cols.clone(),
        timeout_ms,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_ranks_and_defines_the_empty_case() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
    }

    #[test]
    fn schedule_is_seeded_increasing_and_bounded() {
        let by_count = poisson_schedule(100.0, 50, 7);
        assert_eq!(by_count.len(), 50);
        assert!(by_count.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(by_count, poisson_schedule(100.0, 50, 7));
        assert_ne!(by_count, poisson_schedule(100.0, 50, 8));
    }

    #[test]
    fn open_loop_does_not_wait_for_earlier_arrivals() {
        let schedule = [Duration::ZERO, Duration::from_millis(5)];
        let (arrivals, elapsed) = open_loop(&schedule, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(100));
            }
            i
        });
        assert_eq!(
            arrivals.iter().map(|a| a.result).collect::<Vec<_>>(),
            [0, 1]
        );
        // The second arrival started on time, while the first was still
        // running; its latency is charged from its own schedule slot.
        assert!(arrivals[1].done < arrivals[0].done);
        assert!(arrivals[0].latency_us() >= 100_000.0);
        assert!(elapsed >= arrivals[0].done);
    }
}
