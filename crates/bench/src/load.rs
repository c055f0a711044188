//! The open-loop load drivers behind the `serve` and `soak` gates.
//!
//! Arrivals are Poisson at the offered rate and each one is sent the
//! moment it is due, whether or not earlier requests have finished, so
//! queueing delay under overload is charged to the server instead of
//! being absorbed by a coordinating client. Latency is measured from the
//! *scheduled* arrival time. [`open_loop`] gives each arrival a thread
//! of its own; [`open_loop_pipelined`] writes arrivals onto a fixed set
//! of connections, for rates at which a thread and a connection per
//! arrival would outnumber what the client machine can hold.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sia_gen::GenRequest;
use sia_rand::{RngCore, SplitMix64};
use sia_serve::protocol::render_request;
use sia_serve::{Request, Response, RetryBudget, Status};

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

/// How long [`open_loop_pipelined`] waits, after the last arrival is
/// sent, for the replies still out; any it has not seen by then are lost.
const DRAIN: Duration = Duration::from_secs(10);

/// What [`open_loop_pipelined`] knows of each arrival so far.
struct Book {
    /// `(done, reply)` once the arrival is settled; `None` for one that
    /// could not be sent.
    settled: Vec<Option<(Duration, Option<Response>)>>,
    retried: Vec<bool>,
    /// Arrivals not yet settled.
    open: usize,
}

/// Offer `request(i)` at each `schedule[i]` over `conns` persistent,
/// pipelined connections: arrival `i` is written on connection
/// `i % conns` when it is due, whatever is still unanswered, and one
/// reader per connection matches each reply to its arrival by ID (the
/// driver sets each request's ID to its index). The client holds
/// `conns` threads at any rate.
///
/// Retries follow `budget`, as a retrying client's do: each fresh
/// request earns one token, and an `overloaded` reply is retried once,
/// on its connection, after the server's `retry_after_ms` hint (20 ms
/// without one), when the budget pays for it. An arrival unanswered
/// `DRAIN` after the last was sent is lost (`None`). Returns the
/// arrivals in schedule order and the wall time of the whole drive.
///
/// # Errors
///
/// Fails when a connection cannot be opened.
pub fn open_loop_pipelined(
    addr: &str,
    schedule: &[Duration],
    conns: usize,
    request: impl Fn(usize) -> Request + Sync,
    budget: &Mutex<RetryBudget>,
) -> std::io::Result<(Vec<Arrival<Answer>>, Duration)> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns.max(1) {
        let stream = TcpStream::connect(addr)?;
        // One write per request: nothing for Nagle to hold back.
        stream.set_nodelay(true)?;
        readers.push(BufReader::new(stream.try_clone()?));
        writers.push(Mutex::new(stream));
    }
    let n = schedule.len();
    let book = Mutex::new(Book {
        settled: (0..n).map(|_| None).collect(),
        retried: vec![false; n],
        open: n,
    });
    let all_settled = Condvar::new();
    let start = Instant::now();
    let send = |i: usize| {
        let line = render_request(&Request {
            id: i.to_string(),
            ..request(i)
        });
        let mut out = writers[i % writers.len()].lock().expect("writer lock");
        out.write_all(format!("{line}\n").as_bytes()).is_ok()
    };
    let settle = |i: usize, reply: Option<Response>| {
        let mut b = book.lock().expect("book lock");
        if b.settled[i].is_none() {
            b.settled[i] = Some((start.elapsed(), reply));
            b.open -= 1;
            if b.open == 0 {
                all_settled.notify_all();
            }
        }
    };
    std::thread::scope(|s| {
        for reader in readers {
            let (send, settle, book) = (&send, &settle, &book);
            s.spawn(move || {
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    let Ok(reply) = Response::parse(line.trim()) else {
                        continue;
                    };
                    let Some(i) = reply.id.parse::<usize>().ok().filter(|&i| i < n) else {
                        continue;
                    };
                    let retry = reply.status == Status::Overloaded && {
                        let mut b = book.lock().expect("book lock");
                        let retry = !b.retried[i] && budget.lock().expect("budget lock").spend();
                        b.retried[i] |= retry;
                        retry
                    };
                    if retry {
                        let wait = Duration::from_millis(reply.retry_after_ms.unwrap_or(20));
                        s.spawn(move || {
                            std::thread::sleep(wait);
                            if !send(i) {
                                settle(i, Some(reply));
                            }
                        });
                    } else {
                        settle(i, Some(reply));
                    }
                }
            });
        }
        for (i, &scheduled) in schedule.iter().enumerate() {
            if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            budget.lock().expect("budget lock").earn(1);
            if !send(i) {
                settle(i, None);
            }
        }
        let give_up = Instant::now() + DRAIN;
        let mut b = book.lock().expect("book lock");
        while b.open > 0 {
            let Some(left) = give_up.checked_duration_since(Instant::now()) else {
                break;
            };
            b = all_settled.wait_timeout(b, left).expect("book lock").0;
        }
        drop(b);
        // Unblock the readers; whatever is still out is lost.
        for w in &writers {
            let _ = w.lock().expect("writer lock").shutdown(Shutdown::Both);
        }
    });
    let elapsed = start.elapsed();
    let book = book.into_inner().expect("book lock");
    let arrivals = schedule
        .iter()
        .zip(book.settled)
        .zip(book.retried)
        .map(|((&scheduled, settled), retried)| {
            let (done, reply) = settled.unwrap_or((elapsed, None));
            Arrival {
                scheduled,
                done,
                result: (retried, reply),
            }
        })
        .collect();
    Ok((arrivals, elapsed))
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

    /// A server that rejects each request's first attempt as
    /// `overloaded` and answers its second `ok`.
    fn reject_first_attempts() -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let seen = Mutex::new(std::collections::HashSet::new());
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let (stream, _) = listener.accept().expect("accept");
                    let seen = &seen;
                    s.spawn(move || {
                        let mut out = stream.try_clone().expect("clone");
                        for line in BufReader::new(stream).lines() {
                            let Ok(line) = line else { break };
                            let id = sia_serve::protocol::parse_request(&line)
                                .ok()
                                .and_then(|r| match r {
                                    sia_serve::protocol::RequestLine::Synth(r) => Some(r.id),
                                    _ => None,
                                })
                                .expect("a synth request");
                            let retry = seen.lock().expect("seen lock").insert(id.clone());
                            let reply = if retry {
                                Response {
                                    retry_after_ms: Some(1),
                                    ..Response::plain(&id, Status::Overloaded)
                                }
                            } else {
                                Response::plain(&id, Status::Ok)
                            };
                            if writeln!(out, "{}", reply.to_line()).is_err() {
                                break;
                            }
                        }
                    });
                }
            });
        });
        (addr, server)
    }

    #[test]
    fn pipelined_arrivals_are_matched_by_id_and_retried_within_budget() {
        let (addr, server) = reject_first_attempts();
        let schedule: Vec<Duration> = (0..20).map(Duration::from_millis).collect();
        let budget = Mutex::new(RetryBudget::new(0.1));
        let request = |i: usize| Request {
            id: format!("pool-{}", i % 3),
            predicate: "a < 1".into(),
            cols: vec!["a".into()],
            timeout_ms: None,
            trace: None,
        };
        let (arrivals, elapsed) =
            open_loop_pipelined(&addr, &schedule, 2, request, &budget).expect("drive");
        server.join().expect("server thread");
        assert_eq!(arrivals.len(), 20);
        let mut retried = 0;
        for (i, a) in arrivals.iter().enumerate() {
            let (again, reply) = &a.result;
            let reply = reply.as_ref().expect("every arrival is answered");
            // The reply is the arrival's own, found by the ID the driver set.
            assert_eq!(reply.id, i.to_string());
            // A retried arrival ends `ok`; one the budget refused keeps
            // its `overloaded` reply.
            let expect = if *again {
                Status::Ok
            } else {
                Status::Overloaded
            };
            assert_eq!(reply.status, expect, "arrival {i}");
            retried += usize::from(*again);
            assert!(a.scheduled <= a.done && a.done <= elapsed);
        }
        // Three tokens in hand plus 0.1 for each of 20 fresh requests.
        assert!((3..=5).contains(&retried), "{retried} retries");
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
