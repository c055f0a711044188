//! Driving `sia-serve` the way a planner does: a few connections, each
//! sending one request and waiting for its reply before the next.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sia_serve::protocol::{Response, Status};
use sia_serve::{ServeConfig, ServerHandle};

use crate::workload::{Fnv, ServeOp, DEADLINE_MS};

/// One connection in request–reply lockstep.
#[derive(Debug)]
pub struct Conn<R, W> {
    reader: R,
    writer: W,
    reply: String,
}

/// A [`Conn`] over TCP.
pub type TcpConn = Conn<BufReader<TcpStream>, TcpStream>;

impl<R: BufRead, W: Write> Conn<R, W> {
    /// Wrap the two halves of a stream.
    pub fn new(reader: R, writer: W) -> Self {
        Conn {
            reader,
            writer,
            reply: String::new(),
        }
    }

    /// Send `line` (newline included) as a single write, then block until
    /// the reply line has arrived. Nothing else is sent in between: no
    /// pipelining and no batching, so a reply that the server delays is a
    /// delay the caller sees.
    pub fn exchange(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

/// Open one lockstep connection. Socket options are the defaults a plain
/// `TcpStream::connect` client gets; the read timeout only keeps a dead
/// server from hanging the run.
pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpConn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(4 * DEADLINE_MS)))?;
    Ok(Conn::new(BufReader::new(stream.try_clone()?), stream))
}

/// What the client keeps of one reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Which operation (index into the population).
    pub op: usize,
    /// Which client sent it.
    pub client: usize,
    /// Request line written → reply parsed, µs.
    pub latency_us: f64,
    /// Status `ok`, not degraded, inside the deadline.
    pub answered: bool,
    /// Served from the predicate cache.
    pub cached: bool,
    /// Certified optimal.
    pub optimal: bool,
    /// Digest of the returned predicate's text; 0 for TRUE (no predicate).
    pub answer: u64,
    /// The reply's own `micros`.
    pub server_us: u64,
    /// Its `queue` phase, µs.
    pub queue_us: u64,
    /// Its `admit` phase, µs.
    pub admit_us: u64,
    /// Sum of its top-level phases, µs.
    pub phases_us: u64,
    /// Sum of its `synth` phase, µs.
    pub synth_us: u64,
}

/// Digest of an answer's text (0 is reserved for "no predicate").
pub fn answer_digest(predicate: Option<&str>) -> u64 {
    predicate.map_or(0, |p| {
        let mut h = Fnv::default();
        h.write(p.as_bytes());
        h.0.max(1)
    })
}

fn reduce(
    op: usize,
    client: usize,
    latency_us: f64,
    parsed: Result<Response, String>,
) -> (Reply, Option<String>) {
    let Ok(r) = parsed else {
        let failed = Reply {
            op,
            client,
            latency_us,
            answered: false,
            cached: false,
            optimal: false,
            answer: 0,
            server_us: 0,
            queue_us: 0,
            admit_us: 0,
            phases_us: 0,
            synth_us: 0,
        };
        return (failed, None);
    };
    let phase = |name: &str| {
        r.phases
            .iter()
            .find(|(p, _)| p == name)
            .map_or(0, |(_, us)| *us)
    };
    #[allow(clippy::cast_precision_loss)]
    let in_time = latency_us <= (DEADLINE_MS * 1000) as f64;
    let reply = Reply {
        op,
        client,
        latency_us,
        answered: r.status == Status::Ok && !r.degraded && in_time,
        cached: r.cached,
        optimal: r.optimal,
        answer: answer_digest(r.predicate.as_deref()),
        server_us: r.micros,
        queue_us: phase("queue"),
        admit_us: phase("admit"),
        phases_us: r
            .phases
            .iter()
            .filter(|(p, _)| !p.contains('/'))
            .map(|(_, us)| *us)
            .sum(),
        synth_us: phase("synth"),
    };
    (reply, r.predicate)
}

/// Everything a closed-loop phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every reply, grouped by client.
    pub replies: Vec<Reply>,
    /// Per client: seconds from the phase's start to its last reply.
    pub client_secs: Vec<f64>,
    /// Text of every distinct answer seen, by digest.
    pub answers: BTreeMap<u64, String>,
    /// Process CPU seconds spent during the phase.
    pub cpu_s: f64,
}

struct Cursor {
    next: usize,
    limit: usize,
}

/// Run whole passes over `order`, one client thread per connection, each
/// taking the next operation when its previous reply is in. With
/// `at_least = None` exactly one pass runs; otherwise passes repeat until
/// at least that many seconds have elapsed and that many passes have run.
pub fn run_phase(
    conns: &mut [TcpConn],
    ops: &[ServeOp],
    order: &[usize],
    at_least: Option<(f64, usize)>,
) -> Phase {
    let n = order.len();
    let cursor = Mutex::new(Cursor {
        next: 0,
        limit: if at_least.is_some() { usize::MAX } else { n },
    });
    let cpu_before = crate::proc::cpu_seconds();
    let start = Instant::now();
    let take = || {
        let mut c = cursor
            .lock()
            .expect("no client panics while holding the cursor");
        let (pass, offset) = (c.next / n, c.next % n);
        if offset == 0
            && at_least.is_some_and(|(seconds, passes)| {
                pass >= passes && start.elapsed().as_secs_f64() >= seconds
            })
        {
            c.limit = c.limit.min(c.next);
        }
        (c.next < c.limit).then(|| {
            c.next += 1;
            order[offset]
        })
    };
    // Each client returns its own part of the phase.
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                let take = &take;
                scope.spawn(move || {
                    let mut part = Phase::default();
                    while let Some(op) = take() {
                        let sent = Instant::now();
                        let parsed = conn
                            .exchange(&ops[op].line)
                            .map_err(|e| e.to_string())
                            .and_then(Response::parse);
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        let (reply, text) = reduce(op, client, latency_us, parsed);
                        if let Some(text) = text {
                            part.answers.entry(reply.answer).or_insert(text);
                        }
                        part.replies.push(reply);
                    }
                    part.client_secs.push(start.elapsed().as_secs_f64());
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut phase = Phase {
        cpu_s: crate::proc::cpu_seconds() - cpu_before,
        ..Phase::default()
    };
    for part in parts {
        phase.replies.extend(part.replies);
        phase.answers.extend(part.answers);
        phase.client_secs.extend(part.client_secs);
    }
    phase
}

/// Client connections and server workers: one per core, at most two, so
/// the closed loop never asks for more than the machine has.
pub fn concurrency() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The server configuration `sia serve` starts with by default, sized to
/// this benchmark: as many workers as clients, the workload's cache.
pub fn config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: concurrency(),
        cache_capacity,
        default_timeout_ms: Some(DEADLINE_MS),
        lint_schemas: sia_gen::schemas().into_iter().map(|(_, s)| s).collect(),
        admission_delay_budget: Some(Duration::from_millis(250)),
        ..ServeConfig::default()
    }
}

/// Product set-up: start the server, connect, and run one cold pass.
/// Returns the live server, its connections, the warm pass, and how long
/// all of that took.
pub fn set_up(
    ops: &[ServeOp],
    order: &[usize],
    cache_capacity: usize,
) -> io::Result<(ServerHandle, Vec<TcpConn>, Phase, f64)> {
    let start = Instant::now();
    let server = sia_serve::start(config(cache_capacity))?;
    let mut conns = (0..concurrency())
        .map(|_| connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    let warm = run_phase(&mut conns, ops, order, None);
    Ok((server, conns, warm, start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// A fake peer: replies become readable only after the request they
    /// answer was written, and every read and write is logged.
    #[derive(Default)]
    struct Script {
        log: Vec<String>,
        readable: VecDeque<u8>,
    }

    struct ReadHalf(Rc<RefCell<Script>>);
    struct WriteHalf(Rc<RefCell<Script>>);

    impl io::Read for ReadHalf {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut s = self.0.borrow_mut();
            assert!(
                !s.readable.is_empty(),
                "client read before sending: {:?}",
                s.log
            );
            let n = buf.len().min(s.readable.len());
            for b in buf.iter_mut().take(n) {
                *b = s.readable.pop_front().expect("n bytes are there");
            }
            s.log.push("read".into());
            Ok(n)
        }
    }

    impl Write for WriteHalf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut s = self.0.borrow_mut();
            assert!(
                s.readable.is_empty(),
                "client sent before reading its reply: {:?}",
                s.log
            );
            let text = String::from_utf8_lossy(buf).into_owned();
            s.readable.extend(format!("reply to {text}").bytes());
            s.log.push(format!("write {text:?}"));
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_request_and_one_reply_read_before_the_next_send() {
        let script = Rc::new(RefCell::new(Script::default()));
        let mut conn = Conn::new(
            BufReader::new(ReadHalf(Rc::clone(&script))),
            WriteHalf(Rc::clone(&script)),
        );
        assert_eq!(
            conn.exchange("{\"id\":\"a\"}\n").unwrap(),
            "reply to {\"id\":\"a\"}"
        );
        assert_eq!(
            conn.exchange("{\"id\":\"b\"}\n").unwrap(),
            "reply to {\"id\":\"b\"}"
        );
        let log = script.borrow().log.clone();
        let writes: Vec<&String> = log.iter().filter(|l| l.starts_with("write")).collect();
        // Each request went out whole, newline included, in one write.
        assert_eq!(
            writes,
            [
                "write \"{\\\"id\\\":\\\"a\\\"}\\n\"",
                "write \"{\\\"id\\\":\\\"b\\\"}\\n\""
            ]
        );
        // And the second write came after the first reply was read.
        let first_read = log.iter().position(|l| l == "read").unwrap();
        let second_write = log.iter().rposition(|l| l.starts_with("write")).unwrap();
        assert!(first_read < second_write, "{log:?}");
    }

    #[test]
    fn closed_connection_is_an_error_not_an_empty_reply() {
        let mut conn = Conn::new(io::Cursor::new(Vec::new()), Vec::new());
        assert!(conn.exchange("x\n").is_err());
    }

    #[test]
    fn answer_digest_reserves_zero_for_true() {
        assert_eq!(answer_digest(None), 0);
        assert_ne!(answer_digest(Some("a < 1")), 0);
        assert_ne!(answer_digest(Some("a < 1")), answer_digest(Some("a < 2")));
    }
}
