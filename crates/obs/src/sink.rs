//! Pluggable event sinks: where the span/event stream goes.
//!
//! The collector aggregates counters, histograms, and span timings in
//! memory regardless of sink; a sink additionally receives every event as
//! it happens. Two implementations cover the needs of the stack:
//! [`NoopSink`] (drop everything — the overhead-measurement baseline)
//! and [`JsonlSink`] (stream one hand-rolled JSON object per line, no
//! serde), which tests read back with [`crate::parse_object`].

use crate::key::{Counter, Hist};
use std::io::Write;

/// A single observability event, borrowed from the emitting call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// A span was entered. `path` is the `/`-joined nesting path.
    SpanEnter {
        /// Full span path, e.g. `synth/generate/smt.check`.
        path: &'a str,
        /// Request trace ID (0 = untraced; omitted from JSONL when 0).
        trace: u64,
        /// Microseconds since the collector epoch.
        t_us: u64,
    },
    /// A span was exited.
    SpanExit {
        /// Full span path.
        path: &'a str,
        /// Request trace ID (0 = untraced; omitted from JSONL when 0).
        trace: u64,
        /// Microseconds since the collector epoch (at exit).
        t_us: u64,
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// A counter was incremented.
    Counter {
        /// Which counter.
        key: Counter,
        /// Increment amount.
        add: u64,
        /// Microseconds since the collector epoch.
        t_us: u64,
    },
    /// A histogram observed a value.
    Hist {
        /// Which histogram.
        key: Hist,
        /// Observed value.
        value: f64,
        /// Microseconds since the collector epoch.
        t_us: u64,
    },
}

impl Event<'_> {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        // The trace ID is omitted when 0 so untraced runs keep their
        // pre-tracing line shape (and size).
        let trace_field = |trace: u64| {
            if trace == 0 {
                String::new()
            } else {
                format!(",\"trace\":{trace}")
            }
        };
        match *self {
            Event::SpanEnter { path, trace, t_us } => format!(
                "{{\"type\":\"span_enter\",\"path\":{}{},\"t_us\":{t_us}}}",
                json_string(path),
                trace_field(trace)
            ),
            Event::SpanExit {
                path,
                trace,
                t_us,
                dur_us,
            } => format!(
                "{{\"type\":\"span_exit\",\"path\":{}{},\"t_us\":{t_us},\"dur_us\":{dur_us}}}",
                json_string(path),
                trace_field(trace)
            ),
            Event::Counter { key, add, t_us } => format!(
                "{{\"type\":\"counter\",\"key\":{},\"add\":{add},\"t_us\":{t_us}}}",
                json_string(key.name())
            ),
            Event::Hist { key, value, t_us } => format!(
                "{{\"type\":\"hist\",\"key\":{},\"value\":{},\"t_us\":{t_us}}}",
                json_string(key.name()),
                json_number(value)
            ),
        }
    }
}

/// Receives every event as it is emitted.
pub trait Sink: Send {
    /// Handle one event. Must not call back into the collector.
    fn event(&mut self, e: &Event<'_>);
    /// Flush any buffered output (default: nothing to do).
    fn flush(&mut self) {}
}

/// Discards every event. Installing it exercises the full emission path
/// (the overhead the 3% budget is measured against) without I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn event(&mut self, _e: &Event<'_>) {}
}

/// Streams one JSON object per event to a writer. Writes are best-effort:
/// an I/O error drops the line rather than panicking inside solver code.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    w: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap an arbitrary writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncating) a JSONL trace file at `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::new(std::io::BufWriter::new(f)))
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn event(&mut self, e: &Event<'_>) {
        let _ = writeln!(self.w, "{}", e.to_jsonl());
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.w.flush();
    }
}

/// Quote and escape `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` as a JSON number (non-finite values clamp to 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn renders_events_as_jsonl() {
        let e = Event::SpanEnter {
            path: "synth/learn",
            trace: 0,
            t_us: 7,
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"span_enter\",\"path\":\"synth/learn\",\"t_us\":7}"
        );
        let e = Event::SpanExit {
            path: "serve.request",
            trace: 42,
            t_us: 260,
            dur_us: 250,
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"span_exit\",\"path\":\"serve.request\",\"trace\":42,\
             \"t_us\":260,\"dur_us\":250}"
        );
        let e = Event::Hist {
            key: Hist::SvmIterations,
            value: 17.0,
            t_us: 9,
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"hist\",\"key\":\"svm.iterations\",\"value\":17,\"t_us\":9}"
        );
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(2.5), "2.5");
    }
}
