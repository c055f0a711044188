//! Trace-file parsing: re-read a JSONL event stream written by
//! [`JsonlSink`](crate::JsonlSink), tolerating a torn final line.
//!
//! Trace files are appended one event per line by whatever process is
//! being observed; if that process is killed mid-write (crash, SIGKILL,
//! full disk) the file can end in a truncated line. Mirroring the
//! predicate cache's torn-tail recovery, [`parse_trace`] skips a
//! malformed *final* line that lacks its trailing newline — reporting it
//! in [`TraceStats::torn_tail`] — while a malformed line anywhere else (or a
//! complete-but-garbled tail) is still a hard error: interior corruption
//! means the writer is broken, not merely interrupted.

use crate::jsonl::parse_object;

/// What [`parse_trace`] found in a trace stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events parsed (all types).
    pub events: usize,
    /// `span_enter` events.
    pub enters: usize,
    /// `span_exit` events.
    pub exits: usize,
    /// `counter` events.
    pub counters: usize,
    /// `hist` events.
    pub hists: usize,
    /// A truncated final line was skipped.
    pub torn_tail: bool,
}

/// Parse an entire JSONL trace stream, validating every event line.
///
/// Every line must be a flat JSON object with a known `type`
/// (`span_enter` / `span_exit` / `counter` / `hist`); span events must
/// carry a non-empty `path`, counter/hist events a non-empty `key`. The
/// single tolerated defect is a torn tail (see module docs), reported in
/// [`TraceStats::torn_tail`] rather than as an error.
pub fn parse_trace(text: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let lines: Vec<&str> = text.lines().collect();
    let complete_tail = text.is_empty() || text.ends_with('\n');
    for (i, line) in lines.iter().enumerate() {
        match parse_line(line) {
            Ok(kind) => {
                stats.events += 1;
                match kind {
                    EventKind::Enter => stats.enters += 1,
                    EventKind::Exit => stats.exits += 1,
                    EventKind::Counter => stats.counters += 1,
                    EventKind::Hist => stats.hists += 1,
                }
            }
            Err(e) => {
                if i + 1 == lines.len() && !complete_tail {
                    stats.torn_tail = true;
                } else {
                    return Err(format!("line {}: {e}", i + 1));
                }
            }
        }
    }
    Ok(stats)
}

enum EventKind {
    Enter,
    Exit,
    Counter,
    Hist,
}

fn parse_line(line: &str) -> Result<EventKind, String> {
    let fields = parse_object(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let get = |name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
    };
    let nonempty = |name: &str| match get(name) {
        Some(s) if !s.is_empty() => Ok(()),
        Some(_) => Err(format!("empty {name:?} field")),
        None => Err(format!("missing {name:?} field")),
    };
    match get("type") {
        Some("span_enter") => {
            nonempty("path")?;
            Ok(EventKind::Enter)
        }
        Some("span_exit") => {
            nonempty("path")?;
            Ok(EventKind::Exit)
        }
        Some("counter") => {
            nonempty("key")?;
            Ok(EventKind::Counter)
        }
        Some("hist") => {
            nonempty("key")?;
            Ok(EventKind::Hist)
        }
        Some(other) => Err(format!("unknown event type {other:?}")),
        None => Err("missing \"type\" field".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "{\"type\":\"span_enter\",\"path\":\"synth\",\"t_us\":1}\n\
        {\"type\":\"counter\",\"key\":\"smt.checks\",\"add\":1,\"t_us\":2}\n\
        {\"type\":\"hist\",\"key\":\"svm.margin\",\"value\":0.5,\"t_us\":3}\n\
        {\"type\":\"span_exit\",\"path\":\"synth\",\"t_us\":9,\"dur_us\":8}\n";

    #[test]
    fn counts_a_clean_stream() {
        let stats = parse_trace(GOOD).expect("clean stream parses");
        assert_eq!(stats.events, 4);
        assert_eq!((stats.enters, stats.exits), (1, 1));
        assert_eq!((stats.counters, stats.hists), (1, 1));
        assert!(!stats.torn_tail);
        assert_eq!(
            parse_trace("").expect("empty is fine"),
            TraceStats::default()
        );
    }

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        // Truncated mid-write: no closing brace, no trailing newline.
        let torn = format!("{GOOD}{{\"type\":\"span_enter\",\"pa");
        let stats = parse_trace(&torn).expect("torn tail tolerated");
        assert_eq!(stats.events, 4, "torn line not counted as an event");
        assert!(stats.torn_tail);
    }

    #[test]
    fn interior_and_complete_tail_corruption_are_errors() {
        // Same garbage mid-stream: hard error with the line number.
        let interior = format!("not json\n{GOOD}");
        let err = parse_trace(&interior).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // A garbled line that *was* fully written (newline present) is
        // writer corruption, not a torn tail.
        let complete = format!("{GOOD}garbage\n");
        let err = parse_trace(&complete).unwrap_err();
        assert!(err.starts_with("line 5:"), "{err}");
        // Unknown types and empty paths are rejected even at the tail
        // of a newline-terminated stream.
        let unknown = format!("{GOOD}{{\"type\":\"mystery\"}}\n");
        assert!(parse_trace(&unknown).is_err());
        let empty_path = "{\"type\":\"span_enter\",\"path\":\"\",\"t_us\":1}\n";
        assert!(parse_trace(empty_path).is_err());
    }
}
