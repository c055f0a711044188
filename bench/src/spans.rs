//! Bench-owned spans around calls into the layers' public functions.
//!
//! The recorder keeps every span in memory (name, start, end, parent,
//! operation id) and writes them out when the run ends. It is used on one
//! thread, by the single-threaded replay; when disabled, `scope` just
//! calls through, which is what the untraced replay pass times.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what` — the layer is the crate whose function is called.
    pub name: &'static str,
    /// Index of the operation this span belongs to.
    pub op: u32,
    /// Index (into the span list) of the enclosing span.
    pub parent: Option<u32>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Wall time inside the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Name of the root span opened around each replayed operation.
pub const OP_ROOT: &str = "op";

/// The span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as operation `op` under a root span.
    pub fn op<T>(&mut self, op: usize, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op = u32::try_from(op).unwrap_or(u32::MAX);
        self.scope(OP_ROOT, f)
    }

    /// Run `f` inside a span called `name`, nested under the open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Whether this recorder records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: the span's duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStat {
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.total_ns += s.dur_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Share of the root spans' wall time that their direct children cover.
/// 0 when nothing was recorded.
pub fn coverage(spans: &[Span]) -> f64 {
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let covered_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p as usize].parent.is_none()))
        .map(Span::dur_ns)
        .sum();
    if root_ns == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let share = covered_ns as f64 / root_ns as f64;
    share
}

/// Write one JSON object per span, in recording order (a parent precedes
/// its children; `id` is the line number, `parent` refers to one).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // op [0,100] ⊃ a [10,60] ⊃ b [20,30]; op ⊃ c [60,90].
        let spans = vec![
            span(OP_ROOT, None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(1), 20, 30),
            span("c", Some(0), 60, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
        let names = by_name(&spans);
        assert_eq!(names["a"].self_ns, 40);
        assert_eq!(names["a"].total_ns, 50);
        // Self times partition the root's wall time.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn coverage_counts_top_level_children_only() {
        let spans = vec![
            span(OP_ROOT, None, 0, 100),
            span("a", Some(0), 0, 50),
            span("b", Some(1), 0, 50),
            span(OP_ROOT, None, 100, 200),
            span("a", Some(3), 100, 190),
        ];
        // (50 + 90) of 200; the grandchild `b` is not counted twice.
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let v = rec.op(7, |r| r.scope("a", |r| r.scope("b", |_| 42)));
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), (OP_ROOT, None, 7));
        assert_eq!((s[1].name, s[1].parent), ("a", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("b", Some(1)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.op(0, |r| r.scope("a", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
