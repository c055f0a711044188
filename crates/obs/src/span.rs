//! Structured spans: a thread-local stack of timed scopes, plus an
//! explicit [`SpanContext`] handle for spans that cross threads.
//!
//! [`span`] pushes a frame onto the current thread's stack and returns a
//! RAII guard; dropping the guard (including during unwinding, so a panic
//! inside a span cannot corrupt the stack) pops the frame, attributes the
//! elapsed time to the `/`-joined span path in the global collector, and
//! credits the duration to the parent frame's child time so self-time can
//! be derived. Each thread joins a path once, the first time it enters it,
//! and a frame holds an index: entering and leaving a span allocates
//! nothing.
//!
//! The thread-local stack alone cannot follow a request across a thread
//! handoff (accept thread → queue → worker pool): a span opened on the
//! reader thread is invisible to the worker, so worker-side spans would
//! silently start a new root. [`SpanContext`] fixes that: the reader
//! [`SpanContext::begin`]s a root span and ships the handle through the
//! queue; the worker [`SpanContext::adopt`]s it, which pushes a borrowed
//! frame so everything the worker records nests under the request's root
//! path and carries its trace ID; whoever owns the context
//! [`SpanContext::finish`]es it exactly once.
//!
//! Orthogonally, [`local_begin`]/[`local_take`] capture a per-request
//! phase breakdown on the current thread — every span close adds its
//! duration to its path's running total — so a server can attach
//! per-phase timings to each response even when the process-global
//! collector is disabled.

use crate::key::Counter;
use crate::sink::Event;
use crate::SpanSlot;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// One span path this thread has opened. Span names are `&'static str`,
/// so the paths a thread can reach are fixed by the program text: each is
/// joined and leaked the first time it is entered — a few dozen short
/// strings a thread — and entering it again is a search among the nodes.
struct Node {
    parent: Option<usize>,
    name: &'static str,
    path: &'static str,
    /// The collector's aggregate for `path`.
    slot: &'static SpanSlot,
    /// The request-local recorder's total for this path, ns (whole µs
    /// only when read, so closes lose nothing to truncation); `None` if no
    /// span on it has closed since [`local_begin`].
    local_ns: Option<u64>,
}

struct Frame {
    /// Index into [`Stack::nodes`].
    node: usize,
    child: Duration,
    /// `Some` for a span opened on this thread, which its [`SpanGuard`]
    /// times and records; `None` for an adopted root, which its owning
    /// [`SpanContext`] does.
    open: Option<Open>,
}

struct Open {
    start: Instant,
    /// Close into the global collector? `false` for a span opened while
    /// only the request-local recorder is on.
    global: bool,
}

struct Stack {
    nodes: Vec<Node>,
    /// Indices into `nodes`, ordered by path: the order [`local_take`]
    /// reports in.
    by_path: Vec<usize>,
    frames: Vec<Frame>,
}

impl Stack {
    /// The node for `name` under `parent` (a root if `None`).
    fn node(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let known = |n: &Node| n.parent == parent && n.name == name;
        if let Some(node) = self.nodes.iter().position(known) {
            return node;
        }
        let path = match parent {
            Some(parent) => {
                Box::leak(format!("{}/{name}", self.nodes[parent].path).into_boxed_str())
            }
            None => name,
        };
        let at = self.by_path.partition_point(|&n| self.nodes[n].path < path);
        self.by_path.insert(at, self.nodes.len());
        self.nodes.push(Node {
            parent,
            name,
            path,
            slot: crate::span_slot(path),
            local_ns: None,
        });
        self.nodes.len() - 1
    }

    /// The node for `name` under the innermost open frame.
    fn child(&mut self, name: &'static str) -> usize {
        let parent = self.frames.last().map(|f| f.node);
        self.node(parent, name)
    }

    fn local_add(&mut self, node: usize, dur: Duration) {
        if local_active() {
            let ns = dur.as_nanos().try_into().unwrap_or(u64::MAX);
            let total = &mut self.nodes[node].local_ns;
            *total = Some(total.unwrap_or(0).saturating_add(ns));
        }
    }
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack { nodes: Vec::new(), by_path: Vec::new(), frames: Vec::new() })
    };
    /// Trace ID in effect on this thread (0 = untraced). Set while a
    /// [`SpanContext`] is adopted; stamped on every emitted span event.
    static TRACE: Cell<u64> = const { Cell::new(0) };
    /// Is the request-local recorder on?
    static LOCAL_ON: Cell<bool> = const { Cell::new(false) };
    /// While a span is open on this thread, its last span boundary, as
    /// nanoseconds past the collector's clock. Counter and histogram
    /// events carry it instead of reading the clock.
    static BOUNDARY: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The timestamp a counter or histogram event carries: the thread's last
/// span boundary while a span is open, else the clock.
pub(crate) fn event_us() -> u64 {
    match BOUNDARY.with(Cell::get) {
        Some(ns) => crate::us_since_epoch(ns),
        None => crate::now_us(),
    }
}

/// The trace ID in effect on this thread (0 when untraced).
pub fn current_trace() -> u64 {
    TRACE.with(Cell::get)
}

fn local_active() -> bool {
    LOCAL_ON.with(Cell::get)
}

/// Start the request-local phase recorder on this thread: until
/// [`local_take`], every span closed on this thread also adds its
/// duration to a private total for its path, independent of (and in
/// addition to) the global collector. Replaces any recorder already
/// active.
pub fn local_begin() {
    STACK.with(|stack| {
        for node in &mut stack.borrow_mut().nodes {
            node.local_ns = None;
        }
    });
    LOCAL_ON.with(|c| c.set(true));
}

/// Stop the request-local recorder and return `(span path, total µs)`
/// pairs sorted by path. Empty if [`local_begin`] was never called. The
/// paths are the thread's interned ones, always [`Cow::Borrowed`]: `Cow`
/// is what lets a caller compare one with a `&str` or take a `String`.
pub fn local_take() -> Vec<(Cow<'static, str>, u64)> {
    if !LOCAL_ON.with(|c| c.replace(false)) {
        return Vec::new();
    }
    STACK.with(|stack| {
        let stack = stack.borrow();
        let nodes = stack.by_path.iter().map(|&n| &stack.nodes[n]);
        nodes
            .filter_map(|n| Some((Cow::Borrowed(n.path), n.local_ns? / 1_000)))
            .collect()
    })
}

fn dur_us(dur: Duration) -> u64 {
    dur.as_micros().try_into().unwrap_or(u64::MAX)
}

/// Enter a span named `name`, nested under the innermost open span on
/// this thread. When neither the collector nor the request-local
/// recorder is active this is a no-op costing one atomic load and one
/// thread-local read.
pub fn span(name: &'static str) -> SpanGuard {
    let global = crate::enabled();
    if !global && !local_active() {
        return SpanGuard { active: false };
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let node = stack.child(name);
        // One clock read per boundary: the span's start and its event's
        // timestamp are the same instant.
        let start = Instant::now();
        if global {
            let ns = crate::since_clock(start);
            BOUNDARY.with(|b| b.set(Some(ns)));
            crate::emit(&Event::SpanEnter {
                path: stack.nodes[node].path,
                trace: current_trace(),
                t_us: crate::us_since_epoch(ns),
            });
        }
        stack.frames.push(Frame {
            node,
            child: Duration::ZERO,
            open: Some(Open { start, global }),
        });
    });
    SpanGuard { active: true }
}

/// Record a span for work that already elapsed (ending now), nested
/// under the innermost open span on this thread. For phases measured
/// outside any RAII scope — e.g. queue wait, measured by the worker at
/// dequeue time but spent before the worker ever saw the request.
pub fn record_complete(name: &'static str, dur: Duration) {
    let global = crate::enabled();
    if !global && !local_active() {
        return;
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(parent) = stack.frames.last_mut() {
            parent.child += dur;
        }
        let node = stack.child(name);
        stack.local_add(node, dur);
        if global {
            let path = stack.nodes[node].path;
            let ns = crate::since_clock(Instant::now());
            if !stack.frames.is_empty() {
                BOUNDARY.with(|b| b.set(Some(ns)));
            }
            let t = crate::us_since_epoch(ns);
            let d = dur_us(dur);
            let trace = current_trace();
            crate::emit(&Event::SpanEnter {
                path,
                trace,
                t_us: t.saturating_sub(d),
            });
            crate::emit(&Event::SpanExit {
                path,
                trace,
                t_us: t,
                dur_us: d,
            });
            stack.nodes[node].slot.add(dur, Duration::ZERO);
        }
    });
}

/// Closes its span on drop. Guards nest strictly (drop order mirrors
/// declaration order in a scope), and drop runs during unwinding, so a
/// panicking span still closes before its parent.
#[must_use = "a span guard closes its span when dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.frames.pop() else {
                return;
            };
            let Some(open) = frame.open else {
                return;
            };
            let end = Instant::now();
            let dur = end.saturating_duration_since(open.start);
            if let Some(parent) = stack.frames.last_mut() {
                parent.child += dur;
            }
            stack.local_add(frame.node, dur);
            if open.global {
                let ns = crate::since_clock(end);
                let open_left = !stack.frames.is_empty();
                BOUNDARY.with(|b| b.set(open_left.then_some(ns)));
                let Node { path, slot, .. } = stack.nodes[frame.node];
                slot.add(dur, frame.child);
                crate::emit(&Event::SpanExit {
                    path,
                    trace: current_trace(),
                    t_us: crate::us_since_epoch(ns),
                    dur_us: dur_us(dur),
                });
            }
        });
    }
}

/// An explicit handle to an open root span that can cross threads.
///
/// Created where a request is born ([`SpanContext::begin`]), shipped
/// through queues by value, [`SpanContext::adopt`]ed by whichever thread
/// works on the request (so that thread's spans nest under the request
/// path and carry its trace ID), and closed exactly once with
/// [`SpanContext::finish`]. Child time accumulated under each adoption
/// is credited back to the context so self-time stays meaningful.
#[derive(Debug)]
pub struct SpanContext {
    path: &'static str,
    trace: u64,
    start: Instant,
    child: Cell<Duration>,
}

impl SpanContext {
    /// Open a root span named `name` with trace ID `trace` (0 =
    /// untraced). Emits the enter event immediately so the trace file
    /// shows the request starting on the thread that accepted it.
    pub fn begin(name: &'static str, trace: u64) -> SpanContext {
        let start = Instant::now();
        if crate::enabled() {
            if trace != 0 {
                crate::add(Counter::TraceRoots, 1);
            }
            crate::emit(&Event::SpanEnter {
                path: name,
                trace,
                t_us: crate::us_at(start),
            });
        }
        SpanContext {
            path: name,
            trace,
            start,
            child: Cell::new(Duration::ZERO),
        }
    }

    /// The trace ID this context carries (0 = untraced).
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// The root span path.
    pub fn path(&self) -> &str {
        self.path
    }

    /// Wall time since [`SpanContext::begin`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Adopt this context on the current thread: spans opened while the
    /// returned guard lives nest under the context's path and carry its
    /// trace ID. The guard restores the previous trace ID on drop and
    /// credits child time back to the context; it records nothing itself
    /// — the span is closed by [`SpanContext::finish`].
    pub fn adopt(&self) -> AdoptGuard<'_> {
        if crate::enabled() && self.trace != 0 {
            crate::add(Counter::TraceAdopted, 1);
        }
        let prev_trace = TRACE.with(|t| t.replace(self.trace));
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let node = stack.node(None, self.path);
            stack.frames.push(Frame {
                node,
                child: Duration::ZERO,
                open: None,
            });
        });
        AdoptGuard {
            ctx: self,
            prev_trace,
        }
    }

    /// Close the root span: record its total wall time (since `begin`)
    /// and the child time accumulated across adoptions, and emit the
    /// exit event. Returns the total duration.
    pub fn finish(self) -> Duration {
        let end = Instant::now();
        let dur = end.saturating_duration_since(self.start);
        if crate::enabled() {
            // The root's node on this thread holds its slot.
            let slot = STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let node = stack.node(None, self.path);
                stack.nodes[node].slot
            });
            slot.add(dur, self.child.get());
            crate::emit(&Event::SpanExit {
                path: self.path,
                trace: self.trace,
                t_us: crate::us_at(end),
                dur_us: dur_us(dur),
            });
        }
        dur
    }
}

/// Undoes a [`SpanContext::adopt`] on drop: pops the borrowed frame,
/// credits its child time to the context, and restores the thread's
/// previous trace ID. Drop runs during unwinding, so a panicking worker
/// cannot leak the adopted frame onto its span stack.
#[must_use = "an adoption guard detaches the span context when dropped"]
#[derive(Debug)]
pub struct AdoptGuard<'a> {
    ctx: &'a SpanContext,
    prev_trace: u64,
}

impl Drop for AdoptGuard<'_> {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(frame) = stack.frames.pop() {
                self.ctx.child.set(self.ctx.child.get() + frame.child);
            }
            if stack.frames.is_empty() {
                BOUNDARY.with(|b| b.set(None));
            }
        });
        TRACE.with(|t| t.set(self.prev_trace));
    }
}
