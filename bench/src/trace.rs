//! The traced run: the per-layer table, measured from outside.
//!
//! Five sources, none of them inside the product's code:
//!
//! * (a) what every `sia-serve` reply already carries (`micros`, `phases`,
//!   `cached`, `optimal`) and `ServerHandle::cache().stats()`;
//! * (b) a single-threaded *replay* of each operation through the layers'
//!   public entry points, under bench-owned spans (`spans`), once with
//!   spans and the `sia_obs` collector off and once with both on;
//! * (c) kernels on inputs derived from the same operations (`kernels`);
//! * (d) the product's existing `sia_obs` counters and span totals, read
//!   after the traced replay pass as work counts and in-situ times;
//! * (e) the counting allocator of the traced binary.
//!
//! A workload measures only the layers its own operations call. A serve
//! workload has no `sql.*` / `engine.*` numbers and an engine workload no
//! `serve.*` / `cache.*` ones, and a median over events that never happen
//! (`serve.hit_latency_us` where nothing hits) does not exist. The result
//! line must carry every per-layer name with a number, so those are
//! printed as 0 and named in a note on standard error: read them as "not
//! measured", never as a fast layer. Per-operation times and counts of a
//! shared layer that stayed idle (no SVM training on `serve_mix`) are true
//! zeros and are not in the note.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sia_analyze::Analyzer;
use sia_cache::{canonicalize, PredicateCache};
use sia_core::{SiaConfig, Synthesizer};
use sia_engine::{execute, move_around, optimize, Database, MoveAround, OptimizerConfig};
use sia_obs::{Counter, Hist, Snapshot};
use sia_serve::protocol::{parse_request, RequestLine, Response, Status};

use crate::engine::{self, Outcome};
use crate::kernels;
use crate::metrics::PER_LAYER;
use crate::report::RunReport;
use crate::run::{self, Detail, Live};
use crate::serve::Reply;
use crate::spans::{self, Recorder, Span};
use crate::stats::median;
use crate::workload::{EngineOp, Family, Ops, ServeOp, Workload};

/// `(metric, value)`; `None` when this run had nothing to measure it on.
type Layer = Vec<(&'static str, Option<f64>)>;

/// Off-mode passes behind `engine.off_latency_us` and `engine.paid_share`.
const OFF_PASSES: usize = 3;

/// Where the traced run of `workload` leaves its spans.
pub fn trace_file(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.jsonl"))
}

/// Run the traced measurement of `workload` and report every per-layer
/// metric. Correctness is that of the workload's own closed loop.
pub fn run(workload: &Workload, seconds: f64) -> Result<RunReport, String> {
    let live = run::live(workload, seconds)?;
    let (own, spans) = layers(workload, &live);
    let values: BTreeMap<&'static str, f64> = own
        .into_iter()
        .chain(kernels::run(workload))
        .filter_map(|(name, v)| Some((name, v?)))
        .collect();
    let path = trace_file(workload.spec.name);
    spans::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        workload.spec.name,
        spans.len(),
        path.display()
    );

    let unmeasured: Vec<&str> = PER_LAYER
        .iter()
        .map(|def| def.name)
        .filter(|name| !values.contains_key(name))
        .collect();
    if !unmeasured.is_empty() {
        eprintln!(
            "{}: not measured by this workload, printed as 0: {}",
            workload.spec.name,
            unmeasured.join(", ")
        );
    }
    let ordered: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|def| (def.name, values.get(def.name).copied().unwrap_or(0.0)))
        .collect();
    Ok(RunReport::new(
        live.ok == live.attempted && live.warm_failures == 0,
        live.attempted as u64,
        (live.attempted - live.ok) as u64,
        &ordered,
    ))
}

/// The layer metrics one live run and its replay can measure, and the
/// replay's spans.
fn layers(w: &Workload, live: &Live) -> (Layer, Vec<Span>) {
    let n = w.len();
    let (mut layer, replay) = match (&w.ops, &live.detail) {
        (
            Ops::Serve {
                ops,
                cache_capacity,
                ..
            },
            Detail::Serve {
                timed,
                hit_share,
                evictions_per_op,
            },
        ) => {
            let mut layer = wire_layer(&timed.replies);
            layer.push(("cache.hit_share", Some(*hit_share)));
            layer.push(("cache.evictions_per_op", Some(*evictions_per_op)));
            // The replay keeps its cache from pass to pass, as the live
            // server does.
            let bed = ServeBed::new(*cache_capacity);
            let tally = Cell::new(Tally::default());
            let replay = replay(n, |rec, first_op| {
                for (i, &op) in w.order.iter().enumerate() {
                    rec.op(first_op + i, |r| bed.replay(r, &ops[op], &tally));
                }
            });
            layer.extend(tally.get().layer(replay.traced_s()));
            (layer, replay)
        }
        (Ops::Engine { ops, mode, .. }, Detail::Engine { db, timed }) => {
            let layer = off_layer(db, ops, &w.order, timed);
            let replay = replay(n, |rec, first_op| {
                for (i, &op) in w.order.iter().enumerate() {
                    rec.op(first_op + i, |r| replay_engine(r, db, &ops[op], *mode));
                }
            });
            (layer, replay)
        }
        _ => unreachable!("a workload's live detail is of its own family"),
    };
    let traced_ops = replay.traced_ops(n);
    layer.extend(span_layer(&replay.traced, traced_ops, w.spec.family));
    layer.extend(obs_layer(&replay, traced_ops, w.spec.family));
    layer.extend(replay.cost_layer(n));
    (layer, replay.traced)
}

/// What the replay passes over one workload produced.
struct Replay {
    /// `(untraced, traced)` wall seconds of each pair of passes.
    pairs: Vec<(f64, f64)>,
    /// Allocator calls and bytes over the untraced passes.
    allocs: (u64, u64),
    /// Bench spans of the traced passes.
    traced: Vec<Span>,
    /// The product's collector after the traced passes.
    snapshot: Snapshot,
}

/// Pairs of passes at most, and seconds after which no further pair is
/// started: a CEGIS pass takes seconds and one pair is plenty; a
/// `serve_mix` pass takes a tenth of a second and one hiccup of the
/// machine would be half of it.
const MAX_PAIRS: usize = 5;
const ENOUGH_S: f64 = 1.5;

/// Replay one pass to warm up, then in pairs: untraced (spans and the
/// `sia_obs` collector off), traced (both on). `pass` runs one pass with
/// the recorder it is given, numbering operations from `first_op`.
fn replay(ops: usize, mut pass: impl FnMut(&mut Recorder, usize)) -> Replay {
    sia_obs::disable();
    pass(&mut Recorder::new(false), 0);
    sia_obs::reset();
    let mut rec = Recorder::new(true);
    let mut replay = Replay {
        pairs: Vec::new(),
        allocs: (0, 0),
        traced: Vec::new(),
        snapshot: Snapshot::default(),
    };
    let began = Instant::now();
    while replay.pairs.is_empty()
        || (replay.pairs.len() < MAX_PAIRS && began.elapsed().as_secs_f64() < ENOUGH_S)
    {
        let allocs_before = crate::alloc::counts();
        let start = Instant::now();
        pass(&mut Recorder::new(false), 0);
        let untraced_s = start.elapsed().as_secs_f64();
        let allocs_after = crate::alloc::counts();
        replay.allocs.0 += allocs_after.0 - allocs_before.0;
        replay.allocs.1 += allocs_after.1 - allocs_before.1;

        sia_obs::enable();
        let start = Instant::now();
        pass(&mut rec, replay.pairs.len() * ops);
        replay
            .pairs
            .push((untraced_s, start.elapsed().as_secs_f64()));
        sia_obs::disable();
    }
    replay.snapshot = sia_obs::snapshot();
    replay.traced = rec.spans().to_vec();
    replay
}

impl Replay {
    /// Operations replayed under trace.
    fn traced_ops(&self, ops: usize) -> usize {
        ops * self.pairs.len()
    }

    /// Wall seconds of all traced passes.
    fn traced_s(&self) -> f64 {
        self.pairs.iter().map(|(_, t)| t).sum()
    }

    /// What tracing cost (median over the pairs) and what the untraced
    /// passes allocated.
    fn cost_layer(&self, ops: usize) -> Layer {
        #[allow(clippy::cast_precision_loss)]
        let per_op = |x: u64| Some(x as f64 / self.traced_ops(ops).max(1) as f64);
        vec![
            (
                "obs.trace_overhead_share",
                median_of(
                    self.pairs
                        .iter()
                        .map(|(untraced, traced)| traced / untraced.max(1e-9) - 1.0),
                ),
            ),
            ("replay.coverage_share", Some(spans::coverage(&self.traced))),
            ("alloc.allocs_per_op", per_op(self.allocs.0)),
            ("alloc.bytes_per_op", per_op(self.allocs.1)),
        ]
    }
}

fn median_of(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    (!v.is_empty()).then(|| median(&mut v))
}

#[allow(clippy::cast_precision_loss)]
fn share(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

/// Source (a): what the replies say about the wire, the queue, the cache
/// and the answers.
fn wire_layer(replies: &[Reply]) -> Layer {
    #[allow(clippy::cast_precision_loss)]
    let us = |x: u64| x as f64;
    let answered = || replies.iter().filter(|r| r.answered);
    let misses = || answered().filter(|r| !r.cached);
    vec![
        (
            "serve.wire_us",
            median_of(answered().map(|r| r.latency_us - us(r.server_us))),
        ),
        (
            "serve.queue_us",
            median_of(answered().map(|r| us(r.queue_us))),
        ),
        (
            "serve.admit_us",
            median_of(answered().map(|r| us(r.admit_us))),
        ),
        (
            "serve.hit_latency_us",
            median_of(answered().filter(|r| r.cached).map(|r| r.latency_us)),
        ),
        (
            "serve.miss_latency_us",
            median_of(misses().map(|r| r.latency_us)),
        ),
        (
            "serve.phase_coverage_share",
            share(
                answered().map(|r| r.phases_us).sum(),
                answered().map(|r| r.server_us).sum(),
            ),
        ),
        (
            "core.optimal_share",
            share(
                misses().filter(|r| r.optimal).count() as u64,
                misses().count() as u64,
            ),
        ),
    ]
}

/// What the traced replay passes learned from the values the layers
/// returned.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// `Analyzer::derive` calls, and how many were exact.
    derived: u64,
    exact: u64,
    /// Nanoseconds inside `synthesize` calls that ran at least one CEGIS
    /// round (a static or trivially unsatisfiable answer runs none).
    cegis_ns: u64,
}

impl Tally {
    fn layer(self, pass_s: f64) -> Layer {
        #[allow(clippy::cast_precision_loss)]
        let cegis_s = self.cegis_ns as f64 / 1e9;
        vec![
            (
                "analyze.derive_exact_share",
                share(self.exact, self.derived),
            ),
            ("core.cegis_time_share", Some(cegis_s / pass_s.max(1e-9))),
        ]
    }
}

/// The state a `sia-serve` worker holds, rebuilt on the bench's side.
struct ServeBed {
    linter: Analyzer,
    cache: PredicateCache,
}

impl ServeBed {
    fn new(cache_capacity: usize) -> ServeBed {
        ServeBed {
            linter: sia_gen::schemas()
                .iter()
                .fold(Analyzer::new(), |a, (_, s)| a.with_schema(s)),
            cache: PredicateCache::new(cache_capacity),
        }
    }

    /// One request through the layers in the order the server calls them:
    /// framing, predicate parse, canonical form, lane classification
    /// (cache peek, else static derivation), lint, cache lookup, on a miss
    /// synthesis and insert, then rendering the reply.
    /// `tally` counts only while `rec` records, i.e. on traced passes.
    fn replay(&self, rec: &mut Recorder, op: &ServeOp, tally: &Cell<Tally>) {
        let counted = tally;
        let mut tally = counted.get();
        let request = rec.scope("serve.parse_request", |_| parse_request(op.line.trim_end()));
        let Ok(RequestLine::Synth(request)) = request else {
            return;
        };
        let Ok(p) = rec.scope("sql.parse_predicate", |_| {
            sia_sql::parse_predicate(&request.predicate)
        }) else {
            return;
        };
        let canon = rec.scope("cache.canonicalize", |_| canonicalize(&p));
        if !rec.scope("cache.peek", |_| self.cache.peek(&canon, &request.cols)) {
            let derivation = rec.scope("analyze.derive", |_| self.linter.derive(&p, &request.cols));
            tally.derived += 1;
            tally.exact += u64::from(derivation.is_some_and(|d| d.is_exact()));
        }
        let warnings: Vec<String> = rec.scope("analyze.lint", |_| {
            self.linter
                .lint(&p)
                .iter()
                .map(ToString::to_string)
                .collect()
        });
        let hit = rec.scope("cache.lookup", |_| self.cache.lookup(&canon, &request.cols));
        let (predicate, optimal, cached) = match hit {
            Some(hit) => (hit.predicate, hit.optimal, true),
            None => {
                let start = Instant::now();
                let result = rec.scope("core.synthesize", |_| {
                    Synthesizer::new(SiaConfig::default()).synthesize(&p, &request.cols)
                });
                let Ok(result) = result else {
                    return;
                };
                if result.stats.iterations > 0 {
                    tally.cegis_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                }
                let predicate = result.predicate.unwrap_or_else(sia_expr::Pred::true_);
                rec.scope("cache.insert", |_| {
                    self.cache
                        .insert(&canon, &request.cols, &predicate, result.optimal);
                });
                (predicate, result.optimal, false)
            }
        };
        let response = Response {
            predicate: (!predicate.is_true()).then(|| predicate.to_string()),
            optimal,
            cached,
            warnings,
            trace: request.trace,
            ..Response::plain(&request.id, Status::Ok)
        };
        std::hint::black_box(rec.scope("serve.to_line", |_| response.to_line()));
        if rec.is_enabled() {
            counted.set(tally);
        }
    }
}

/// One query through the engine's stages, as `Database::run` chains them.
fn replay_engine(rec: &mut Recorder, db: &Database, op: &EngineOp, mode: MoveAround) {
    let Ok(query) = rec.scope("sql.parse_query", |_| sia_sql::parse_query(&op.sql)) else {
        return;
    };
    let Ok(plan) = rec.scope("engine.plan", |_| db.plan(&query)) else {
        return;
    };
    let (plan, moved) = rec.scope("engine.move_around", |_| {
        move_around(plan, &|t| db.schema_of(t), mode)
    });
    let config = OptimizerConfig {
        move_around: mode,
        ..OptimizerConfig::default()
    };
    let columns_of = |t: &str| {
        db.schema_of(t)
            .map_or_else(Vec::new, |s| sia_engine::optimize::schema_columns(&s))
    };
    let plan = rec.scope("engine.optimize", |_| optimize(plan, &columns_of, config));
    let result = rec.scope("engine.execute", |_| execute(&plan, db));
    std::hint::black_box((moved, result.ok()));
}

/// Move-around off, a few passes: the latency it would have had, whether
/// moving paid per query, and the executor's counters per operation.
fn off_layer(db: &Database, ops: &[EngineOp], order: &[usize], timed: &[Outcome]) -> Layer {
    let mut off: Vec<Outcome> = Vec::new();
    for _ in 0..OFF_PASSES {
        off.extend(engine::run_pass(db, ops, order, MoveAround::Off));
    }
    let by_query = |outcomes: &[Outcome]| {
        let mut map: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for o in outcomes {
            map.entry(ops[o.op].sql.as_str())
                .or_default()
                .push(o.latency_us);
        }
        map.into_iter()
            .map(|(k, mut v)| (k, median(&mut v)))
            .collect::<BTreeMap<_, _>>()
    };
    let (on_med, off_med) = (by_query(timed), by_query(&off));
    let paid = on_med
        .iter()
        .filter(|(q, on)| off_med.get(*q).is_some_and(|off| *on <= off))
        .count();
    #[allow(clippy::cast_precision_loss)]
    let mean = |f: &dyn Fn(&engine::Summary) -> u64| {
        let total: u64 = timed.iter().filter_map(|o| o.summary.as_ref()).map(f).sum();
        Some(total as f64 / timed.len().max(1) as f64)
    };
    vec![
        (
            "engine.off_latency_us",
            median_of(off.iter().map(|o| o.latency_us)),
        ),
        ("engine.paid_share", share(paid as u64, on_med.len() as u64)),
        (
            "engine.rows_scanned_per_op",
            mean(&|s| s.stats.rows_scanned),
        ),
        (
            "engine.rows_filtered_per_op",
            mean(&|s| s.stats.rows_filtered),
        ),
        (
            "engine.join_input_rows_per_op",
            mean(&|s| s.stats.join_input_rows),
        ),
        (
            "engine.join_output_rows_per_op",
            mean(&|s| s.stats.join_output_rows),
        ),
        (
            "engine.scans_pushed_per_op",
            mean(&|s| s.scans_pushed as u64),
        ),
        ("engine.synthesized_per_op", mean(&|s| s.synthesized as u64)),
    ]
}

/// Source (b): mean self time per operation of each bench span, under the
/// metric it feeds. Means, so that the rows add up to the mean operation.
fn span_layer(traced: &[Span], ops: usize, family: Family) -> Layer {
    let names = spans::by_name(traced);
    #[allow(clippy::cast_precision_loss)]
    let per_op = |name: &str| {
        // A span the replay never opened (no insert when everything hits)
        // is a true 0 for this family's layers.
        Some(
            names
                .get(name)
                .map_or(0.0, |s| s.self_ns as f64 / 1e3 / ops.max(1) as f64),
        )
    };
    match family {
        Family::Serve => vec![
            ("serve.parse_us", per_op("serve.parse_request")),
            ("serve.render_us", per_op("serve.to_line")),
            ("cache.canon_us", per_op("cache.canonicalize")),
            ("cache.lookup_us", per_op("cache.lookup")),
            ("cache.insert_us", per_op("cache.insert")),
            ("analyze.lint_us", per_op("analyze.lint")),
            ("analyze.derive_us", per_op("analyze.derive")),
        ],
        Family::Engine => {
            let ns = |name: &str| names.get(name).map_or(0, |s| s.total_ns);
            let planning = ns("sql.parse_query")
                + ns("engine.plan")
                + ns("engine.move_around")
                + ns("engine.optimize");
            vec![
                ("sql.parse_us", per_op("sql.parse_query")),
                ("engine.plan_us", per_op("engine.plan")),
                ("engine.move_us", per_op("engine.move_around")),
                ("engine.optimize_us", per_op("engine.optimize")),
                ("engine.exec_us", per_op("engine.execute")),
                (
                    "engine.plan_share",
                    share(planning, planning + ns("engine.execute")),
                ),
            ]
        }
    }
}

/// Source (d): the product's own collector, read after the traced pass.
/// Span totals are in-situ times per operation; counters are work counts.
fn obs_layer(replay: &Replay, ops: usize, family: Family) -> Layer {
    let snapshot = &replay.snapshot;
    #[allow(clippy::cast_precision_loss)]
    let n = ops.max(1) as f64;
    // Every span whose path ends in `suffix`: (times entered, total µs).
    let spans_ending = |suffix: &str| {
        let nested = format!("/{suffix}");
        snapshot
            .spans
            .iter()
            .filter(|(path, _)| path == suffix || path.ends_with(&nested))
            .fold((0u64, 0.0), |(count, us), (_, s)| {
                (count + s.count, us + s.total.as_secs_f64() * 1e6)
            })
    };
    // µs per operation; a span never entered is a true 0: the collector
    // was on and the layer was not called.
    let span_us = |suffix: &str| Some(spans_ending(suffix).1 / n);
    let count = |c: Counter| {
        snapshot
            .counters
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0, |(_, v)| *v)
    };
    #[allow(clippy::cast_precision_loss)]
    let per_op = |c: Counter| Some(count(c) as f64 / n);
    let validate = Some((spans_ending("synth/verify").1 + spans_ending("synth/optimality").1) / n);
    // A mean over trainings: does not exist where nothing was trained.
    let epochs = snapshot
        .hists
        .iter()
        .find(|(h, d)| *h == Hist::SvmIterations && d.count > 0)
        .map(|(_, d)| d.mean());
    let (synth_calls, synth_us) = spans_ending("synth");
    let mut layer = vec![
        ("core.synth_us", span_us("synth")),
        ("core.generate_us", span_us("synth/generate")),
        ("core.learn_us", span_us("synth/learn")),
        ("core.validate_us", validate),
        ("core.cegis_rounds_per_op", per_op(Counter::CegisRounds)),
        (
            "core.static_share",
            share(count(Counter::AnalyzeDeriveStatic), synth_calls),
        ),
        ("smt.check_us", span_us("smt.check")),
        ("smt.checks_per_op", per_op(Counter::SmtChecks)),
        ("smt.sat_conflicts_per_op", per_op(Counter::SatConflicts)),
        ("smt.simplex_pivots_per_op", per_op(Counter::SimplexPivots)),
        ("svm.train_us", span_us("svm.train")),
        ("svm.trainings_per_op", per_op(Counter::SvmTrainings)),
        ("svm.epochs_per_training", epochs),
    ];
    if family == Family::Engine {
        // Synthesis runs inside `move_around`, where rounds per call are
        // not visible from outside: all of it counts as CEGIS time.
        layer.push((
            "core.cegis_time_share",
            Some(synth_us / 1e6 / replay.traced_s().max(1e-9)),
        ));
    }
    layer
}
