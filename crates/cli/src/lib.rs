//! Library backing the `sia` command-line tool (kept as a library so the
//! argument parser and command runners are unit-testable).

#![warn(missing_docs)]

use std::time::Duration;

use sia_core::baselines::transitive_closure;
use sia_core::{rewrite_query, PredEncoder, SiaConfig, SynthesisError, Synthesizer};
use sia_expr::Catalog;
use sia_serve::{client, protocol, server, ServeConfig};
use sia_smt::{Budget, QeConfig, SmtResult};
use sia_sql::{parse_predicate, parse_query};

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage:
  sia synth   <predicate> --cols <c1,c2,…> [--v1|--v2] [--max-iter N]
              [--timeout-ms N] [--metrics] [--trace FILE]
  sia solve   <predicate>
  sia lint    <predicate> [--format text|json]
  sia lint    <query-sql> --plan [--format text|json]
  sia plan    <query-sql> [--mode off|static|synth] [--explain]
  sia project <predicate> --keep <c1,c2,…>
  sia rewrite <query-sql> --table <name>        (TPC-H benchmark schema)
  sia baseline <predicate> --cols <c1,c2,…>
  sia serve   [--addr HOST:PORT] [--workers N] [--cache-capacity N]
              [--queue-depth N] [--delay-budget-ms N] [--timeout-ms N]
              [--cache-file FILE] [--snapshot-ms N] [--slow-log FILE]
              [--slow-ms N] [--metrics]
  sia batch   <requests.jsonl> [--addr HOST:PORT] [--concurrency N]
              [--timeout-ms N] [--retries N] [--retry-budget PCT]
              [--workload]
  sia gen     [--out FILE] [--table NAME] [--count N] [--seed N]
              [--min-terms N] [--max-terms N] [--zone any|eligible|ineligible]
              [--selectivity F] [--tolerance F] [--repeat-rate F]
              [--drift-rate F]
  sia top     [--addr HOST:PORT] [--interval-ms N] [--iterations N]

predicates use the paper's grammar, e.g. \"a - b < 5 AND b < 0\";
dates as DATE 'YYYY-MM-DD', intervals as INTERVAL 'n' DAY.
lint statically checks a predicate for contradictions, tautologies, and
type-suspect comparisons (the generator registry's column types —
TPC-H plus the synthetic schemas — are pre-seeded);
--format json emits one machine-readable object with per-finding
severities, and error-severity findings (contradictions) exit 3.
lint --plan lints a whole query plan against the registry schemas:
unreachable filters and join equalities contradicting scan filters are
error severity (exit 3), redundant derived predicates are warnings.
plan prints the optimized tree for a query over the registry tables;
--mode picks how far predicate move-around goes (off, static pull-up/
transition/push-down, or synth to also learn predicates at blocked
join boundaries) and --explain adds the pre-optimization tree and the
per-scan derivation report.
--metrics prints a per-phase wall-time and solver-counter breakdown;
--trace streams every span/counter event as JSONL to FILE.
serve speaks line-delimited JSON over TCP (one request object per line,
see `sia batch` input: {\"id\":…,\"predicate\":…,\"cols\":\"a,b\",\"timeout_ms\":…});
batch sends a file of such requests and prints one response per line.
--snapshot-ms makes serve write periodic crash-safe cache snapshots;
--delay-budget-ms (default 250, 0 = off) turns on overload resilience:
AIMD admission targeting that queue-delay budget, cheap/expensive
request lanes with expensive-first shedding, deadline expiry charged
from admission, and a brownout ladder under sustained pressure;
--slow-log appends a response exemplar (trace ID + phase breakdown) for
every request slower than --slow-ms (default 1000) to FILE;
--retries makes batch retry overloaded/failed requests with jittered
backoff, shedding client-side (degraded fallback) when retries run out;
--retry-budget caps retry volume at PCT% of fresh requests (default 10)
so a retrying batch cannot amplify a server overload.
gen writes a seed-deterministic workload file (header line echoing the
config, then one request per line) from the typed schema registry;
--zone steers zone-fragment eligibility, --selectivity targets a
measured selectivity on sampled rows, --repeat-rate/--drift-rate
control template repetition (the cache-hit knob) and parameter drift.
batch --workload replays such a file against a running server.
top polls the server's queue-free {\"op\":\"stats\"} endpoint every
--interval-ms (default 1000) and redraws a terminal view of live
counters, latency percentiles, cache hit rate, and per-phase totals;
--iterations N stops after N polls (0 = until interrupted).
fault injection: set SIA_FAILPOINTS=site=policy;… (see sia-fault docs).

exit codes: 0 success; 1 error; 2 synthesis timeout (synth) or
failed/timed-out requests in the batch (batch); 3 error-severity lint
findings (lint).";

/// Exit code for generic failures.
pub const EXIT_ERROR: u8 = 1;
/// Exit code for a synthesis timeout (or an all-timeout batch failure).
pub const EXIT_TIMEOUT: u8 = 2;
/// Exit code when `sia lint` reports at least one error-severity finding.
pub const EXIT_LINT: u8 = 3;

/// A CLI failure: a message plus the process exit code it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
    /// Process exit code (see [`EXIT_ERROR`], [`EXIT_TIMEOUT`]).
    pub code: u8,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            code: EXIT_ERROR,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::from(message.to_string())
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Synthesize a reduced predicate.
    Synth {
        /// The predicate source.
        predicate: String,
        /// Target columns.
        cols: Vec<String>,
        /// Which preset: "sia" (default), "v1", "v2".
        variant: String,
        /// Optional iteration override.
        max_iter: Option<u32>,
        /// Deadline for the whole synthesis run.
        timeout_ms: Option<u64>,
        /// Print the per-phase metrics summary after synthesis.
        metrics: bool,
        /// Stream a JSONL span/event trace to this file.
        trace: Option<String>,
    },
    /// Check satisfiability and print a model.
    Solve {
        /// The predicate source.
        predicate: String,
    },
    /// Statically analyze a predicate for contradictions, tautologies,
    /// and type-suspect comparisons — or, with `--plan`, lint a whole
    /// query plan for unreachable filters, redundant predicates, and
    /// join equalities that contradict scan filters.
    Lint {
        /// The predicate source (a full SQL query when `plan` is set).
        predicate: String,
        /// Output format: "text" (default) or "json".
        format: String,
        /// Lint the optimizer plan of a SQL query instead of a predicate.
        plan: bool,
    },
    /// Plan a SQL query against the generator registry and show what the
    /// move-around pass derives.
    Plan {
        /// The query source.
        sql: String,
        /// Move-around mode: "off", "static" (default), or "synth".
        mode: String,
        /// Show the pre-optimization tree and the per-scan derivation
        /// report alongside the optimized plan.
        explain: bool,
    },
    /// Project the predicate onto the kept columns (∃-eliminate the rest).
    Project {
        /// The predicate source.
        predicate: String,
        /// Columns to keep.
        keep: Vec<String>,
    },
    /// Rewrite a TPC-H benchmark query.
    Rewrite {
        /// The query source.
        sql: String,
        /// Target table for push-down.
        table: String,
    },
    /// Run the transitive-closure baseline.
    Baseline {
        /// The predicate source.
        predicate: String,
        /// Target columns.
        cols: Vec<String>,
    },
    /// Run the synthesis server until a client sends `shutdown`.
    Serve {
        /// Listen address.
        addr: String,
        /// Worker threads.
        workers: usize,
        /// Predicate-cache capacity in entries (0 disables caching).
        cache_capacity: usize,
        /// Bounded request-queue depth (admission control).
        queue_depth: usize,
        /// AIMD queue-delay budget in milliseconds; 0 disables adaptive
        /// admission, two-lane shedding, and brownout (fixed queue cap).
        delay_budget_ms: u64,
        /// Default per-request deadline.
        timeout_ms: Option<u64>,
        /// Cache persistence file (loaded at startup, saved on shutdown).
        cache_file: Option<String>,
        /// Periodic crash-safe cache snapshot interval, in milliseconds.
        snapshot_ms: Option<u64>,
        /// Slow-request log file (JSONL response exemplars).
        slow_log: Option<String>,
        /// Slow-log latency threshold in milliseconds (default 1000).
        slow_ms: Option<u64>,
        /// Print the metrics summary when the server stops.
        metrics: bool,
    },
    /// Send a JSONL file of requests to a running server.
    Batch {
        /// Path to the requests file (one JSON request per line).
        file: String,
        /// Server address.
        addr: String,
        /// Client connections used in parallel.
        concurrency: usize,
        /// Deadline applied to requests that carry none.
        timeout_ms: Option<u64>,
        /// Retries per request for overloaded/failed sends (0 = off).
        retries: u32,
        /// Retry-budget cap as a percentage of fresh requests (default
        /// 10): retries beyond the budget are shed client-side.
        retry_budget: u32,
        /// Treat the file as a `sia gen` workload (header + typed
        /// requests) instead of raw protocol request lines.
        workload: bool,
    },
    /// Generate a workload file of synthesis requests.
    Gen {
        /// Output file; stdout when absent.
        out: Option<String>,
        /// Generator knobs assembled from the flags.
        config: sia_gen::GenConfig,
    },
    /// Poll a running server's live telemetry into a refreshing
    /// terminal view.
    Top {
        /// Server address.
        addr: String,
        /// Refresh interval in milliseconds.
        interval_ms: u64,
        /// Polls before exiting (0 = run until interrupted).
        iterations: u64,
    },
}

impl Command {
    /// Parse raw arguments (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        let sub = it.next().ok_or("missing subcommand")?;
        let mut rest: Vec<String> = it.cloned().collect();
        // Every subcommand except `serve`, `top`, and `gen` takes one
        // positional argument.
        let positional = if matches!(sub.as_str(), "serve" | "top" | "gen") {
            String::new()
        } else if rest.is_empty() || rest[0].starts_with("--") {
            return Err("missing argument".into());
        } else {
            rest.remove(0)
        };
        let mut cols = Vec::new();
        let mut keep = Vec::new();
        let mut table = None;
        let mut variant = "sia".to_string();
        let mut max_iter = None;
        let mut metrics = false;
        let mut trace = None;
        let mut timeout_ms = None;
        let mut addr = None;
        let mut workers: Option<usize> = None;
        let mut cache_capacity = 1024usize;
        let mut queue_depth = 64usize;
        let mut cache_file = None;
        let mut snapshot_ms = None;
        let mut delay_budget_ms: Option<u64> = None;
        let mut concurrency = 4usize;
        let mut retries = 0u32;
        let mut retry_budget: Option<u32> = None;
        let mut format: Option<String> = None;
        let mut slow_log = None;
        let mut slow_ms = None;
        let mut interval_ms: Option<u64> = None;
        let mut iterations: Option<u64> = None;
        let mut workload = false;
        let mut out: Option<String> = None;
        let mut count: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut min_terms: Option<usize> = None;
        let mut max_terms: Option<usize> = None;
        let mut zone: Option<sia_gen::ZonePolicy> = None;
        let mut selectivity: Option<f64> = None;
        let mut tolerance: Option<f64> = None;
        let mut repeat_rate: Option<f64> = None;
        let mut drift_rate: Option<f64> = None;
        let mut mode: Option<String> = None;
        let mut explain = false;
        let mut plan = false;
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--cols" => {
                    i += 1;
                    cols = split_list(rest.get(i).ok_or("--cols needs a value")?);
                }
                "--keep" => {
                    i += 1;
                    keep = split_list(rest.get(i).ok_or("--keep needs a value")?);
                }
                "--table" => {
                    i += 1;
                    table = Some(rest.get(i).ok_or("--table needs a value")?.clone());
                }
                "--max-iter" => {
                    i += 1;
                    max_iter = Some(
                        rest.get(i)
                            .ok_or("--max-iter needs a value")?
                            .parse()
                            .map_err(|_| "--max-iter must be an integer")?,
                    );
                }
                "--timeout-ms" => {
                    i += 1;
                    timeout_ms = Some(parse_num(rest.get(i), "--timeout-ms")?);
                }
                "--addr" => {
                    i += 1;
                    addr = Some(rest.get(i).ok_or("--addr needs a value")?.clone());
                }
                "--workers" => {
                    i += 1;
                    workers = Some(parse_num(rest.get(i), "--workers")?);
                }
                "--cache-capacity" => {
                    i += 1;
                    cache_capacity = parse_num(rest.get(i), "--cache-capacity")?;
                }
                "--queue-depth" => {
                    i += 1;
                    queue_depth = parse_num(rest.get(i), "--queue-depth")?;
                }
                "--cache-file" => {
                    i += 1;
                    cache_file = Some(rest.get(i).ok_or("--cache-file needs a value")?.clone());
                }
                "--snapshot-ms" => {
                    i += 1;
                    snapshot_ms = Some(parse_num(rest.get(i), "--snapshot-ms")?);
                }
                "--delay-budget-ms" => {
                    i += 1;
                    delay_budget_ms = Some(parse_num(rest.get(i), "--delay-budget-ms")?);
                }
                "--slow-log" => {
                    i += 1;
                    slow_log = Some(rest.get(i).ok_or("--slow-log needs a file path")?.clone());
                }
                "--slow-ms" => {
                    i += 1;
                    slow_ms = Some(parse_num(rest.get(i), "--slow-ms")?);
                }
                "--interval-ms" => {
                    i += 1;
                    interval_ms = Some(parse_num(rest.get(i), "--interval-ms")?);
                }
                "--iterations" => {
                    i += 1;
                    iterations = Some(parse_num(rest.get(i), "--iterations")?);
                }
                "--concurrency" => {
                    i += 1;
                    concurrency = parse_num(rest.get(i), "--concurrency")?;
                }
                "--retries" => {
                    i += 1;
                    retries = parse_num(rest.get(i), "--retries")?;
                }
                "--retry-budget" => {
                    i += 1;
                    retry_budget = Some(parse_num(rest.get(i), "--retry-budget")?);
                }
                "--format" => {
                    i += 1;
                    let f = rest.get(i).ok_or("--format needs a value")?.clone();
                    if f != "text" && f != "json" {
                        return Err(format!("--format must be text or json, got {f:?}"));
                    }
                    format = Some(f);
                }
                "--workload" => workload = true,
                "--out" => {
                    i += 1;
                    out = Some(rest.get(i).ok_or("--out needs a file path")?.clone());
                }
                "--count" => {
                    i += 1;
                    count = Some(parse_num(rest.get(i), "--count")?);
                }
                "--seed" => {
                    i += 1;
                    seed = Some(parse_num(rest.get(i), "--seed")?);
                }
                "--min-terms" => {
                    i += 1;
                    min_terms = Some(parse_num(rest.get(i), "--min-terms")?);
                }
                "--max-terms" => {
                    i += 1;
                    max_terms = Some(parse_num(rest.get(i), "--max-terms")?);
                }
                "--zone" => {
                    i += 1;
                    let z = rest.get(i).ok_or("--zone needs a value")?;
                    zone = Some(sia_gen::ZonePolicy::parse(z)?);
                }
                "--selectivity" => {
                    i += 1;
                    selectivity = Some(parse_float(rest.get(i), "--selectivity")?);
                }
                "--tolerance" => {
                    i += 1;
                    tolerance = Some(parse_float(rest.get(i), "--tolerance")?);
                }
                "--repeat-rate" => {
                    i += 1;
                    repeat_rate = Some(parse_float(rest.get(i), "--repeat-rate")?);
                }
                "--drift-rate" => {
                    i += 1;
                    drift_rate = Some(parse_float(rest.get(i), "--drift-rate")?);
                }
                "--mode" => {
                    i += 1;
                    let m = rest.get(i).ok_or("--mode needs a value")?.clone();
                    sia_engine::MoveAround::parse(&m)?;
                    mode = Some(m);
                }
                "--explain" => explain = true,
                "--plan" => plan = true,
                "--v1" => variant = "v1".to_string(),
                "--v2" => variant = "v2".to_string(),
                "--metrics" => metrics = true,
                "--trace" => {
                    i += 1;
                    trace = Some(rest.get(i).ok_or("--trace needs a file path")?.clone());
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
            i += 1;
        }
        if (metrics && !matches!(sub.as_str(), "synth" | "serve"))
            || (trace.is_some() && sub != "synth")
        {
            return Err("--metrics applies to synth/serve; --trace to synth".into());
        }
        if timeout_ms.is_some() && !matches!(sub.as_str(), "synth" | "serve" | "batch") {
            return Err("--timeout-ms applies to synth, serve, and batch".into());
        }
        if format.is_some() && sub != "lint" {
            return Err("--format applies to lint".into());
        }
        if (mode.is_some() || explain) && sub != "plan" {
            return Err("--mode/--explain apply to plan".into());
        }
        if plan && sub != "lint" {
            return Err("--plan applies to lint".into());
        }
        if (slow_log.is_some() || slow_ms.is_some() || delay_budget_ms.is_some()) && sub != "serve"
        {
            return Err("--slow-log/--slow-ms/--delay-budget-ms apply to serve".into());
        }
        if retry_budget.is_some() && sub != "batch" {
            return Err("--retry-budget applies to batch".into());
        }
        if (interval_ms.is_some() || iterations.is_some()) && sub != "top" {
            return Err("--interval-ms/--iterations apply to top".into());
        }
        if workload && sub != "batch" {
            return Err("--workload applies to batch".into());
        }
        if out.is_some() && sub != "gen" {
            return Err("--out applies to gen".into());
        }
        let gen_only = count.is_some()
            || min_terms.is_some()
            || max_terms.is_some()
            || zone.is_some()
            || selectivity.is_some()
            || tolerance.is_some()
            || repeat_rate.is_some()
            || drift_rate.is_some();
        if gen_only && sub != "gen" {
            return Err("the generator knobs apply to gen".into());
        }
        if seed.is_some() && sub != "gen" {
            return Err("--seed applies to gen".into());
        }
        match sub.as_str() {
            "synth" => {
                if cols.is_empty() {
                    return Err("synth requires --cols".into());
                }
                Ok(Command::Synth {
                    predicate: positional,
                    cols,
                    variant,
                    max_iter,
                    timeout_ms,
                    metrics,
                    trace,
                })
            }
            "solve" => Ok(Command::Solve {
                predicate: positional,
            }),
            "lint" => Ok(Command::Lint {
                predicate: positional,
                format: format.unwrap_or_else(|| "text".to_string()),
                plan,
            }),
            "plan" => Ok(Command::Plan {
                sql: positional,
                mode: mode.unwrap_or_else(|| "static".to_string()),
                explain,
            }),
            "project" => {
                if keep.is_empty() {
                    return Err("project requires --keep".into());
                }
                Ok(Command::Project {
                    predicate: positional,
                    keep,
                })
            }
            "rewrite" => Ok(Command::Rewrite {
                sql: positional,
                table: table.ok_or("rewrite requires --table")?,
            }),
            "baseline" => {
                if cols.is_empty() {
                    return Err("baseline requires --cols".into());
                }
                Ok(Command::Baseline {
                    predicate: positional,
                    cols,
                })
            }
            "serve" => Ok(Command::Serve {
                addr: addr.unwrap_or_else(|| "127.0.0.1:7171".to_string()),
                workers: workers.unwrap_or(2),
                cache_capacity,
                queue_depth,
                delay_budget_ms: delay_budget_ms.unwrap_or(250),
                timeout_ms,
                cache_file,
                snapshot_ms,
                slow_log,
                slow_ms,
                metrics,
            }),
            "batch" => Ok(Command::Batch {
                file: positional,
                addr: addr.unwrap_or_else(|| "127.0.0.1:7171".to_string()),
                concurrency,
                timeout_ms,
                retries,
                retry_budget: retry_budget.unwrap_or(10),
                workload,
            }),
            "gen" => {
                let d = sia_gen::GenConfig::default();
                Ok(Command::Gen {
                    out,
                    config: sia_gen::GenConfig {
                        table: table.unwrap_or(d.table),
                        count: count.unwrap_or(d.count),
                        seed: seed.unwrap_or(d.seed),
                        min_terms: min_terms.unwrap_or(d.min_terms),
                        max_terms: max_terms.unwrap_or(d.max_terms),
                        zone: zone.unwrap_or(d.zone),
                        target_selectivity: selectivity.or(d.target_selectivity),
                        selectivity_tolerance: tolerance.unwrap_or(d.selectivity_tolerance),
                        repeat_rate: repeat_rate.unwrap_or(d.repeat_rate),
                        drift_rate: drift_rate.unwrap_or(d.drift_rate),
                        ..d
                    },
                })
            }
            "top" => Ok(Command::Top {
                addr: addr.unwrap_or_else(|| "127.0.0.1:7171".to_string()),
                interval_ms: interval_ms.unwrap_or(1000),
                iterations: iterations.unwrap_or(0),
            }),
            other => Err(format!("unknown subcommand {other:?}")),
        }
    }
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect()
}

fn parse_num<T: std::str::FromStr>(arg: Option<&String>, flag: &str) -> Result<T, String> {
    arg.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} must be an integer"))
}

fn parse_float(arg: Option<&String>, flag: &str) -> Result<f64, String> {
    let v: f64 = arg
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} must be a number"))?;
    if !v.is_finite() {
        return Err(format!("{flag} must be finite"));
    }
    Ok(v)
}

/// A planning-only database: every generator-registry table registered
/// empty, so `plan`/`lint --plan` can resolve columns without data.
fn registry_db() -> sia_engine::Database {
    let mut db = sia_engine::Database::new();
    for spec in sia_gen::tables() {
        db.insert(spec.name, sia_engine::Table::empty(spec.schema()));
    }
    db
}

/// Execute a command, returning its printable output. Failures carry the
/// process exit code: 1 for errors, 2 for synthesis timeouts.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Synth {
            predicate,
            cols,
            variant,
            max_iter,
            timeout_ms,
            metrics,
            trace,
        } => {
            let p = parse_predicate(&predicate).map_err(|e| e.to_string())?;
            let mut config = match variant.as_str() {
                "v1" => SiaConfig::v1(),
                "v2" => SiaConfig::v2(),
                _ => SiaConfig::default(),
            };
            if let Some(m) = max_iter {
                config.max_iterations = m;
            }
            if let Some(ms) = timeout_ms {
                config.budget = Budget::with_deadline(Duration::from_millis(ms));
            }
            let observe = metrics || trace.is_some();
            if observe {
                sia_obs::reset();
                sia_obs::enable();
                if let Some(path) = &trace {
                    let sink = sia_obs::JsonlSink::create(path)
                        .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
                    sia_obs::set_sink(Box::new(sink));
                }
            }
            let mut syn = Synthesizer::new(config);
            let result = syn.synthesize(&p, &cols).map_err(|e| CliError {
                message: e.to_string(),
                code: if e == SynthesisError::Timeout {
                    EXIT_TIMEOUT
                } else {
                    EXIT_ERROR
                },
            });
            // Tear observability down before propagating any error so a
            // failed run still flushes its trace file.
            let summary = if observe {
                if trace.is_some() {
                    drop(sia_obs::take_sink());
                }
                sia_obs::disable();
                metrics.then(sia_obs::summary)
            } else {
                None
            };
            let r = result?;
            let mut out = String::new();
            match &r.predicate {
                Some(q) => out.push_str(&format!("predicate: {q}\n")),
                None => out.push_str("predicate: TRUE (nothing non-trivial is valid)\n"),
            }
            if r.derived_static {
                out.push_str("derived: static\n");
            }
            out.push_str(&format!(
                "optimal: {}\niterations: {}\nsamples: {} TRUE / {} FALSE",
                r.optimal, r.stats.iterations, r.stats.true_samples, r.stats.false_samples
            ));
            if let Some(summary) = summary {
                out.push_str("\n\n== metrics ==\n");
                out.push_str(&summary.to_string());
                if let Some(cov) = summary.snapshot.coverage("synth") {
                    out.push_str(&format!(
                        "phase coverage: {:.1}% of synthesis wall time attributed",
                        100.0 * cov
                    ));
                }
            }
            Ok(out)
        }
        Command::Solve { predicate } => {
            let p = parse_predicate(&predicate).map_err(|e| e.to_string())?;
            let mut enc = PredEncoder::new();
            let f = enc.encode(&p).map_err(|e| e.to_string())?;
            let cols: Vec<(String, sia_smt::VarId)> =
                enc.columns().map(|(c, v)| (c.to_string(), v)).collect();
            match enc.solver().check(&f) {
                SmtResult::Sat(m) => {
                    let mut out = String::from("sat\n");
                    for (c, v) in cols {
                        out.push_str(&format!("  {c} = {}\n", m.rat(v)));
                    }
                    Ok(out.trim_end().to_string())
                }
                SmtResult::Unsat => Ok("unsat".to_string()),
                SmtResult::Unknown => Ok("unknown (budget exhausted)".to_string()),
            }
        }
        Command::Lint {
            predicate,
            format,
            plan,
        } => {
            let warnings = if plan {
                // Plan lint: build the optimizer plan of a full query
                // against the registry schemas and analyze it globally.
                let query = parse_query(&predicate).map_err(|e| e.to_string())?;
                let db = registry_db();
                let p = db.plan(&query).map_err(|e| e.to_string())?;
                sia_engine::lint_plan(&p, &|t| db.schema_of(t))
            } else {
                let p = parse_predicate(&predicate).map_err(|e| e.to_string())?;
                // Seed the analyzer from the generator's schema registry
                // (all TPC-H tables plus the synthetic `wide` schema) so
                // DATE and DOUBLE columns are typed; unknown columns
                // default to INTEGER NOT NULL, matching the synthesizer's
                // encoder.
                let schemas = sia_gen::schemas();
                sia_analyze::Analyzer::with_schemas(schemas.iter().map(|(_, s)| s)).lint(&p)
            };
            let errors = warnings.iter().filter(|w| w.severity() == "error").count();
            let out = if format == "json" {
                let findings: Vec<String> = warnings
                    .iter()
                    .map(|w| {
                        format!(
                            "{{\"severity\":\"{}\",\"code\":\"{}\",\"message\":{}}}",
                            w.severity(),
                            w.code,
                            sia_obs::json_string(&w.message)
                        )
                    })
                    .collect();
                format!(
                    "{{\"findings\":[{}],\"errors\":{errors},\"warnings\":{}}}",
                    findings.join(","),
                    warnings.len() - errors
                )
            } else if warnings.is_empty() {
                "no warnings".to_string()
            } else {
                warnings
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            if errors > 0 {
                // Findings still belong on stdout; only the verdict goes
                // to stderr via the error path (the batch precedent).
                println!("{out}");
                return Err(CliError {
                    message: format!("lint: {errors} error-severity finding(s)"),
                    code: EXIT_LINT,
                });
            }
            Ok(out)
        }
        Command::Plan { sql, mode, explain } => {
            let query = parse_query(&sql).map_err(|e| e.to_string())?;
            let mode = sia_engine::MoveAround::parse(&mode)?;
            let db = registry_db();
            let before = db.plan(&query).map_err(|e| e.to_string())?;
            let (moved, report) =
                sia_engine::move_around(before.clone(), &|t| db.schema_of(t), mode);
            let optimized = sia_engine::optimize(
                moved,
                &|t| {
                    db.schema_of(t)
                        .map(|s| s.columns().iter().map(|c| c.name.clone()).collect())
                        .unwrap_or_default()
                },
                sia_engine::OptimizerConfig::default(),
            );
            let mut out = String::new();
            if explain {
                out.push_str("== before ==\n");
                out.push_str(&before.to_string());
                out.push_str("== after ==\n");
            }
            out.push_str(&optimized.to_string());
            if explain {
                out.push_str("== move-around ==\n");
                out.push_str(&report.to_string());
                out.push_str(&format!(
                    "filters below joins: {} -> {}",
                    before.filters_below_joins(),
                    optimized.filters_below_joins()
                ));
            }
            Ok(out.trim_end().to_string())
        }
        Command::Project { predicate, keep } => {
            let p = parse_predicate(&predicate).map_err(|e| e.to_string())?;
            let mut enc = PredEncoder::new();
            let f = enc.encode(&p).map_err(|e| e.to_string())?;
            let keep_vars: Vec<_> = keep.iter().map(|c| enc.value_var(c)).collect();
            let others: Vec<_> = enc
                .columns()
                .map(|(_, v)| v)
                .filter(|v| !keep_vars.contains(v))
                .collect();
            let projected = sia_smt::eliminate_exists(&f, &others, &QeConfig::default())
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "∃-projection onto {keep:?} (solver variables v0..):\n{projected}"
            ))
        }
        Command::Rewrite { sql, table } => {
            let q = parse_query(&sql).map_err(|e| e.to_string())?;
            let mut cat = Catalog::new();
            cat.add_table("orders", sia_tpch::orders_schema());
            cat.add_table("lineitem", sia_tpch::lineitem_schema());
            let mut syn = Synthesizer::default();
            let outcome = rewrite_query(&mut syn, &q, &cat, &table).map_err(|e| e.to_string())?;
            match outcome.rewritten {
                Some(rw) => Ok(format!(
                    "synthesized: {}\nrewritten: {rw}",
                    outcome.synthesized.expect("present with rewritten")
                )),
                None => Ok("no useful predicate found; query unchanged".to_string()),
            }
        }
        Command::Baseline { predicate, cols } => {
            let p = parse_predicate(&predicate).map_err(|e| e.to_string())?;
            match transitive_closure(&p, &cols) {
                Some(tc) => Ok(format!("transitive closure derives: {tc}")),
                None => Ok("transitive closure derives: nothing".to_string()),
            }
        }
        Command::Serve {
            addr,
            workers,
            cache_capacity,
            queue_depth,
            delay_budget_ms,
            timeout_ms,
            cache_file,
            snapshot_ms,
            slow_log,
            slow_ms,
            metrics,
        } => {
            if metrics {
                sia_obs::reset();
                sia_obs::enable();
            }
            let handle = server::start(ServeConfig {
                addr,
                workers,
                cache_capacity,
                queue_depth,
                admission_delay_budget: (delay_budget_ms > 0)
                    .then(|| Duration::from_millis(delay_budget_ms)),
                default_timeout_ms: timeout_ms,
                cache_file,
                snapshot_interval: snapshot_ms.map(Duration::from_millis),
                slow_log_file: slow_log,
                slow_threshold: Duration::from_millis(slow_ms.unwrap_or(1000)),
                lint_schemas: sia_gen::schemas().into_iter().map(|(_, s)| s).collect(),
            })
            .map_err(|e| format!("cannot start server: {e}"))?;
            // Announce readiness immediately; `run` only returns output
            // after shutdown, and clients need the address to connect.
            println!("sia-serve listening on {}", handle.addr());
            let cache = handle.cache_arc();
            handle
                .wait()
                .map_err(|e| format!("server shutdown failed: {e}"))?;
            let stats = cache.stats();
            let mut out = format!(
                "server stopped\ncache: {} hits / {} misses / {} inserts / {} evictions \
                 (hit rate {:.1}%)",
                stats.hits,
                stats.misses,
                stats.inserts,
                stats.evictions,
                100.0 * stats.hit_rate()
            );
            if metrics {
                sia_obs::disable();
                out.push_str("\n\n== metrics ==\n");
                out.push_str(&sia_obs::summary().to_string());
            }
            Ok(out)
        }
        Command::Batch {
            file,
            addr,
            concurrency,
            timeout_ms,
            retries,
            retry_budget,
            workload,
        } => {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let mut requests = Vec::new();
            if workload {
                // A `sia gen` workload file: typed requests behind a config
                // header, replayed as plain synthesis requests.
                let wl = sia_gen::from_str(&text).map_err(|e| format!("{file}: {e}"))?;
                for r in wl.requests {
                    requests.push(sia_serve::Request {
                        id: r.id,
                        predicate: r.predicate.to_string(),
                        cols: r.cols,
                        timeout_ms,
                        trace: None,
                    });
                }
            } else {
                for (lineno, line) in text.lines().enumerate() {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    match protocol::parse_request(line)
                        .map_err(|e| format!("{file}:{}: {e}", lineno + 1))?
                    {
                        protocol::RequestLine::Synth(mut r) => {
                            if r.timeout_ms.is_none() {
                                r.timeout_ms = timeout_ms;
                            }
                            requests.push(r);
                        }
                        protocol::RequestLine::Shutdown
                        | protocol::RequestLine::Health
                        | protocol::RequestLine::Stats => {
                            return Err(format!(
                                "{file}:{}: control requests are not allowed in a batch",
                                lineno + 1
                            )
                            .into())
                        }
                    }
                }
            }
            let (responses, retried, shed) = if retries > 0 {
                let policy = sia_serve::RetryPolicy {
                    attempts: retries.saturating_add(1),
                    budget_ratio: f64::from(retry_budget) / 100.0,
                    ..sia_serve::RetryPolicy::default()
                };
                let outcome = client::run_batch_retry(&addr, &requests, concurrency, &policy);
                (outcome.responses, outcome.retried, outcome.shed)
            } else {
                let responses = client::run_batch(&addr, &requests, concurrency)
                    .map_err(|e| format!("batch against {addr} failed: {e}"))?;
                (responses, 0, 0)
            };
            let mut out = String::new();
            let mut ok = 0usize;
            let mut timeouts = 0usize;
            let mut expired = 0usize;
            let mut failed = 0usize;
            let mut degraded = 0usize;
            for r in &responses {
                out.push_str(&r.to_line());
                out.push('\n');
                degraded += usize::from(r.degraded);
                match r.status {
                    sia_serve::Status::Ok => ok += 1,
                    sia_serve::Status::Timeout => timeouts += 1,
                    // Deadline expiry in the server queue is a deadline
                    // outcome, not a hard failure: exit code 2.
                    sia_serve::Status::Expired => expired += 1,
                    _ => failed += 1,
                }
            }
            out.push_str(&format!(
                "batch: {ok} ok / {timeouts} timeout / {failed} failed of {} requests",
                responses.len()
            ));
            if degraded + retried + shed + expired > 0 {
                out.push_str(&format!(
                    " ({degraded} degraded, {retried} retried, {shed} shed, {expired} expired)"
                ));
            }
            if timeouts + expired + failed > 0 {
                // Responses still belong on stdout; only the verdict goes to
                // stderr via the error path.
                println!("{out}");
                return Err(CliError {
                    message: format!(
                        "batch: {timeouts} timed out, {expired} expired, {failed} failed of {} \
                         requests",
                        responses.len()
                    ),
                    code: if failed == 0 {
                        EXIT_TIMEOUT
                    } else {
                        EXIT_ERROR
                    },
                });
            }
            Ok(out)
        }
        Command::Gen { out, config } => {
            let requests = sia_gen::generate(&config)?;
            let text = sia_gen::to_string(&config, &requests);
            match out {
                Some(path) => {
                    std::fs::write(&path, &text)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    Ok(format!(
                        "wrote {} requests to {path} (table {}, seed {:#x})",
                        requests.len(),
                        config.table,
                        config.seed
                    ))
                }
                None => Ok(text.trim_end().to_string()),
            }
        }
        Command::Top {
            addr,
            interval_ms,
            iterations,
        } => {
            let mut polls = 0u64;
            loop {
                let resp = client::stats(&addr)
                    .map_err(|e| format!("cannot fetch stats from {addr}: {e}"))?;
                let frame = render_top(&addr, &resp);
                polls += 1;
                if iterations != 0 && polls >= iterations {
                    // The final frame is the command's output (and the
                    // only one when --iterations 1, the scriptable mode).
                    return Ok(frame);
                }
                // Clear screen + cursor home, like `top`.
                println!("\u{1b}[2J\u{1b}[H{frame}");
                std::io::Write::flush(&mut std::io::stdout()).ok();
                std::thread::sleep(Duration::from_millis(interval_ms.max(50)));
            }
        }
    }
}

/// Render one `sia top` frame from a `stats` response.
fn render_top(addr: &str, resp: &sia_serve::Response) -> String {
    use std::fmt::Write as _;
    let s = resp.stats.unwrap_or_default();
    let dur_ms = |ms: u64| sia_obs::fmt_duration(Duration::from_millis(ms));
    let dur_us = |us: u64| sia_obs::fmt_duration(Duration::from_micros(us));
    let mut out = String::new();
    let _ = writeln!(out, "sia top — {addr} (uptime {})", dur_ms(s.uptime_ms));
    if let Some(h) = &resp.health {
        let _ = writeln!(
            out,
            "workers  {}/{}  queue {}  restarts {}  breaker {}",
            h.workers,
            h.target,
            h.queue,
            h.restarts,
            if h.breaker_open { "open" } else { "closed" }
        );
    }
    let _ = writeln!(
        out,
        "requests {} accepted / {} completed / {} rejected\n\
         outcomes {} timeout / {} error / {} degraded / {} slow",
        s.requests, s.completed, s.rejected, s.timeouts, s.errors, s.degraded, s.slow
    );
    let _ = writeln!(
        out,
        "control  limit {}  brownout L{}  expired {}  shed {}",
        s.admission_limit, s.brownout, s.expired, s.shed
    );
    let _ = writeln!(
        out,
        "cache    {} hits / {} misses (hit rate {:.1}%)",
        s.cache_hits,
        s.cache_misses,
        100.0 * s.hit_rate()
    );
    let _ = writeln!(
        out,
        "latency  p50 {}  p90 {}  p99 {}  p99.9 {}  mean {}",
        dur_us(s.p50_us),
        dur_us(s.p90_us),
        dur_us(s.p99_us),
        dur_us(s.p999_us),
        dur_us(s.mean_us)
    );
    if !resp.phases.is_empty() {
        let _ = writeln!(out, "\n{:<24} {:>10} {:>7}", "phase", "total", "share");
        for (path, us) in &resp.phases {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            #[allow(clippy::cast_precision_loss)]
            let share = if s.total_us > 0 {
                100.0 * *us as f64 / s.total_us as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<24} {:>10} {share:>6.1}%",
                format!("{}{name}", "  ".repeat(depth)),
                dur_us(*us)
            );
        }
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_synth() {
        let cmd = Command::parse(&strs(&[
            "synth",
            "a < b",
            "--cols",
            "a,b",
            "--max-iter",
            "5",
            "--v2",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Synth {
                predicate: "a < b".into(),
                cols: strs(&["a", "b"]),
                variant: "v2".into(),
                max_iter: Some(5),
                timeout_ms: None,
                metrics: false,
                trace: None,
            }
        );
    }

    #[test]
    fn parse_observability_flags() {
        let cmd = Command::parse(&strs(&[
            "synth",
            "a < b",
            "--cols",
            "a",
            "--metrics",
            "--trace",
            "t.jsonl",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Synth { metrics: true, ref trace, .. } if trace.as_deref() == Some("t.jsonl")
        ));
        // --trace needs a value; the flags are synth-only.
        assert!(Command::parse(&strs(&["synth", "a < b", "--cols", "a", "--trace"])).is_err());
        assert!(Command::parse(&strs(&["solve", "a < b", "--metrics"])).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(Command::parse(&[]).is_err());
        assert!(Command::parse(&strs(&["synth", "a < b"])).is_err()); // no --cols
        assert!(Command::parse(&strs(&["nope", "x"])).is_err());
        assert!(Command::parse(&strs(&["rewrite", "SELECT"])).is_err()); // no --table
        assert!(Command::parse(&strs(&["solve", "a < b", "--bogus"])).is_err());
    }

    #[test]
    fn parse_serve_slow_log_flags() {
        let cmd = Command::parse(&strs(&[
            "serve",
            "--slow-log",
            "slow.jsonl",
            "--slow-ms",
            "250",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve { ref slow_log, slow_ms: Some(250), .. }
                if slow_log.as_deref() == Some("slow.jsonl")
        ));
        // The slow-log flags are serve-only.
        assert!(Command::parse(&strs(&["batch", "r.jsonl", "--slow-ms", "10"])).is_err());
        assert!(Command::parse(&strs(&["top", "--slow-log", "s.jsonl"])).is_err());
    }

    #[test]
    fn parse_top() {
        let cmd = Command::parse(&strs(&["top"])).unwrap();
        assert_eq!(
            cmd,
            Command::Top {
                addr: "127.0.0.1:7171".into(),
                interval_ms: 1000,
                iterations: 0,
            }
        );
        let cmd = Command::parse(&strs(&[
            "top",
            "--addr",
            "10.0.0.1:9999",
            "--interval-ms",
            "200",
            "--iterations",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Top {
                addr: "10.0.0.1:9999".into(),
                interval_ms: 200,
                iterations: 3,
            }
        );
        // The polling flags are top-only; values are validated.
        assert!(Command::parse(&strs(&["serve", "--interval-ms", "100"])).is_err());
        assert!(Command::parse(&strs(&["top", "--iterations", "x"])).is_err());
    }

    #[test]
    fn run_top_renders_live_stats() {
        let handle = sia_serve::server::start(sia_serve::ServeConfig {
            workers: 1,
            ..sia_serve::ServeConfig::default()
        })
        .expect("server starts");
        let addr = handle.addr().to_string();
        let resp = client::request_one(
            &addr,
            &sia_serve::Request {
                id: "t0".into(),
                predicate: "x < 5 AND y > 2".into(),
                cols: strs(&["x"]),
                timeout_ms: None,
                trace: None,
            },
        )
        .expect("request");
        assert_eq!(resp.status, sia_serve::Status::Ok, "{resp:?}");

        // --iterations 1 is the scriptable mode: one poll, one frame.
        let out = run(Command::Top {
            addr: addr.clone(),
            interval_ms: 10,
            iterations: 1,
        })
        .expect("top frame");
        assert!(out.contains(&format!("sia top — {addr}")), "{out}");
        assert!(out.contains("requests 1 accepted"), "{out}");
        assert!(out.contains("workers  1/1"), "{out}");
        assert!(out.contains("latency  p50"), "{out}");
        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn run_solve() {
        let out = run(Command::Solve {
            predicate: "x + y = 10 AND x - y = 4".into(),
        })
        .unwrap();
        assert!(out.starts_with("sat"));
        assert!(out.contains("x = 7"));
        assert!(out.contains("y = 3"));
        let out = run(Command::Solve {
            predicate: "x < 0 AND x > 0".into(),
        })
        .unwrap();
        assert_eq!(out, "unsat");
    }

    #[test]
    fn run_lint() {
        // A contradictory TPC-H date range: every row is filtered out —
        // an error-severity finding, so the run fails with EXIT_LINT.
        let err = run(Command::Lint {
            predicate: "l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1994-01-01'".into(),
            format: "text".into(),
            plan: false,
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        assert!(err.message.contains("error-severity"), "{err}");
        // A DATE column compared against a bare integer is type-suspect:
        // advisory only, exit 0.
        let out = run(Command::Lint {
            predicate: "l_shipdate < 19940101".into(),
            format: "text".into(),
            plan: false,
        })
        .unwrap();
        assert!(out.contains("DATE"), "{out}");
        // A sensible predicate is clean.
        let out = run(Command::Lint {
            predicate: "l_quantity < 24 AND l_discount >= 0".into(),
            format: "text".into(),
            plan: false,
        })
        .unwrap();
        assert_eq!(out, "no warnings");
        // Parsing is still enforced.
        assert!(run(Command::Lint {
            predicate: "a <".into(),
            format: "text".into(),
            plan: false,
        })
        .is_err());
    }

    #[test]
    fn run_lint_json() {
        // Advisory finding: JSON object on stdout, exit 0.
        let out = run(Command::Lint {
            predicate: "l_shipdate < 19940101".into(),
            format: "json".into(),
            plan: false,
        })
        .unwrap();
        assert!(out.starts_with("{\"findings\":["), "{out}");
        assert!(out.contains("\"severity\":\"warning\""), "{out}");
        assert!(out.contains("\"code\":\"type-suspect\""), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // Quotes/backticks in messages survive as valid JSON (the message
        // quotes the offending expression).
        assert!(!out.contains("\n"), "one JSON object per run: {out}");
        // Error-severity finding: still exit code 3 in JSON mode.
        let err = run(Command::Lint {
            predicate: "l_quantity < 0 AND l_quantity > 10".into(),
            format: "json".into(),
            plan: false,
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        // Clean predicate: empty findings array.
        let out = run(Command::Lint {
            predicate: "l_quantity < 24".into(),
            format: "json".into(),
            plan: false,
        })
        .unwrap();
        assert_eq!(out, "{\"findings\":[],\"errors\":0,\"warnings\":0}");
    }

    #[test]
    fn parse_lint() {
        let cmd = Command::parse(&strs(&["lint", "a < 0 AND a > 10"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                predicate: "a < 0 AND a > 10".into(),
                format: "text".into(),
                plan: false,
            }
        );
        let cmd = Command::parse(&strs(&["lint", "a < 0", "--format", "json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                predicate: "a < 0".into(),
                format: "json".into(),
                plan: false,
            }
        );
        assert!(Command::parse(&strs(&["lint"])).is_err());
        assert!(Command::parse(&strs(&["lint", "a < 0", "--format", "yaml"])).is_err());
        assert!(Command::parse(&strs(&["solve", "a < 0", "--format", "json"])).is_err());
    }

    #[test]
    fn parse_plan() {
        let cmd = Command::parse(&strs(&["plan", "SELECT * FROM nation"])).unwrap();
        assert_eq!(
            cmd,
            Command::Plan {
                sql: "SELECT * FROM nation".into(),
                mode: "static".into(),
                explain: false,
            }
        );
        let cmd = Command::parse(&strs(&[
            "plan",
            "SELECT * FROM nation",
            "--mode",
            "synth",
            "--explain",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Plan {
                sql: "SELECT * FROM nation".into(),
                mode: "synth".into(),
                explain: true,
            }
        );
        // Mode names are validated at parse time; flags are scoped.
        assert!(Command::parse(&strs(&["plan", "SELECT * FROM t", "--mode", "fast"])).is_err());
        assert!(Command::parse(&strs(&["solve", "a < 0", "--explain"])).is_err());
        assert!(Command::parse(&strs(&["plan", "SELECT * FROM t", "--plan"])).is_err());
        let cmd = Command::parse(&strs(&["lint", "SELECT * FROM nation", "--plan"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                predicate: "SELECT * FROM nation".into(),
                format: "text".into(),
                plan: true,
            }
        );
    }

    #[test]
    fn run_plan_explain_shows_derived_predicates() {
        // The registry chain: a selective region filter reaches the other
        // scans through the join equalities.
        let out = run(Command::Plan {
            sql: "SELECT * FROM customer, nation, region \
                  WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                  AND r_regionkey >= 3"
                .into(),
            mode: "static".into(),
            explain: true,
        })
        .unwrap();
        assert!(out.contains("== before =="), "{out}");
        assert!(out.contains("== after =="), "{out}");
        assert!(out.contains("== move-around =="), "{out}");
        assert!(out.contains("derived for scan nation"), "{out}");
        assert!(out.contains("filters below joins:"), "{out}");
        // Off mode still plans, just derives nothing.
        let out = run(Command::Plan {
            sql: "SELECT * FROM nation WHERE n_nationkey < 5".into(),
            mode: "off".into(),
            explain: false,
        })
        .unwrap();
        assert!(out.contains("SeqScan on nation"), "{out}");
        assert!(!out.contains("move-around"), "{out}");
    }

    #[test]
    fn run_lint_plan() {
        // A filter that can never be TRUE below a join: error severity,
        // exit 3.
        let err = run(Command::Lint {
            predicate: "SELECT * FROM nation, region \
                        WHERE n_regionkey = r_regionkey AND n_nationkey < 0 \
                        AND n_nationkey > 10"
                .into(),
            format: "text".into(),
            plan: true,
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        // A join equality contradicting the scan filters.
        let err = run(Command::Lint {
            predicate: "SELECT * FROM nation, region \
                        WHERE n_regionkey = r_regionkey AND n_regionkey < 1 \
                        AND r_regionkey > 3"
                .into(),
            format: "text".into(),
            plan: true,
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        // A redundant predicate is advisory: exit 0, JSON reports it.
        let out = run(Command::Lint {
            predicate: "SELECT * FROM nation \
                        WHERE n_nationkey < 5 AND n_nationkey < 10"
                .into(),
            format: "json".into(),
            plan: true,
        })
        .unwrap();
        assert!(out.contains("plan-redundant-predicate"), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // A clean plan lints clean.
        let out = run(Command::Lint {
            predicate: "SELECT * FROM nation, region \
                        WHERE n_regionkey = r_regionkey AND r_regionkey >= 3"
                .into(),
            format: "text".into(),
            plan: true,
        })
        .unwrap();
        assert_eq!(out, "no warnings");
    }

    #[test]
    fn parse_gen() {
        let cmd = Command::parse(&strs(&[
            "gen",
            "--table",
            "orders",
            "--count",
            "20",
            "--seed",
            "7",
            "--zone",
            "eligible",
            "--repeat-rate",
            "0.4",
            "--selectivity",
            "0.3",
        ]))
        .unwrap();
        let Command::Gen { out, config } = cmd else {
            panic!("expected gen");
        };
        assert_eq!(out, None);
        assert_eq!(config.table, "orders");
        assert_eq!(config.count, 20);
        assert_eq!(config.seed, 7);
        assert_eq!(config.zone, sia_gen::ZonePolicy::Eligible);
        assert_eq!(config.repeat_rate, 0.4);
        assert_eq!(config.target_selectivity, Some(0.3));
        // Knob validation and scoping.
        assert!(Command::parse(&strs(&["gen", "--zone", "sometimes"])).is_err());
        assert!(Command::parse(&strs(&["gen", "--repeat-rate", "x"])).is_err());
        assert!(Command::parse(&strs(&["solve", "a < 0", "--count", "3"])).is_err());
        assert!(Command::parse(&strs(&["serve", "--out", "w.jsonl"])).is_err());
    }

    #[test]
    fn parse_batch_workload() {
        let cmd = Command::parse(&strs(&["batch", "w.jsonl", "--workload"])).unwrap();
        assert!(matches!(cmd, Command::Batch { workload: true, .. }));
        assert!(Command::parse(&strs(&["serve", "--workload"])).is_err());
    }

    #[test]
    fn run_gen_roundtrips_and_batch_replays() {
        // `sia gen --out` writes a workload file that `sia batch
        // --workload` replays against a live server.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sia_cli_gen_{}.jsonl", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path").to_string();
        let config = sia_gen::GenConfig {
            count: 6,
            max_terms: 3,
            zone: sia_gen::ZonePolicy::Eligible,
            seed: 42,
            ..sia_gen::GenConfig::default()
        };
        let out = run(Command::Gen {
            out: Some(path_str.clone()),
            config: config.clone(),
        })
        .unwrap();
        assert!(out.contains("wrote 6 requests"), "{out}");
        // Stdout mode emits the identical workload text.
        let text = std::fs::read_to_string(&path).expect("workload written");
        let printed = run(Command::Gen {
            out: None,
            config: config.clone(),
        })
        .unwrap();
        assert_eq!(printed, text.trim_end());
        let wl = sia_gen::from_str(&text).expect("parses back");
        assert_eq!(wl.config, config);
        assert_eq!(wl.requests.len(), 6);

        let handle = sia_serve::server::start(sia_serve::ServeConfig {
            workers: 2,
            ..sia_serve::ServeConfig::default()
        })
        .expect("server starts");
        let out = run(Command::Batch {
            file: path_str,
            addr: handle.addr().to_string(),
            concurrency: 2,
            timeout_ms: Some(30_000),
            retries: 0,
            retry_budget: 10,
            workload: true,
        })
        .unwrap();
        assert!(out.contains("batch: 6 ok / 0 timeout / 0 failed"), "{out}");
        handle.shutdown().expect("clean shutdown");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_batch_rejects_non_workload_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sia_cli_notwl_{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"id\":\"q0\",\"predicate\":\"a < 1\",\"cols\":\"a\"}\n",
        )
        .expect("write");
        let err = run(Command::Batch {
            file: path.to_str().expect("utf-8").to_string(),
            addr: "127.0.0.1:1".into(),
            concurrency: 1,
            timeout_ms: None,
            retries: 0,
            retry_budget: 10,
            workload: true,
        })
        .unwrap_err();
        assert!(err.message.contains("sia_workload"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_baseline() {
        let out = run(Command::Baseline {
            predicate: "y1 > x AND x > y2".into(),
            cols: strs(&["y1", "y2"]),
        })
        .unwrap();
        assert!(out.contains("y2 - y1 < 0"), "{out}");
    }

    /// `--metrics` toggles the process-global collector, so the tests
    /// that use it serialize on this lock. (`--trace` installs the
    /// process-global sink, which sibling tests synthesizing on other
    /// threads would write into; it is tested on the real binary in
    /// `tests/exit_codes.rs`.)
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn run_synth_small() {
        let out = run(Command::Synth {
            predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
            cols: strs(&["a"]),
            variant: "sia".into(),
            max_iter: Some(6),
            timeout_ms: None,
            metrics: false,
            trace: None,
        })
        .unwrap();
        assert!(out.contains("a >= 22"), "{out}");
        // This predicate is pure difference bounds: the zone projection
        // discharges it without CEGIS and says so.
        assert!(out.contains("derived: static"), "{out}");
    }

    #[test]
    fn run_synth_derived_metrics() {
        let _guard = OBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = run(Command::Synth {
            predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
            cols: strs(&["a"]),
            variant: "sia".into(),
            max_iter: Some(6),
            timeout_ms: None,
            metrics: true,
            trace: None,
        })
        .unwrap();
        assert!(out.contains("derived: static"), "{out}");
        assert!(out.contains("analyze.derive.static"), "{out}");
    }

    #[test]
    fn run_synth_metrics_breakdown() {
        let _guard = OBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The doubled `a` keeps the predicate outside the zone fragment so
        // the full CEGIS pipeline (and all its phase spans) runs.
        let out = run(Command::Synth {
            predicate: "a + a + 10 > b + 20 AND b + 10 > 20".into(),
            cols: strs(&["a"]),
            variant: "sia".into(),
            max_iter: Some(8),
            timeout_ms: None,
            metrics: true,
            trace: None,
        })
        .unwrap();
        assert!(out.contains("== metrics =="), "{out}");
        // Hierarchical phase table with solver sub-phases.
        for phase in ["synth", "generate", "learn", "verify", "smt.check"] {
            assert!(out.contains(phase), "missing phase {phase}: {out}");
        }
        assert!(out.contains("sat.decisions"), "{out}");
        // The attributed share is printed and meets the ≥95% bar.
        let cov_line = out
            .lines()
            .find(|l| l.starts_with("phase coverage:"))
            .expect("coverage line");
        let pct: f64 = cov_line
            .trim_start_matches("phase coverage:")
            .trim()
            .trim_end_matches("% of synthesis wall time attributed")
            .trim()
            .parse()
            .expect("numeric coverage");
        assert!(pct >= 95.0, "attributed {pct}% < 95%: {out}");
    }

    #[test]
    fn run_project() {
        let out = run(Command::Project {
            predicate: "a - b < 5 AND b < 0".into(),
            keep: strs(&["a"]),
        })
        .unwrap();
        assert!(out.contains("projection"));
    }

    #[test]
    fn run_invalid_predicate() {
        assert!(run(Command::Solve {
            predicate: "a <".into()
        })
        .is_err());
    }
}
