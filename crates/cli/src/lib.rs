//! Library backing the `sia` command-line tool (kept as a library so the
//! argument parser and command runners are unit-testable).
//!
//! `SUBCOMMANDS` is a table with one row per subcommand — its name, what
//! may follow it, and a builder — and [`Command::parse`] is one generic
//! walk over that row; each subcommand is then an argument struct with
//! one `run`.

#![warn(missing_docs)]

use std::time::Duration;

use sia_core::baselines::transitive_closure;
use sia_core::{
    decode_formula, rewrite_query, PredEncoder, SiaConfig, SynthesisError, Synthesizer,
};
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
--metrics prints a per-phase wall-time and solver-counter breakdown
(serve adds its final stats, as `sia top` renders them);
--trace streams every span/counter event as JSONL to FILE.
serve speaks line-delimited JSON over TCP (one request object per line,
see `sia batch` input: {\"id\":…,\"predicate\":…,\"cols\":\"a,b\",\"timeout_ms\":…});
batch sends a file of such requests, or a `sia gen` workload file (told
apart by its header line), and prints one response per line.
--snapshot-ms makes serve write periodic crash-safe snapshots of its
--cache-file;
--delay-budget-ms (default 250, at least 1) is the queue-delay budget
of the one admission law: AIMD limit targeting it, cheap/expensive
request lanes that shed expensive work once its oldest queued job has
waited past it, deadline expiry charged from admission, and a brownout
ladder under sustained pressure (a queue that should never shed passes
a large budget);
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

/// The one way to stdout: `text` and a newline, flushed. A closed pipe
/// (`sia gen | head -1`) is the end of the output, not an error, so the
/// command's own exit code stands; the result says whether anyone is
/// still reading.
///
/// # Errors
///
/// Any other write failure, described.
pub fn print_line(text: &str) -> Result<bool, String> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("cannot write to stdout: {e}")),
    }
}

/// A parsed CLI invocation: one variant per `SUBCOMMANDS` row, each
/// holding that subcommand's arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Synthesize a reduced predicate.
    Synth(Synth),
    /// Check satisfiability and print a model.
    Solve(Solve),
    /// Statically analyze a predicate for contradictions, tautologies,
    /// and type-suspect comparisons — or, with `--plan`, lint a whole
    /// query plan for unreachable filters, redundant predicates, and
    /// join equalities that contradict scan filters.
    Lint(Lint),
    /// Plan a SQL query against the generator registry and show what the
    /// move-around pass derives.
    Plan(Plan),
    /// Project the predicate onto the kept columns (∃-eliminate the rest).
    Project(Project),
    /// Rewrite a TPC-H benchmark query.
    Rewrite(Rewrite),
    /// Run the transitive-closure baseline.
    Baseline(Baseline),
    /// Run the synthesis server until a client sends `shutdown`.
    Serve(Serve),
    /// Send a JSONL file of requests to a running server.
    Batch(Batch),
    /// Generate a workload file of synthesis requests.
    Gen(Gen),
    /// Poll a running server's live telemetry into a refreshing
    /// terminal view.
    Top(Top),
}

/// Which synthesizer preset `sia synth` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// The full system.
    #[default]
    Sia,
    /// `--v1`: the SIA_v1 baseline preset.
    V1,
    /// `--v2`: the SIA_v2 baseline preset.
    V2,
}

/// `sia lint` output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One finding per line.
    #[default]
    Text,
    /// One machine-readable object with per-finding severities.
    Json,
}

/// `sia synth` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Synth {
    /// The predicate source.
    pub predicate: String,
    /// Target columns.
    pub cols: Vec<String>,
    /// Which preset.
    pub variant: Variant,
    /// Optional iteration override.
    pub max_iter: Option<u32>,
    /// Deadline for the whole synthesis run.
    pub timeout_ms: Option<u64>,
    /// Print the per-phase metrics summary after synthesis.
    pub metrics: bool,
    /// Stream a JSONL span/event trace to this file.
    pub trace: Option<String>,
}

/// `sia solve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Solve {
    /// The predicate source.
    pub predicate: String,
}

/// `sia lint` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Lint {
    /// The predicate source (a full SQL query when `plan` is set).
    pub predicate: String,
    /// Output format.
    pub format: Format,
    /// Lint the optimizer plan of a SQL query instead of a predicate.
    pub plan: bool,
}

/// `sia plan` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The query source.
    pub sql: String,
    /// How far predicate move-around goes (default static).
    pub mode: sia_engine::MoveAround,
    /// Show the pre-optimization tree and the per-scan derivation
    /// report alongside the optimized plan.
    pub explain: bool,
}

/// `sia project` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Project {
    /// The predicate source.
    pub predicate: String,
    /// Columns to keep.
    pub keep: Vec<String>,
}

/// `sia rewrite` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Rewrite {
    /// The query source.
    pub sql: String,
    /// Target table for push-down.
    pub table: String,
}

/// `sia baseline` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The predicate source.
    pub predicate: String,
    /// Target columns.
    pub cols: Vec<String>,
}

/// `sia serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Serve {
    /// The server configuration assembled from the flags.
    pub config: ServeConfig,
    /// Print the metrics summary when the server stops.
    pub metrics: bool,
}

/// `sia batch` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Path to the requests file (one JSON request per line).
    pub file: String,
    /// Server address.
    pub addr: String,
    /// Client connections used in parallel.
    pub concurrency: usize,
    /// Deadline applied to requests that carry none.
    pub timeout_ms: Option<u64>,
    /// Retries per request for overloaded/failed sends (0 = off).
    pub retries: u32,
    /// Retry-budget cap as a percentage of fresh requests (default
    /// 10): retries beyond the budget are shed client-side.
    pub retry_budget: u32,
}

/// `sia gen` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Gen {
    /// Output file; stdout when absent.
    pub out: Option<String>,
    /// Generator knobs assembled from the flags.
    pub config: sia_gen::GenConfig,
}

/// `sia top` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Top {
    /// Server address.
    pub addr: String,
    /// Refresh interval in milliseconds.
    pub interval_ms: u64,
    /// Polls before exiting (0 = run until interrupted).
    pub iterations: u64,
}

/// One row of the subcommand table.
struct Sub {
    name: &'static str,
    /// What may follow the name, space-separated: a leading `<…>` if one
    /// positional argument comes first, then the flags — `--flag=` takes
    /// a value, `--flag` is a switch. This is the only statement of which
    /// flag applies where: [`Command::parse`] rejects any flag the row
    /// does not list, and the tests hold [`USAGE`] to it.
    accepts: &'static str,
    /// Builds the command from the arguments the walk collected.
    build: fn(&Args) -> Result<Command, String>,
}

const fn sub(
    name: &'static str,
    accepts: &'static str,
    build: fn(&Args) -> Result<Command, String>,
) -> Sub {
    Sub {
        name,
        accepts,
        build,
    }
}

static SUBCOMMANDS: &[Sub] = &[
    sub(
        "synth",
        "<predicate> --cols= --v1 --v2 --max-iter= --timeout-ms= --metrics --trace=",
        Synth::build,
    ),
    sub("solve", "<predicate>", Solve::build),
    sub("lint", "<predicate> --format= --plan", Lint::build),
    sub("plan", "<query-sql> --mode= --explain", Plan::build),
    sub("project", "<predicate> --keep=", Project::build),
    sub("rewrite", "<query-sql> --table=", Rewrite::build),
    sub("baseline", "<predicate> --cols=", Baseline::build),
    sub(
        "serve",
        "--addr= --workers= --cache-capacity= --queue-depth= --delay-budget-ms= --timeout-ms= \
         --cache-file= --snapshot-ms= --slow-log= --slow-ms= --metrics",
        Serve::build,
    ),
    sub(
        "batch",
        "<requests.jsonl> --addr= --concurrency= --timeout-ms= --retries= --retry-budget=",
        Batch::build,
    ),
    sub(
        "gen",
        "--out= --table= --count= --seed= --min-terms= --max-terms= --zone= --selectivity= \
         --tolerance= --repeat-rate= --drift-rate=",
        Gen::build,
    ),
    sub("top", "--addr= --interval-ms= --iterations=", Top::build),
];

const DEFAULT_ADDR: &str = "127.0.0.1:7171";

impl Sub {
    fn positional(&self) -> bool {
        self.accepts.starts_with('<')
    }

    /// Whether this row lists `flag`, and if so whether it takes a value.
    fn flag(&self, flag: &str) -> Option<bool> {
        let listed = self.accepts.split_whitespace();
        listed
            .filter(|f| f.starts_with("--"))
            .find_map(|f| match f.strip_suffix('=') {
                Some(name) => (name == flag).then_some(true),
                None => (f == flag).then_some(false),
            })
    }
}

/// What one invocation gave, as the generic walk in [`Command::parse`]
/// left it; the row's builder reads it through the typed getters.
struct Args<'a> {
    row: &'static Sub,
    positional: &'a str,
    /// `(flag, value)` in command-line order; a switch has no value.
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl Args<'_> {
    /// The last occurrence of `flag`.
    fn find(&self, flag: &str) -> Option<&(&str, Option<&str>)> {
        debug_assert!(
            self.row.flag(flag).is_some(),
            "{flag} read by the `{}` builder but missing from its row",
            self.row.name
        );
        self.given.iter().rev().find(|(f, _)| *f == flag)
    }

    fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.find(flag).and_then(|(_, value)| *value)
    }

    fn text(&self, flag: &str) -> Option<String> {
        self.get(flag).map(str::to_string)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parsed = self.get(flag).map(str::parse);
        parsed
            .transpose()
            .map_err(|_| format!("{flag} must be a number"))
    }

    fn float(&self, flag: &str) -> Result<Option<f64>, String> {
        match self.num(flag)? {
            Some(v) if !f64::is_finite(v) => Err(format!("{flag} must be finite")),
            v => Ok(v),
        }
    }

    /// A comma-separated list; empty when the flag is absent.
    fn list(&self, flag: &str) -> Vec<String> {
        let items = self.get(flag).unwrap_or("").split(',');
        items
            .map(|c| c.trim().to_string())
            .filter(|c| !c.is_empty())
            .collect()
    }

    /// A list flag the subcommand cannot run without.
    fn required_list(&self, flag: &str) -> Result<Vec<String>, String> {
        let items = self.list(flag);
        if items.is_empty() {
            return Err(format!("{} requires {flag}", self.row.name));
        }
        Ok(items)
    }
}

impl Command {
    /// Parse raw arguments (without the program name): find the
    /// subcommand's row, take its positional, then walk the flags
    /// against the row.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
        let row = SUBCOMMANDS
            .iter()
            .find(|row| row.name == sub)
            .ok_or_else(|| format!("unknown subcommand {sub:?}"))?;
        let mut rest = rest.iter().map(String::as_str);
        let positional = if row.positional() {
            let first = rest.next().filter(|arg| !arg.starts_with("--"));
            first.ok_or("missing argument")?
        } else {
            ""
        };
        let mut given = Vec::new();
        while let Some(flag) = rest.next() {
            let takes_value = row.flag(flag).ok_or_else(|| {
                if SUBCOMMANDS.iter().any(|r| r.flag(flag).is_some()) {
                    format!("{flag} does not apply to {}", row.name)
                } else {
                    format!("unknown flag {flag:?}")
                }
            })?;
            let value = if takes_value {
                Some(rest.next().ok_or_else(|| format!("{flag} needs a value"))?)
            } else {
                None
            };
            given.push((flag, value));
        }
        (row.build)(&Args {
            row,
            positional,
            given,
        })
    }
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

/// The column facts of every generator-registry schema (all TPC-H tables
/// plus the synthetic `wide` one), so DATE and DOUBLE columns are typed;
/// a column of none defaults to INTEGER NOT NULL, as in the encoder, but
/// is not declared so.
fn registry_columns() -> sia_analyze::Analyzer {
    sia_analyze::Analyzer::with_schemas(sia_gen::schemas().iter().map(|(_, s)| s))
}

/// Execute a command, returning its printable output. Failures carry the
/// process exit code: 1 for errors, 2 for synthesis timeouts.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Synth(c) => c.run(),
        Command::Solve(c) => c.run(),
        Command::Lint(c) => c.run(),
        Command::Plan(c) => c.run(),
        Command::Project(c) => c.run(),
        Command::Rewrite(c) => c.run(),
        Command::Baseline(c) => c.run(),
        Command::Serve(c) => c.run(),
        Command::Batch(c) => c.run(),
        Command::Gen(c) => c.run(),
        Command::Top(c) => c.run(),
    }
}

impl Synth {
    fn build(a: &Args) -> Result<Command, String> {
        // `--v1 --v2`: the last one given wins.
        let variant = a.given.iter().rev().find_map(|(flag, _)| match *flag {
            "--v1" => Some(Variant::V1),
            "--v2" => Some(Variant::V2),
            _ => None,
        });
        Ok(Command::Synth(Synth {
            predicate: a.positional.to_string(),
            cols: a.required_list("--cols")?,
            variant: variant.unwrap_or_default(),
            max_iter: a.num("--max-iter")?,
            timeout_ms: a.num("--timeout-ms")?,
            metrics: a.has("--metrics"),
            trace: a.text("--trace"),
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let p = parse_predicate(&self.predicate).map_err(|e| e.to_string())?;
        let mut config = match self.variant {
            Variant::V1 => SiaConfig::v1(),
            Variant::V2 => SiaConfig::v2(),
            Variant::Sia => SiaConfig::default(),
        };
        if let Some(m) = self.max_iter {
            config.max_iterations = m;
        }
        if let Some(ms) = self.timeout_ms {
            config.budget = Budget::with_deadline(Duration::from_millis(ms));
        }
        let observe = self.metrics || self.trace.is_some();
        if observe {
            sia_obs::reset();
            sia_obs::enable();
            if let Some(path) = &self.trace {
                let sink = sia_obs::JsonlSink::create(path)
                    .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
                sia_obs::set_sink(Box::new(sink));
            }
        }
        let mut syn = Synthesizer::new(config).with_columns(registry_columns());
        let result = syn.synthesize(&p, &self.cols).map_err(|e| CliError {
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
            if self.trace.is_some() {
                drop(sia_obs::take_sink());
            }
            sia_obs::disable();
            self.metrics.then(sia_obs::summary)
        } else {
            None
        };
        let r = result?;
        let mut out = String::new();
        match &r.predicate {
            Some(q) => out.push_str(&format!("predicate: {q}\n")),
            None => out.push_str("predicate: TRUE (nothing non-trivial is valid)\n"),
        }
        out.push_str(&format!(
            "exit: {}\noptimal: {}\niterations: {}\nsamples: {} TRUE / {} FALSE",
            r.exit, r.optimal, r.stats.iterations, r.stats.true_samples, r.stats.false_samples
        ));
        if let Some(summary) = summary {
            out.push_str("\n\n== metrics ==\n");
            if let Some((input, projection)) = r.stats.projection_atoms {
                out.push_str(&format!(
                    "atoms: {input} in the input, {projection} projected\n"
                ));
            }
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
}

impl Solve {
    fn build(a: &Args) -> Result<Command, String> {
        Ok(Command::Solve(Solve {
            predicate: a.positional.to_string(),
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let p = parse_predicate(&self.predicate).map_err(|e| e.to_string())?;
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
}

impl Lint {
    fn build(a: &Args) -> Result<Command, String> {
        let format = match a.get("--format") {
            None | Some("text") => Format::Text,
            Some("json") => Format::Json,
            Some(f) => return Err(format!("--format must be text or json, got {f:?}")),
        };
        Ok(Command::Lint(Lint {
            predicate: a.positional.to_string(),
            format,
            plan: a.has("--plan"),
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let warnings = if self.plan {
            // Plan lint: build the optimizer plan of a full query
            // against the registry schemas and analyze it globally.
            let query = parse_query(&self.predicate).map_err(|e| e.to_string())?;
            let db = registry_db();
            let p = db.plan(&query).map_err(|e| e.to_string())?;
            sia_engine::lint_plan(&p, &|t| db.schema_of(t))
        } else {
            let p = parse_predicate(&self.predicate).map_err(|e| e.to_string())?;
            registry_columns().lint(&p)
        };
        let errors = warnings.iter().filter(|w| w.severity() == "error").count();
        let out = if self.format == Format::Json {
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
            print_line(&out)?;
            return Err(CliError {
                message: format!("lint: {errors} error-severity finding(s)"),
                code: EXIT_LINT,
            });
        }
        Ok(out)
    }
}

impl Plan {
    fn build(a: &Args) -> Result<Command, String> {
        Ok(Command::Plan(Plan {
            sql: a.positional.to_string(),
            mode: sia_engine::MoveAround::parse(a.get("--mode").unwrap_or("static"))?,
            explain: a.has("--explain"),
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let query = parse_query(&self.sql).map_err(|e| e.to_string())?;
        let db = registry_db();
        let config = sia_engine::OptimizerConfig {
            move_around: self.mode,
        };
        let (optimized, report) = db
            .optimized_plan(&query, config)
            .map_err(|e| e.to_string())?;
        if !self.explain {
            return Ok(optimized.to_string().trim_end().to_string());
        }
        let before = db.plan(&query).map_err(|e| e.to_string())?;
        Ok(format!(
            "== before ==\n{before}== after ==\n{optimized}== move-around ==\n{report}\
             filters below joins: {} -> {}",
            before.filters_below_joins(),
            optimized.filters_below_joins()
        ))
    }
}

impl Project {
    fn build(a: &Args) -> Result<Command, String> {
        Ok(Command::Project(Project {
            predicate: a.positional.to_string(),
            keep: a.required_list("--keep")?,
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let p = parse_predicate(&self.predicate).map_err(|e| e.to_string())?;
        let mut enc = PredEncoder::new();
        let f = enc.encode(&p).map_err(|e| e.to_string())?;
        let keep_vars: Vec<_> = self.keep.iter().map(|c| enc.value_var(c)).collect();
        let others: Vec<_> = enc
            .columns()
            .map(|(_, v)| v)
            .filter(|v| !keep_vars.contains(v))
            .collect();
        let projected = sia_smt::eliminate_exists(&f, &others, &QeConfig::default())
            .map_err(|e| e.to_string())?;
        // The synthesizer's decoder: the same rendering its projection
        // exit answers with, or the literal that keeps it from answering.
        let named: Vec<(&str, _)> = self
            .keep
            .iter()
            .map(String::as_str)
            .zip(keep_vars)
            .collect();
        Ok(match decode_formula(&projected, &named) {
            Ok(q) => format!("∃-projection onto {:?}:\n{q}", self.keep),
            Err(why) => format!(
                "∃-projection onto {:?} is not exact as a predicate: it holds {why}",
                self.keep
            ),
        })
    }
}

impl Rewrite {
    fn build(a: &Args) -> Result<Command, String> {
        Ok(Command::Rewrite(Rewrite {
            sql: a.positional.to_string(),
            table: a.text("--table").ok_or("rewrite requires --table")?,
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let q = parse_query(&self.sql).map_err(|e| e.to_string())?;
        // Columns resolve against the generator registry, as in `plan`
        // and `lint`.
        let mut catalog = sia_expr::Catalog::new();
        for (name, schema) in sia_gen::schemas() {
            catalog.add_table(name, schema);
        }
        let mut syn = Synthesizer::default().with_columns(registry_columns());
        let outcome =
            rewrite_query(&mut syn, &q, &catalog, &self.table).map_err(|e| e.to_string())?;
        match outcome.rewritten {
            Some(rw) => Ok(format!(
                "synthesized: {}\nrewritten: {rw}",
                outcome.synthesized.expect("present with rewritten")
            )),
            None => Ok("no useful predicate found; query unchanged".to_string()),
        }
    }
}

impl Baseline {
    fn build(a: &Args) -> Result<Command, String> {
        Ok(Command::Baseline(Baseline {
            predicate: a.positional.to_string(),
            cols: a.required_list("--cols")?,
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let p = parse_predicate(&self.predicate).map_err(|e| e.to_string())?;
        match transitive_closure(&p, &self.cols) {
            Some(tc) => Ok(format!("transitive closure derives: {tc}")),
            None => Ok("transitive closure derives: nothing".to_string()),
        }
    }
}

impl Serve {
    fn build(a: &Args) -> Result<Command, String> {
        let delay_budget_ms: u64 = a.num("--delay-budget-ms")?.unwrap_or(250);
        if delay_budget_ms == 0 {
            return Err("--delay-budget-ms must be at least 1 \
                        (pass a large budget for a queue that never sheds)"
                .to_string());
        }
        // A flag that would change nothing is refused, not dropped.
        let snapshot_ms: Option<u64> = a.num("--snapshot-ms")?;
        if snapshot_ms == Some(0) {
            return Err("--snapshot-ms must be at least 1".to_string());
        }
        if snapshot_ms.is_some() && !a.has("--cache-file") {
            return Err("--snapshot-ms needs --cache-file to write to".to_string());
        }
        if a.has("--slow-ms") && !a.has("--slow-log") {
            return Err("--slow-ms needs --slow-log to write to".to_string());
        }
        let config = ServeConfig {
            addr: a.get("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
            workers: a.num("--workers")?.unwrap_or(2),
            cache_capacity: a.num("--cache-capacity")?.unwrap_or(1024),
            queue_depth: a.num("--queue-depth")?.unwrap_or(64),
            admission_delay_budget: Some(Duration::from_millis(delay_budget_ms)),
            default_timeout_ms: a.num("--timeout-ms")?,
            cache_file: a.text("--cache-file"),
            snapshot_interval: snapshot_ms.map(Duration::from_millis),
            slow_log_file: a.text("--slow-log"),
            slow_threshold: Duration::from_millis(a.num("--slow-ms")?.unwrap_or(1000)),
            lint_schemas: sia_gen::schemas().into_iter().map(|(_, s)| s).collect(),
        };
        Ok(Command::Serve(Serve {
            config,
            metrics: a.has("--metrics"),
        }))
    }

    fn run(self) -> Result<String, CliError> {
        if self.metrics {
            sia_obs::reset();
            sia_obs::enable();
        }
        let cache_file = self.config.cache_file.clone();
        let handle = server::start(self.config).map_err(|e| format!("cannot start server: {e}"))?;
        if let (Some(path), Some(load)) = (cache_file, handle.cache_load()) {
            print_line(&format!(
                "cache file {path}: recovered {} records, dropped {}",
                load.recovered, load.dropped
            ))?;
        }
        // Announce readiness immediately, and last: `run` only returns
        // output after shutdown, and clients wait for this line.
        let addr = handle.addr().to_string();
        print_line(&format!("sia-serve listening on {addr}"))?;
        let cache = handle.cache_arc();
        let last = handle
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
        if self.metrics {
            sia_obs::disable();
            out.push_str("\n\n== server ==\n");
            out.push_str(&render_top(&addr, &last));
            out.push_str("\n\n== metrics ==\n");
            out.push_str(&sia_obs::summary().to_string());
        }
        Ok(out)
    }
}

impl Batch {
    fn build(a: &Args) -> Result<Command, String> {
        Ok(Command::Batch(Batch {
            file: a.positional.to_string(),
            addr: a.get("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
            concurrency: a.num("--concurrency")?.unwrap_or(4),
            timeout_ms: a.num("--timeout-ms")?,
            retries: a.num("--retries")?.unwrap_or(0),
            retry_budget: a.num("--retry-budget")?.unwrap_or(10),
        }))
    }

    /// The requests in the file, each with the batch's default deadline
    /// where it carries none.
    fn requests(&self) -> Result<Vec<sia_serve::Request>, String> {
        let file = &self.file;
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        // A `sia gen` workload file: typed requests behind a header line
        // that has a `sia_workload` key, replayed as plain synthesis
        // requests. Any other file is protocol request lines.
        let header = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
        let is_workload = sia_obs::parse_object(header)
            .is_ok_and(|fields| fields.iter().any(|(k, _)| k == "sia_workload"));
        if is_workload {
            let wl = sia_gen::from_str(&text).map_err(|e| format!("{file}: {e}"))?;
            let requests = wl.requests.into_iter().map(|r| sia_serve::Request {
                id: r.id,
                predicate: r.predicate.to_string(),
                cols: r.cols,
                timeout_ms: self.timeout_ms,
                trace: None,
            });
            return Ok(requests.collect());
        }
        let mut requests = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match protocol::parse_request(line)
                .map_err(|e| format!("{file}:{}: {e}", lineno + 1))?
            {
                protocol::RequestLine::Synth(mut r) => {
                    r.timeout_ms = r.timeout_ms.or(self.timeout_ms);
                    requests.push(r);
                }
                protocol::RequestLine::Shutdown | protocol::RequestLine::Stats => {
                    return Err(format!(
                        "{file}:{}: control requests are not allowed in a batch",
                        lineno + 1
                    ))
                }
            }
        }
        Ok(requests)
    }

    fn run(self) -> Result<String, CliError> {
        let requests = self.requests()?;
        let addr = &self.addr;
        let (responses, retried, shed) = if self.retries > 0 {
            let policy = sia_serve::RetryPolicy {
                attempts: self.retries.saturating_add(1),
                budget_ratio: f64::from(self.retry_budget) / 100.0,
            };
            let outcome = client::run_batch_retry(addr, &requests, self.concurrency, &policy);
            (outcome.responses, outcome.retried, outcome.shed)
        } else {
            let responses = client::run_batch(addr, &requests, self.concurrency)
                .map_err(|e| format!("batch against {addr} failed: {e}"))?;
            (responses, 0, 0)
        };
        let count = |status| responses.iter().filter(|r| r.status == status).count();
        let ok = count(sia_serve::Status::Ok);
        let timeouts = count(sia_serve::Status::Timeout);
        // Deadline expiry in the server queue is a deadline outcome, not
        // a hard failure: exit code 2.
        let expired = count(sia_serve::Status::Expired);
        let failed = responses.len() - ok - timeouts - expired;
        let degraded = responses.iter().filter(|r| r.degraded).count();
        let mut out: String = responses.iter().map(|r| r.to_line() + "\n").collect();
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
            print_line(&out)?;
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
}

impl Gen {
    fn build(a: &Args) -> Result<Command, String> {
        let d = sia_gen::GenConfig::default();
        let zone = a.get("--zone").map(sia_gen::ZonePolicy::parse);
        Ok(Command::Gen(Gen {
            out: a.text("--out"),
            config: sia_gen::GenConfig {
                table: a.text("--table").unwrap_or(d.table),
                count: a.num("--count")?.unwrap_or(d.count),
                seed: a.num("--seed")?.unwrap_or(d.seed),
                min_terms: a.num("--min-terms")?.unwrap_or(d.min_terms),
                max_terms: a.num("--max-terms")?.unwrap_or(d.max_terms),
                zone: zone.transpose()?.unwrap_or(d.zone),
                target_selectivity: a.float("--selectivity")?.or(d.target_selectivity),
                selectivity_tolerance: a.float("--tolerance")?.unwrap_or(d.selectivity_tolerance),
                repeat_rate: a.float("--repeat-rate")?.unwrap_or(d.repeat_rate),
                drift_rate: a.float("--drift-rate")?.unwrap_or(d.drift_rate),
                ..d
            },
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let requests = sia_gen::generate(&self.config)?;
        let text = sia_gen::to_string(&self.config, &requests);
        let Some(path) = self.out else {
            return Ok(text.trim_end().to_string());
        };
        std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        Ok(format!(
            "wrote {} requests to {path} (table {}, seed {:#x})",
            requests.len(),
            self.config.table,
            self.config.seed
        ))
    }
}

impl Top {
    fn build(a: &Args) -> Result<Command, String> {
        Ok(Command::Top(Top {
            addr: a.get("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
            interval_ms: a.num("--interval-ms")?.unwrap_or(1000),
            iterations: a.num("--iterations")?.unwrap_or(0),
        }))
    }

    fn run(self) -> Result<String, CliError> {
        let addr = &self.addr;
        let mut polls = 0u64;
        loop {
            let resp =
                client::stats(addr).map_err(|e| format!("cannot fetch stats from {addr}: {e}"))?;
            let frame = render_top(addr, &resp);
            polls += 1;
            if self.iterations != 0 && polls >= self.iterations {
                // The final frame is the command's output (and the
                // only one when --iterations 1, the scriptable mode).
                return Ok(frame);
            }
            // Clear screen + cursor home, like `top`; stop once nobody
            // is reading.
            if !print_line(&format!("\u{1b}[2J\u{1b}[H{frame}"))? {
                return Ok(frame);
            }
            std::thread::sleep(Duration::from_millis(self.interval_ms.max(50)));
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
    let _ = writeln!(out, "workers  {}  queue {}", s.workers, s.queue);
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
    use sia_engine::MoveAround;
    use std::collections::{BTreeMap, BTreeSet};

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
            Command::Synth(Synth {
                predicate: "a < b".into(),
                cols: strs(&["a", "b"]),
                variant: Variant::V2,
                max_iter: Some(5),
                timeout_ms: None,
                metrics: false,
                trace: None,
            })
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
            Command::Synth(Synth { metrics: true, ref trace, .. }) if trace.as_deref() == Some("t.jsonl")
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

    /// The flag table is the only authority: a flag parses on exactly
    /// the subcommands whose row lists it, and the synopsis block of
    /// `USAGE` shows each subcommand exactly its row's flags.
    #[test]
    fn flag_table_is_the_only_authority() {
        let names = |flags: &str| -> BTreeSet<String> {
            let flags = flags.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            flags
                .filter(|f| f.starts_with("--"))
                .map(str::to_string)
                .collect()
        };
        let every_row: Vec<&str> = SUBCOMMANDS.iter().map(|r| r.accepts).collect();
        let all_flags = names(&every_row.join(" "));
        assert_eq!(all_flags.len(), 37);

        // The synopsis: from `usage:` to the first blank line; a line
        // that does not open with `sia <name>` continues the one above.
        let mut synopsis: BTreeMap<&str, String> = BTreeMap::new();
        let mut current = "";
        for line in USAGE.lines().skip(1).take_while(|l| !l.is_empty()) {
            if let Some(rest) = line.trim_start().strip_prefix("sia ") {
                current = rest.split_whitespace().next().expect("subcommand name");
            }
            synopsis.entry(current).or_default().push_str(line);
        }
        assert_eq!(synopsis.len(), SUBCOMMANDS.len());

        for row in SUBCOMMANDS {
            let shown = &synopsis[row.name];
            assert_eq!(names(shown), names(row.accepts), "USAGE vs `{}`", row.name);
            assert_eq!(shown.contains('<'), row.positional(), "{}", row.name);
            for flag in &all_flags {
                let mut args = strs(&[row.name]);
                if row.positional() {
                    args.push("x".into());
                }
                args.push(flag.clone());
                match row.flag(flag) {
                    // Listed: the walk takes it (a value flag given no
                    // value gets as far as asking for one).
                    Some(true) => {
                        let err = Command::parse(&args).unwrap_err();
                        assert_eq!(err, format!("{flag} needs a value"));
                    }
                    Some(false) => {
                        let err = Command::parse(&args).err().unwrap_or_default();
                        assert!(!err.contains(flag.as_str()), "{} {flag}: {err}", row.name);
                    }
                    // Not listed: rejected, naming both.
                    None => {
                        args.push("1".into());
                        let err = Command::parse(&args).unwrap_err();
                        assert_eq!(err, format!("{flag} does not apply to {}", row.name));
                    }
                }
            }
        }
        assert_eq!(
            Command::parse(&strs(&["solve", "a < 1", "--bogus"])).unwrap_err(),
            "unknown flag \"--bogus\""
        );
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
        let Command::Serve(Serve { config, .. }) = cmd else {
            panic!("expected serve");
        };
        assert_eq!(config.slow_log_file.as_deref(), Some("slow.jsonl"));
        assert_eq!(config.slow_threshold, Duration::from_millis(250));
        // The slow-log flags are serve-only.
        assert!(Command::parse(&strs(&["batch", "r.jsonl", "--slow-ms", "10"])).is_err());
        assert!(Command::parse(&strs(&["top", "--slow-log", "s.jsonl"])).is_err());
    }

    #[test]
    fn parse_top() {
        let cmd = Command::parse(&strs(&["top"])).unwrap();
        assert_eq!(
            cmd,
            Command::Top(Top {
                addr: "127.0.0.1:7171".into(),
                interval_ms: 1000,
                iterations: 0,
            })
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
            Command::Top(Top {
                addr: "10.0.0.1:9999".into(),
                interval_ms: 200,
                iterations: 3,
            })
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
        let out = run(Command::Top(Top {
            addr: addr.clone(),
            interval_ms: 10,
            iterations: 1,
        }))
        .expect("top frame");
        assert!(out.contains(&format!("sia top — {addr}")), "{out}");
        assert!(out.contains("requests 1 accepted"), "{out}");
        assert!(out.contains("workers  1  queue 0"), "{out}");
        assert!(out.contains("latency  p50"), "{out}");
        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn run_solve() {
        let out = run(Command::Solve(Solve {
            predicate: "x + y = 10 AND x - y = 4".into(),
        }))
        .unwrap();
        assert!(out.starts_with("sat"));
        assert!(out.contains("x = 7"));
        assert!(out.contains("y = 3"));
        let out = run(Command::Solve(Solve {
            predicate: "x < 0 AND x > 0".into(),
        }))
        .unwrap();
        assert_eq!(out, "unsat");
    }

    #[test]
    fn run_lint() {
        // A contradictory TPC-H date range: every row is filtered out —
        // an error-severity finding, so the run fails with EXIT_LINT.
        let err = run(Command::Lint(Lint {
            predicate: "l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1994-01-01'".into(),
            format: Format::Text,
            plan: false,
        }))
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        assert!(err.message.contains("error-severity"), "{err}");
        // A DATE column compared against a bare integer is type-suspect:
        // advisory only, exit 0.
        let out = run(Command::Lint(Lint {
            predicate: "l_shipdate < 19940101".into(),
            format: Format::Text,
            plan: false,
        }))
        .unwrap();
        assert!(out.contains("DATE"), "{out}");
        // A sensible predicate is clean.
        let out = run(Command::Lint(Lint {
            predicate: "l_quantity < 24 AND l_discount >= 0".into(),
            format: Format::Text,
            plan: false,
        }))
        .unwrap();
        assert_eq!(out, "no warnings");
        // Parsing is still enforced.
        assert!(run(Command::Lint(Lint {
            predicate: "a <".into(),
            format: Format::Text,
            plan: false,
        }))
        .is_err());
    }

    #[test]
    fn run_lint_json() {
        // Advisory finding: JSON object on stdout, exit 0.
        let out = run(Command::Lint(Lint {
            predicate: "l_shipdate < 19940101".into(),
            format: Format::Json,
            plan: false,
        }))
        .unwrap();
        assert!(out.starts_with("{\"findings\":["), "{out}");
        assert!(out.contains("\"severity\":\"warning\""), "{out}");
        assert!(out.contains("\"code\":\"type-suspect\""), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // Quotes/backticks in messages survive as valid JSON (the message
        // quotes the offending expression).
        assert!(!out.contains("\n"), "one JSON object per run: {out}");
        // Error-severity finding: still exit code 3 in JSON mode.
        let err = run(Command::Lint(Lint {
            predicate: "l_quantity < 0 AND l_quantity > 10".into(),
            format: Format::Json,
            plan: false,
        }))
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        // Clean predicate: empty findings array.
        let out = run(Command::Lint(Lint {
            predicate: "l_quantity < 24".into(),
            format: Format::Json,
            plan: false,
        }))
        .unwrap();
        assert_eq!(out, "{\"findings\":[],\"errors\":0,\"warnings\":0}");
    }

    #[test]
    fn parse_lint() {
        let cmd = Command::parse(&strs(&["lint", "a < 0 AND a > 10"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint(Lint {
                predicate: "a < 0 AND a > 10".into(),
                format: Format::Text,
                plan: false,
            })
        );
        let cmd = Command::parse(&strs(&["lint", "a < 0", "--format", "json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint(Lint {
                predicate: "a < 0".into(),
                format: Format::Json,
                plan: false,
            })
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
            Command::Plan(Plan {
                sql: "SELECT * FROM nation".into(),
                mode: MoveAround::Static,
                explain: false,
            })
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
            Command::Plan(Plan {
                sql: "SELECT * FROM nation".into(),
                mode: MoveAround::Synthesis,
                explain: true,
            })
        );
        // Mode names are validated at parse time; flags are scoped.
        assert!(Command::parse(&strs(&["plan", "SELECT * FROM t", "--mode", "fast"])).is_err());
        assert!(Command::parse(&strs(&["solve", "a < 0", "--explain"])).is_err());
        assert!(Command::parse(&strs(&["plan", "SELECT * FROM t", "--plan"])).is_err());
        let cmd = Command::parse(&strs(&["lint", "SELECT * FROM nation", "--plan"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint(Lint {
                predicate: "SELECT * FROM nation".into(),
                format: Format::Text,
                plan: true,
            })
        );
    }

    #[test]
    fn run_plan_explain_shows_derived_predicates() {
        // The registry chain: a selective region filter reaches the other
        // scans through the join equalities.
        let out = run(Command::Plan(Plan {
            sql: "SELECT * FROM customer, nation, region \
                  WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                  AND r_regionkey >= 3"
                .into(),
            mode: MoveAround::Static,
            explain: true,
        }))
        .unwrap();
        assert!(out.contains("== before =="), "{out}");
        assert!(out.contains("== after =="), "{out}");
        assert!(out.contains("== move-around =="), "{out}");
        assert!(out.contains("derived for scan nation"), "{out}");
        assert!(out.contains("filters below joins:"), "{out}");
        // Off mode still plans, just derives nothing.
        let out = run(Command::Plan(Plan {
            sql: "SELECT * FROM nation WHERE n_nationkey < 5".into(),
            mode: MoveAround::Off,
            explain: false,
        }))
        .unwrap();
        assert!(out.contains("SeqScan on nation"), "{out}");
        assert!(!out.contains("move-around"), "{out}");
    }

    #[test]
    fn rewrite_and_plan_read_the_registry_columns_alike() {
        // The registry declares both columns INTEGER, so the exact shadow
        // answers the boundary in `rewrite` as it does in `plan`, whose
        // explanation names the exit.
        let sql = "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey \
                   AND 2 * n_nationkey <= 5 * r_name AND r_name <= 3";
        let out = run(Command::Rewrite(Rewrite {
            sql: sql.into(),
            table: "nation".into(),
        }))
        .unwrap();
        assert!(out.starts_with("synthesized: n_nationkey <= 7\n"), "{out}");
        let out = run(Command::Plan(Plan {
            sql: sql.into(),
            mode: MoveAround::Synthesis,
            explain: true,
        }))
        .unwrap();
        assert!(
            out.contains("synthesized for scan nation: n_nationkey <= 7 (shadow)\n"),
            "{out}"
        );
    }

    #[test]
    fn run_lint_plan() {
        // A filter that can never be TRUE below a join: error severity,
        // exit 3.
        let err = run(Command::Lint(Lint {
            predicate: "SELECT * FROM nation, region \
                        WHERE n_regionkey = r_regionkey AND n_nationkey < 0 \
                        AND n_nationkey > 10"
                .into(),
            format: Format::Text,
            plan: true,
        }))
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        // A join equality contradicting the scan filters.
        let err = run(Command::Lint(Lint {
            predicate: "SELECT * FROM nation, region \
                        WHERE n_regionkey = r_regionkey AND n_regionkey < 1 \
                        AND r_regionkey > 3"
                .into(),
            format: Format::Text,
            plan: true,
        }))
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        // A redundant predicate is advisory: exit 0, JSON reports it.
        let out = run(Command::Lint(Lint {
            predicate: "SELECT * FROM nation \
                        WHERE n_nationkey < 5 AND n_nationkey < 10"
                .into(),
            format: Format::Json,
            plan: true,
        }))
        .unwrap();
        assert!(out.contains("plan-redundant-predicate"), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // A clean plan lints clean.
        let out = run(Command::Lint(Lint {
            predicate: "SELECT * FROM nation, region \
                        WHERE n_regionkey = r_regionkey AND r_regionkey >= 3"
                .into(),
            format: Format::Text,
            plan: true,
        }))
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
        let Command::Gen(Gen { out, config }) = cmd else {
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
    fn run_gen_roundtrips_and_batch_replays() {
        // `sia gen --out` writes a workload file that `sia batch` replays
        // against a live server, as it does a file of request lines: the
        // header line tells the two kinds apart.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sia_cli_gen_{}.jsonl", std::process::id()));
        let config = sia_gen::GenConfig {
            count: 6,
            max_terms: 3,
            zone: sia_gen::ZonePolicy::Eligible,
            seed: 42,
            ..sia_gen::GenConfig::default()
        };
        let out = run(Command::Gen(Gen {
            out: Some(path.to_str().expect("utf-8 temp path").to_string()),
            config: config.clone(),
        }))
        .unwrap();
        assert!(out.contains("wrote 6 requests"), "{out}");
        // Stdout mode emits the identical workload text.
        let text = std::fs::read_to_string(&path).expect("workload written");
        let printed = run(Command::Gen(Gen {
            out: None,
            config: config.clone(),
        }))
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
        let lines = dir.join(format!("sia_cli_lines_{}.jsonl", std::process::id()));
        std::fs::write(
            &lines,
            "{\"id\":\"q0\",\"predicate\":\"a < 1\",\"cols\":\"a\"}\n",
        )
        .expect("write");
        let batch = |file: &std::path::Path| {
            run(Command::Batch(Batch {
                file: file.to_str().expect("utf-8 temp path").to_string(),
                addr: handle.addr().to_string(),
                concurrency: 2,
                timeout_ms: Some(30_000),
                retries: 0,
                retry_budget: 10,
            }))
            .unwrap()
        };
        let out = batch(&path);
        assert!(out.contains("batch: 6 ok / 0 timeout / 0 failed"), "{out}");
        let out = batch(&lines);
        assert!(out.contains("\"id\":\"q0\""), "{out}");
        assert!(out.contains("batch: 1 ok / 0 timeout / 0 failed"), "{out}");
        handle.shutdown().expect("clean shutdown");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&lines).ok();
    }

    #[test]
    fn run_baseline() {
        let out = run(Command::Baseline(Baseline {
            predicate: "y1 > x AND x > y2".into(),
            cols: strs(&["y1", "y2"]),
        }))
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
        let out = run(Command::Synth(Synth {
            predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
            cols: strs(&["a"]),
            variant: Variant::Sia,
            max_iter: Some(6),
            timeout_ms: None,
            metrics: false,
            trace: None,
        }))
        .unwrap();
        assert!(out.contains("a >= 22"), "{out}");
        // This predicate is pure difference bounds: the zone projection
        // discharges it without CEGIS and says so.
        assert!(out.contains("exit: zone\n"), "{out}");
    }

    #[test]
    fn run_synth_derived_metrics() {
        let _guard = OBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = run(Command::Synth(Synth {
            predicate: "a + 10 > b + 20 AND b + 10 > 20".into(),
            cols: strs(&["a"]),
            variant: Variant::Sia,
            max_iter: Some(6),
            timeout_ms: None,
            metrics: true,
            trace: None,
        }))
        .unwrap();
        assert!(out.contains("exit: zone\n"), "{out}");
        assert!(out.contains("analyze.derive.static"), "{out}");
        assert!(out.contains("synth.exit.zone"), "{out}");
    }

    #[test]
    fn run_synth_metrics_breakdown() {
        let _guard = OBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The doubled `a` keeps the predicate outside the zone fragment,
        // and b's coefficient 3 leaves a divisibility literal in its
        // projection, so the full CEGIS pipeline (and all its phase spans)
        // runs.
        let out = run(Command::Synth(Synth {
            predicate: "2 * a <= 3 * b AND b <= 10 AND b >= 0".into(),
            cols: strs(&["a"]),
            variant: Variant::Sia,
            max_iter: Some(8),
            timeout_ms: None,
            metrics: true,
            trace: None,
        }))
        .unwrap();
        assert!(out.contains("== metrics =="), "{out}");
        // Hierarchical phase table with solver sub-phases.
        for phase in ["synth", "generate", "learn", "verify", "smt.check"] {
            assert!(out.contains(phase), "missing phase {phase}: {out}");
        }
        assert!(out.contains("sat.decisions"), "{out}");
        // The learner's work is a counter; synthesis trains no SVM.
        assert!(out.contains("learn.directions"), "{out}");
        assert!(!out.contains("svm."), "{out}");
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

        // A `serve_cegis`-shaped request whose projection keeps a
        // divisibility literal: its regions sit far from the sampler's
        // scatter boxes, which the bounds presolve refutes. `linenumber`
        // is no registry column, so it is not declared integral, the exact
        // shadow is not tried, and the loop runs.
        let out = run(Command::Synth(Synth {
            predicate: "2 * l_quantity - l_orderkey < 3 * linenumber - 711677 \
                        AND linenumber > 0 AND linenumber < 8"
                .into(),
            cols: strs(&["l_orderkey", "l_quantity"]),
            variant: Variant::Sia,
            max_iter: None,
            timeout_ms: None,
            metrics: true,
            trace: None,
        }))
        .unwrap();
        let presolved: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("smt.presolved"))
            .expect("smt.presolved counter line")
            .trim()
            .parse()
            .expect("numeric counter");
        assert!(presolved > 0, "{out}");

        // The two requests these used to be are answered by their exact
        // projection, with no sampling: a doubled column with b's
        // coefficients ±1, and a `serve_cegis` bed request keeping every
        // column, which is its own answer. The third's projection keeps a
        // divisibility literal, and its registry INTEGER columns let the
        // exact shadow answer it; the atom counts show what was projected.
        for (predicate, cols, answer, exit, atoms) in [
            (
                "a + a + 10 > b + 20 AND b + 10 > 20",
                &["a"][..],
                "a >= 11",
                "projection",
                Some("atoms: 2 in the input, 1 projected"),
            ),
            (
                "2 * l_quantity - l_orderkey < -711677 AND l_orderdate - l_commitdate > -65",
                &["l_commitdate", "l_orderdate", "l_orderkey", "l_quantity"],
                "2 * l_quantity - l_orderkey < -711677 AND l_orderdate - l_commitdate > -65",
                "keep_all",
                None,
            ),
            (
                "2 * n_nationkey <= 5 * r_name AND r_name <= 3",
                &["n_nationkey"],
                "n_nationkey <= 7",
                "shadow",
                Some("atoms: 2 in the input, 1 projected"),
            ),
        ] {
            let out = run(Command::Synth(Synth {
                predicate: predicate.into(),
                cols: strs(cols),
                variant: Variant::Sia,
                max_iter: None,
                timeout_ms: None,
                metrics: true,
                trace: None,
            }))
            .unwrap();
            assert!(out.contains(&format!("predicate: {answer}\n")), "{out}");
            assert!(out.contains("iterations: 0"), "{out}");
            assert!(out.contains(&format!("exit: {exit}\n")), "{out}");
            assert!(out.contains(&format!("synth.exit.{exit} ")), "{out}");
            assert_eq!(
                out.lines().find(|l| l.starts_with("atoms:")),
                atoms,
                "{out}"
            );
        }
    }

    #[test]
    fn run_project() {
        let out = run(Command::Project(Project {
            predicate: "a - b < 5 AND b < 0".into(),
            keep: strs(&["a"]),
        }))
        .unwrap();
        assert!(out.contains("projection"));
        assert!(out.ends_with("\na <= 3"), "{out}");
        let out = run(Command::Project(Project {
            predicate: "2 * n_nationkey <= 5 * r_name AND r_name <= 3".into(),
            keep: strs(&["n_nationkey"]),
        }))
        .unwrap();
        assert!(
            out.contains("divisibility literal `5 | (2*n_nationkey"),
            "{out}"
        );
    }

    #[test]
    fn run_invalid_predicate() {
        assert!(run(Command::Solve(Solve {
            predicate: "a <".into()
        }))
        .is_err());
    }
}
