//! The command line.
//!
//! ```text
//! sia-perf --workload W --seed N --seconds S --trace 0|1     one run, one JSON line (the driver's form)
//! sia-perf run (--all | --workload W) [--seed N] [--secs S] [--json FILE]
//! sia-perf trace --workload W [--seed N] [--secs S]
//! sia-perf aa [--sets 2] [--runs 5] [--secs S] [--json FILE]
//! sia-perf workloads [--seed N]
//! sia-perf check [BENCHMARK.json]
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{number, Json};
use crate::metrics::{self, MetricDef};
use crate::report::{merge, Round, RunReport};
use crate::stats::{median, quartile_spread};
use crate::workload::{spec, Ops, Spec, Workload, DEADLINE_MS, DEFAULT_SEED, SPECS};
use sia_obs::json_string as string;

/// Timed seconds per workload when `--secs` is not given: `run_seconds`
/// of `BENCHMARK.json`, so that a person's numbers are the driver's.
const DEFAULT_SECS: f64 = 10.0;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        while let Some(a) = raw.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if name == "all" {
                    "1".to_string()
                } else {
                    raw.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                };
                // `--secs` is the short spelling of the driver's `--seconds`.
                let name = if name == "secs" { "seconds" } else { name };
                args.flags.insert(name.to_string(), value);
            } else if args.command.is_none() && args.flags.is_empty() {
                args.command = Some(a);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.flags.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}"))
        })
    }

    fn workload(&self) -> Result<&'static Spec, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        spec(name).ok_or_else(|| {
            let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })
    }
}

/// Entry point of both binaries. `counting` says whether this binary
/// installed the counting allocator, i.e. whether it is the traced one.
pub fn main(counting: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let outcome = match args.command.as_deref() {
        None => one_run(&args, counting),
        Some("run") => run(&args, false),
        Some("trace") => run(&args, true),
        Some("aa") => aa(&args),
        Some("workloads") => workloads(&args),
        Some("check") => check(&args),
        Some(other) => Err(format!("unknown command {other:?}; see bench/README.md")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("sia-perf: {message}");
    ExitCode::FAILURE
}

/// The driver's form: one workload, one run, the JSON line last on
/// stdout. An untraced run is the workload's rounds, each a fresh child
/// process (`--round`), merged here. A traced run needs the counting
/// allocator, which only the sibling binary `sia-perf-trace` has, so the
/// plain binary hands over.
fn one_run(args: &Args, counting: bool) -> Result<bool, String> {
    let spec = args.workload()?;
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.num("seconds", DEFAULT_SECS)?;
    let traced = args.num("trace", 0u8)? != 0;
    if args.flags.contains_key("round") {
        let live = crate::run::live(&Workload::build(spec, seed), seconds)?;
        println!("{}", Round::of(&live).to_line());
        return Ok(true);
    }
    let report = if traced && counting {
        crate::trace::run(&Workload::build(spec, seed), seconds)?
    } else if traced {
        RunReport::parse(&child(true, spec, seed, seconds, &["--trace", "1"])?)?
    } else {
        #[allow(clippy::cast_precision_loss)]
        let round_seconds = seconds / spec.rounds as f64;
        let rounds = (0..spec.rounds)
            .map(|r| {
                Round::parse(&child(
                    false,
                    spec,
                    seed,
                    round_seconds,
                    &["--round", &r.to_string()],
                )?)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (report, notes) = merge(&rounds, spec.tail_pct);
        for note in notes {
            eprintln!("{}: {note}", spec.name);
        }
        report
    };
    println!("{}", report.to_line());
    Ok(report.correct)
}

/// glibc's own default thresholds (`M_MMAP_THRESHOLD`, `M_TRIM_THRESHOLD`:
/// 128 KiB each), set explicitly for every measuring process, whatever the
/// caller's environment holds. Setting them does one thing: it switches
/// off glibc's *dynamic* threshold, which otherwise grows to the largest
/// block freed so far and then serves `sia-engine`'s MB-sized per-query
/// buffers from the heap in some processes and from `mmap` in others,
/// depending on the order in which a `HashMap` with random keys drops its
/// entries. Left on, one `engine_join` process took 300 page faults a
/// query and the next 3000, and ten runs spread by 32–44 %; held at the
/// defaults every such buffer is mapped, faulted in and unmapped, every
/// time: the whole cost of the churn stays in the numbers (see the README).
const PINNED_MALLOC: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
];

/// Run one workload in a fresh process — this binary, or its traced
/// sibling — and return the last line it printed.
fn child(
    traced_binary: bool,
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    extra: &[&str],
) -> Result<String, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = if traced_binary {
        me.with_file_name("sia-perf-trace")
    } else {
        me
    };
    let output = Command::new(&exe)
        .envs(PINNED_MALLOC)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| {
            format!(
                "cannot start {}: {e} (bench/run.sh builds both binaries; `cargo run` builds only one)",
                exe.display()
            )
        })?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(str::to_string)
        .ok_or_else(|| {
            format!(
                "{} on {} printed no result ({})",
                exe.display(),
                spec.name,
                output.status
            )
        })
}

/// One whole run of `spec` in a fresh process; its line must carry
/// exactly the metrics of its table, with their units.
fn run_child(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunReport, String> {
    let report = RunReport::parse(&child(
        false,
        spec,
        seed,
        seconds,
        &["--trace", if traced { "1" } else { "0" }],
    )?)?;
    let defs: &[MetricDef] = if traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let printed: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let expected: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    if printed != expected {
        return Err(format!(
            "{}: printed metrics {printed:?} are not the table's {expected:?}",
            spec.name
        ));
    }
    Ok(report)
}

/// `--workload W` selects one workload; otherwise (`--all`) all four.
fn selected(args: &Args) -> Result<Vec<&'static Spec>, String> {
    if args.flags.contains_key("workload") {
        Ok(vec![args.workload()?])
    } else {
        Ok(SPECS.iter().collect())
    }
}

fn write_json(args: &Args, body: &str) -> Result<(), String> {
    if let Some(path) = args.flags.get("json") {
        std::fs::write(path, format!("{body}\n")).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// `run` / `trace`: every selected workload in a fresh process. `run`
/// prints each end-to-end metric by name and unit; `trace` is the
/// separate traced run, prints every per-layer metric and leaves the
/// spans in `bench/out/<workload>.trace.jsonl`. False when any answer
/// was wrong or any operation failed.
fn run(args: &Args, traced: bool) -> Result<bool, String> {
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.num("seconds", DEFAULT_SECS)?;
    let command = if traced { "trace" } else { "run" };
    let mut all_correct = true;
    let mut entries = Vec::new();
    for spec in selected(args)? {
        let report = run_child(spec, seed, seconds, traced)?;
        println!(
            "{} {command} (seed {seed}, {seconds} s, {} cores)",
            spec.name,
            cores()
        );
        print!("{}", report.table());
        all_correct &= report.correct;
        let w = Workload::build(spec, seed);
        entries.push(format!(
            "{}:{{\"ops\":{},\"distinct_keys\":{},\"digest\":\"{:016x}\",\"result\":{}}}",
            string(spec.name),
            w.len(),
            w.distinct_keys(),
            w.digest(),
            report.to_line()
        ));
    }
    write_json(
        args,
        &format!(
            "{{\"command\":{},\"seed\":{seed},\"seconds\":{},\"cores\":{},\"workloads\":{{{}}}}}",
            string(command),
            number(seconds),
            cores(),
            entries.join(",")
        ),
    )?;
    Ok(all_correct)
}

/// `aa`: the same build measured as interleaved sets. Prints, per metric
/// and workload, each set's median and quartile spread beside the bound.
/// Fails when two medians differ by more than half the bound. A metric
/// whose spread exceeds half its bound is marked `unresolved`: a change
/// of the size of the bound cannot be told from run-to-run noise on it,
/// and a comparison on that metric says so instead of "unchanged".
fn aa(args: &Args) -> Result<bool, String> {
    let sets: usize = args.num("sets", 2)?;
    let runs: usize = args.num("runs", 5)?;
    let seconds: f64 = args.num("seconds", DEFAULT_SECS)?;
    if sets < 2 || runs < 2 {
        return Err("aa needs --sets >= 2 and --runs >= 2".into());
    }
    let mut pass = true;
    let mut entries = Vec::new();
    for spec in selected(args)? {
        // values[set][metric] = one value per run; set s run r uses seed
        // DEFAULT_SEED + r, so the sets see the same inputs.
        let mut values: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); sets];
        let mut correct = true;
        for r in 0..runs {
            for set in values.iter_mut() {
                let report = run_child(spec, DEFAULT_SEED + r as u64, seconds, false)?;
                correct &= report.correct;
                for m in report.metrics {
                    set.entry(m.name).or_default().push(m.value);
                }
            }
        }
        println!(
            "{} ({sets} sets x {runs} runs, {seconds} s, {} cores){}",
            spec.name,
            cores(),
            if correct { "" } else { "  WRONG ANSWERS" }
        );
        println!(
            "  {:<16} {:>7}  medians / spreads per set",
            "metric", "bound"
        );
        pass &= correct;
        let mut rows = Vec::new();
        for def in &metrics::END_TO_END {
            let medians: Vec<f64> = values
                .iter()
                .map(|s| median(&mut s[def.name].clone()))
                .collect();
            let spreads: Vec<f64> = values
                .iter()
                .map(|s| quartile_spread(&s[def.name]))
                .collect();
            let base = medians[0].abs().max(f64::MIN_POSITIVE);
            let gap = medians
                .iter()
                .map(|m| (m - medians[0]).abs() / base)
                .fold(0.0, f64::max);
            let spread = spreads.iter().copied().fold(0.0, f64::max);
            let ok = gap <= def.bound / 2.0;
            let unresolved = spread > def.bound / 2.0;
            pass &= ok;
            let fmt = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.5}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "  {:<16} {:>7.3}  {} / {}  gap {:.4}{}",
                def.name,
                def.bound,
                fmt(&medians),
                fmt(&spreads),
                gap,
                match (ok, unresolved) {
                    (false, _) => "  FAIL",
                    (true, true) => "  unresolved",
                    (true, false) => "",
                }
            );
            let list = |v: &[f64]| v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(",");
            rows.push(format!(
                "{}:{{\"unit\":{},\"bound\":{},\"medians\":[{}],\"spreads\":[{}],\"gap\":{},\"ok\":{ok},\"unresolved\":{unresolved}}}",
                string(def.name),
                string(def.unit),
                number(def.bound),
                list(&medians),
                list(&spreads),
                number(gap)
            ));
        }
        entries.push(format!(
            "{}:{{\"correct\":{correct},\"metrics\":{{{}}}}}",
            string(spec.name),
            rows.join(",")
        ));
    }
    write_json(
        args,
        &format!(
            "{{\"command\":\"aa\",\"sets\":{sets},\"runs\":{runs},\"seconds\":{},\"cores\":{},\"pass\":{pass},\"workloads\":{{{}}}}}",
            number(seconds),
            cores(),
            entries.join(",")
        ),
    )?;
    println!("{}", if pass { "aa: sets agree" } else { "aa: FAILED" });
    Ok(pass)
}

/// `workloads`: what each workload submits under `--seed`, and a check
/// that no operation's cold time is a coin flip against its deadline.
fn workloads(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    #[allow(clippy::cast_precision_loss)]
    let deadline_us = (DEADLINE_MS * 1000) as f64;
    let mut pass = true;
    for spec in selected(args)? {
        let w = Workload::build(spec, seed);
        let warm_us: Vec<f64> = match &w.ops {
            Ops::Serve {
                ops,
                cache_capacity,
                ..
            } => {
                let (server, conns, warm, _) = crate::serve::set_up(ops, &w.order, *cache_capacity)
                    .map_err(|e| e.to_string())?;
                drop(conns);
                server.shutdown().map_err(|e| e.to_string())?;
                let mut us = vec![0.0; ops.len()];
                for r in &warm.replies {
                    us[r.op] = r.latency_us;
                }
                us
            }
            Ops::Engine {
                ops,
                mode,
                data_seed,
            } => {
                let rows = crate::engine::generate_rows(*data_seed);
                let (_, warm, _) = crate::engine::set_up(&rows, ops, &w.order, *mode);
                let mut us = vec![0.0; ops.len()];
                for o in &warm {
                    us[o.op] = o.latency_us;
                }
                us
            }
        };
        let slowest = warm_us.iter().copied().fold(0.0, f64::max);
        let coin_flips: Vec<usize> = (0..warm_us.len())
            .filter(|&i| warm_us[i] > deadline_us / 1.5 && warm_us[i] < deadline_us * 1.5)
            .collect();
        println!(
            "{:<13} seed {seed}: {} ops, {} distinct keys, digest {:016x}, cold pass {:.0} ms, slowest op {:.1} ms (deadline {DEADLINE_MS} ms)",
            spec.name,
            w.len(),
            w.distinct_keys(),
            w.digest(),
            warm_us.iter().sum::<f64>() / 1e3,
            slowest / 1e3
        );
        println!("  why: {}", spec.why);
        for i in &coin_flips {
            println!(
                "  op {i} took {:.0} ms cold: within 1.5x of its deadline",
                warm_us[*i] / 1e3
            );
        }
        pass &= coin_flips.is_empty();
    }
    Ok(pass)
}

/// `check`: `BENCHMARK.json` names the same workloads and metrics, with
/// the same units, directions and bounds, as this binary prints.
fn check(args: &Args) -> Result<bool, String> {
    let path = PathBuf::from(
        args.positional
            .first()
            .map_or("BENCHMARK.json", String::as_str),
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut problems = Vec::new();

    let listed = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();

    let workloads: Vec<(String, String)> = listed("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = SPECS
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    if workloads != ours {
        problems.push(format!("workloads differ: file {workloads:?}"));
    }
    let mut compare = |key: &str, defs: &[MetricDef], bounded: bool| {
        let file = listed(key);
        if file.len() != defs.len() {
            problems.push(format!(
                "{key}: file lists {} metrics, binary prints {}",
                file.len(),
                defs.len()
            ));
        }
        for def in defs {
            match file.iter().find(|m| field(m, "name") == def.name) {
                None => problems.push(format!("{key}: {} is missing from the file", def.name)),
                Some(m) => {
                    if field(m, "unit") != def.unit || field(m, "better") != def.better.as_str() {
                        problems.push(format!(
                            "{key}: {} has another unit or direction in the file",
                            def.name
                        ));
                    }
                    if bounded && m.get("bound").and_then(Json::as_f64) != Some(def.bound) {
                        problems.push(format!("{key}: {} has another bound in the file", def.name));
                    }
                }
            }
        }
    };
    compare("end_to_end", &metrics::END_TO_END, true);
    compare("per_layer", &metrics::PER_LAYER, false);
    for p in &problems {
        println!("{p}");
    }
    if problems.is_empty() {
        println!(
            "{} agrees with the binary: {} workloads, {} end-to-end and {} per-layer metrics",
            path.display(),
            SPECS.len(),
            metrics::END_TO_END.len(),
            metrics::PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}
