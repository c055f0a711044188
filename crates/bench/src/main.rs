//! `sia-exp` — the one experiment driver.
//!
//! ```text
//! sia-exp all                              # every paper view, paper order → BENCH_all.json
//! sia-exp table2 table3 --queries 8        # two views, one shared sweep
//! sia-exp serve                            # a CI gate → BENCH_serve.json, exit 1 on a missed bar
//! sia-exp soak                             # the chaos soak → BENCH_soak.json
//! ```

use std::process::ExitCode;

use sia_bench::suite::{run_sweep, SweepConfig, SweepResult};
use sia_bench::{
    casestudy, limitations, motivating, obs_overhead, report, runtime, serve, soak, util, Gates,
};

const USAGE: &str = "\
usage:
  sia-exp <view>… [--queries N]
      views: motivating fig6 table2 table3 fig7 fig8 fig9 limitations | all
      Views in one invocation share one §6.3 sweep of N queries (default
      200, the paper's count); the SIA_v1/v2 baselines run iff table2 or
      table3 is among them. `all` writes BENCH_all.json, table3 alone
      BENCH_table3.json.
  sia-exp serve | soak | obs-overhead
      Gates run at the one scale CI uses, print and write their results
      (BENCH_<gate>.json), then exit 1 if a bar was missed.";

/// What a view reads of the shared sweep.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sweep {
    None,
    Sia,
    WithBaselines,
}

type View = fn(usize, Option<&SweepResult>) -> String;

/// The paper views, in paper order.
const VIEWS: [(&str, Sweep, View); 8] = [
    ("motivating", Sweep::None, |_, _| motivating::report()),
    ("fig6", Sweep::None, |_, _| {
        report::fig6(&casestudy::simulate(&casestudy::CaseStudyConfig::default()))
    }),
    ("table2", Sweep::WithBaselines, |_, s| {
        let r = s.expect("sweep ran");
        format!(
            "Table 1: baseline configurations\n{}\nTable 2: efficacy ({} queries)\n{}",
            report::table1(),
            r.queries,
            report::table2(r)
        )
    }),
    ("table3", Sweep::WithBaselines, |_, s| {
        let r = s.expect("sweep ran");
        format!(
            "Table 3: efficiency ({} queries)\n{}",
            r.queries,
            report::table3(r)
        )
    }),
    ("fig7", Sweep::Sia, |_, s| {
        report::fig7(s.expect("sweep ran"))
    }),
    ("fig8", Sweep::Sia, |_, s| {
        report::fig8(s.expect("sweep ran"))
    }),
    ("fig9", Sweep::None, |queries, _| runtime::report(queries)),
    ("limitations", Sweep::None, |_, _| limitations::report()),
];

type Gate = fn() -> Result<Gates, String>;

/// The CI gates.
const GATES: [(&str, Gate); 3] = [
    ("serve", || Ok(serve::run())),
    ("soak", soak::run),
    ("obs-overhead", || Ok(obs_overhead::run())),
];

struct Args {
    names: Vec<String>,
    queries: usize,
}

fn value<T: std::str::FromStr>(flag: &str, arg: Option<String>) -> Result<T, String> {
    arg.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        names: Vec::new(),
        queries: 200,
    };
    let mut sized = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--queries" => {
                parsed.queries = value(&arg, args.next())?;
                sized = true;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            "all" => parsed.names.extend(VIEWS.iter().map(|v| v.0.to_string())),
            name if VIEWS.iter().any(|v| v.0 == name) || GATES.iter().any(|g| g.0 == name) => {
                parsed.names.push(arg);
            }
            name => return Err(format!("unknown experiment {name:?}")),
        }
    }
    if parsed.names.is_empty() {
        return Err("name at least one experiment".to_string());
    }
    let picked = |name: &str| parsed.names.iter().any(|n| n == name);
    if sized && !VIEWS.iter().any(|v| picked(v.0)) {
        return Err("--queries sizes the paper views".to_string());
    }
    Ok(parsed)
}

/// Print the picked views in paper order over one shared sweep, run
/// when the first view that reads it comes up.
fn run_views(args: &Args) {
    let picked: Vec<_> = VIEWS
        .iter()
        .filter(|v| args.names.iter().any(|n| n == v.0))
        .collect();
    let Some(needs) = picked.iter().map(|v| v.1).max() else {
        return;
    };
    // The metrics snapshot rides along when a view that owns one runs.
    let snapshot = if picked.len() == VIEWS.len() {
        Some(("BENCH_all.json", "all"))
    } else if picked.iter().any(|v| v.0 == "table3") {
        Some(("BENCH_table3.json", "table3"))
    } else {
        None
    };
    if snapshot.is_some() {
        sia_obs::reset();
        sia_obs::enable();
    }
    let run_baselines = needs == Sweep::WithBaselines;
    let mut sweep = None;
    for (name, reads, view) in &picked {
        if picked.len() > 1 {
            println!("== {name} ==");
        }
        if *reads != Sweep::None && sweep.is_none() {
            eprintln!(
                "running synthesis sweep over {} queries ({})…",
                args.queries,
                if run_baselines {
                    "SIA + v1 + v2 + TC"
                } else {
                    "baselines skipped"
                }
            );
            sweep = Some(run_sweep(&SweepConfig {
                queries: args.queries,
                run_baselines,
                ..SweepConfig::default()
            }));
        }
        println!("{}", view(args.queries, sweep.as_ref()));
    }
    if let Some((path, experiment)) = snapshot {
        sia_obs::disable();
        util::write_results(path, &(report::metrics_json(experiment) + "\n"));
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run_views(&args);
    let mut failed = false;
    for (name, gate) in GATES {
        if !args.names.iter().any(|n| n == name) {
            continue;
        }
        let failures = match gate() {
            Ok(gates) => gates.failures().to_vec(),
            Err(e) => vec![e],
        };
        for f in &failures {
            eprintln!("FAIL [{name}]: {f}");
        }
        if failures.is_empty() {
            println!("PASS [{name}]");
        }
        failed |= !failures.is_empty();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
