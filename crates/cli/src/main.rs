//! `sia` — command-line interface to the predicate synthesizer.
//!
//! ```text
//! sia synth "a - b < 5 AND b < 0" --cols a            # synthesize a reduction
//! sia solve "x + y = 10 AND x - y = 4"                # SAT check + model
//! sia project "a - b < 5 AND b < 0" --keep a          # ∃-eliminate the rest
//! sia rewrite "SELECT * FROM lineitem, orders WHERE …" --table lineitem
//! sia baseline "y1 > x AND x > y2" --cols y1,y2       # transitive closure
//! sia serve --addr 127.0.0.1:7171 --workers 4         # synthesis service
//! sia batch requests.jsonl --addr 127.0.0.1:7171      # drive the service
//! sia top --addr 127.0.0.1:7171                       # live server telemetry
//! ```
//!
//! Exit codes: 0 success, 1 error, 2 synthesis timeout / failed batch
//! requests (all-timeout batches also exit 2), 3 error-severity lint
//! findings.

use sia_cli::{print_line, run, Command};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Command::parse(&args) {
        Ok(cmd) => match run(cmd) {
            Ok(output) => match print_line(&output) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(e.code)
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", sia_cli::USAGE);
            ExitCode::FAILURE
        }
    }
}
