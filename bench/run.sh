#!/usr/bin/env bash
# Build both binaries (sia-perf and its traced sibling sia-perf-trace),
# then run sia-perf with the arguments given. `cargo run` would build only
# one of the two. Build output goes to standard error; on a failed build
# nothing is printed on standard output and the exit code is cargo's.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/sia-perf" "$@"
