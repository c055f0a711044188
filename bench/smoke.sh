#!/usr/bin/env bash
# Quick end-to-end check of the benchmark itself, for a CI job: every
# workload untraced for 2 s, every workload traced, and BENCHMARK.json
# against the names, units and bounds the binary prints. Run from the
# repository root. Exits non-zero on a wrong answer, a failed operation,
# a missing metric or a disagreement with BENCHMARK.json.
set -euo pipefail

perf() { bash bench/run.sh "$@"; }

perf check BENCHMARK.json
perf run --all --secs 2
perf trace --all --secs 2
for w in serve_cegis serve_mix engine_join engine_synth; do
    test -s "bench/out/$w.trace.jsonl" || { echo "no trace file for $w" >&2; exit 1; }
done
echo "smoke: ok"
