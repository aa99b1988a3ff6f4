#!/usr/bin/env bash
# Regenerates BENCH_baseline.json: runs the criterion benches with JSON
# output enabled, then merges them (computing serial-vs-parallel speedups)
# with the `baseline` bin.
set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute path: cargo runs bench binaries with the package dir as cwd.
export CRITERION_JSON_DIR="$PWD/target/criterion-json"
rm -rf "$CRITERION_JSON_DIR"

cargo bench --bench substrate
cargo bench --bench pipeline

cargo run --release -p deepmorph-bench --bin baseline -- "$CRITERION_JSON_DIR" BENCH_baseline.json
