#!/usr/bin/env bash
# Runs the criterion benches and fails (exit 1) if any bench id regresses
# more than 15% (median) against the committed BENCH_baseline.json.
# Used by the CI bench-smoke job.
#
# Shared runners have bursty host contention that can inflate a median
# several-fold, so a failing comparison is retried with a fresh bench run
# (BENCH_RETRIES attempts, default 3): a genuine regression fails every
# run, while a contention spike passes on retry.
set -euo pipefail
cd "$(dirname "$0")/.."

export CRITERION_JSON_DIR="${CRITERION_JSON_DIR:-$PWD/target/criterion-json}"

run_once() {
  rm -rf "$CRITERION_JSON_DIR"
  cargo bench --bench substrate
  cargo bench --bench pipeline
  cargo run --release -p deepmorph-bench --bin bench_compare -- \
    "$CRITERION_JSON_DIR" BENCH_baseline.json --threshold "${BENCH_THRESHOLD:-0.15}"
}

attempts="${BENCH_RETRIES:-3}"
for i in $(seq 1 "$attempts"); do
  if run_once; then
    exit 0
  fi
  echo "bench compare attempt $i/$attempts failed (possible host contention)" >&2
  sleep 10
done
echo "bench compare failed on all $attempts attempts — treating as a real regression" >&2
exit 1
