#!/usr/bin/env bash
# Benchmark path: runs the criterion suites in crates/bench/benches/ and
# regenerates the committed machine-readable engine baseline
# (BENCH_simulator.json at the repo root). Run from the repo root.
#
# The simulator suite includes the `fabric_churn` group (incremental vs
# full-rescan water-filling under flow churn at 64 / 1024 / 8192 flows);
# bench_baseline emits the same comparison into BENCH_simulator.json
# (schema v8, including the multi-tenant scenario suite of
# crates/bench/src/scenarios.rs and the fat-tree fill-scaling points of
# DESIGN.md §15 — the 10k-host topology point makes the baseline refresh
# take several extra minutes).
#
#   scripts/bench.sh            # everything (criterion suites are slow)
#   scripts/bench.sh baseline   # just refresh BENCH_simulator.json
#   scripts/bench.sh criterion  # just the criterion suites
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"

if [[ "$mode" == "all" || "$mode" == "criterion" ]]; then
  for suite in scheduler kernels simulator endtoend; do
    cargo bench -p bench --bench "$suite"
  done
fi

if [[ "$mode" == "all" || "$mode" == "baseline" ]]; then
  cargo run --release -p bench --bin bench_baseline
fi

echo "bench: OK"
