#!/usr/bin/env bash
# Repo verify path: tier-1 build/tests plus the failure-scenario,
# multi-tenant scenario and policy-conformance harnesses, a warning-free
# clippy pass, formatting, and a warning-free doc build. Run from the
# repo root.
#
#   scripts/verify.sh           # the full gate
#   scripts/verify.sh --quick   # tier-1 (release build + root tests) and
#                               # a build of every workspace test target
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Tier-1 builds only the root package's tests; the crates' unit tests
# compile under --workspace alone, so a type change there must not pass
# the quick gate while their test targets fail to build.
cargo test -q --workspace --no-run

if [[ "${1:-}" == "--quick" ]]; then
  echo "verify: OK (quick — tier-1 and workspace test builds)"
  exit 0
fi

cargo test -q --workspace
cargo test -q --test failure_scenarios
# Pinned proptest counterexamples must stay checked in and keep passing:
# proptest replays every seed in the regressions file before generating new
# cases, so running the suite re-verifies each past failure on every gate.
test -s tests/property_driver.proptest-regressions || {
  echo "verify: tests/property_driver.proptest-regressions missing or empty" >&2
  exit 1
}
cargo test -q --test property_driver
cargo test -q --test property_tenants
# Multi-tenant scenario suite (DESIGN.md §11): every scenario's golden
# snapshot holds and replays byte-identically.
cargo test -q --test tenant_scenarios
# Policy conformance (DESIGN.md §12): every pluggable contention-control
# policy replays the scenario suite byte-identically, the pinned
# competitor-policy goldens hold, and the solver family behind the CE
# policy agrees on the optimum up to k = 16.
cargo test -q --test policy_arena
cargo test -q -p dosas --lib solvers_cross_check_to_k16
# One request table per server (DESIGN.md §3): R's table is the probed
# queue — snapshot rows, Table II totals, depth and transitions agree.
cargo test -q -p dosas --lib runtime::
# Driver memory (DESIGN.md §7): exact-size programs, bounded heap per rank.
cargo test -q --test driver_memory
# Incremental-share guarantees (DESIGN.md §10): the fabric's dirty-set
# fill must be bit-identical to the from-scratch fill, slot reuse must not
# reorder any fabric output, and zero-rate fault windows must not wedge
# completion tracking. The CPU's virtual-time share must complete the same
# tasks as its per-task water-fill reference within 1 ns, also over a
# 10^5 s busy period at up to 10^4 tasks, and touch O(log n) tasks per
# operation at 1,024 live tasks.
cargo test -q -p simkit --lib virtual_time_share_matches_water_fill_reference
cargo test -q -p simkit --lib long_horizon_completions_stay_within_a_nanosecond
cargo test -q -p simkit --lib work_per_operation_is_logarithmic_at_1024_tasks
cargo test -q -p cluster --lib incremental_fill_matches_full_rescan
cargo test -q -p cluster --lib outputs_keep_flow_id_order_under_slot_reuse
cargo test -q --test failure_scenarios zero_rate_stall_window_completes_after_recovery
# A CPU fault window that closes mid-kernel must re-arm the CPU's tick: the
# kernel started under a full stall, so no other event would resume it.
cargo test -q --test failure_scenarios cpu_stall_closing_mid_kernel_rearms_the_cpu_tick
# Deep CPU sharing: hundreds of kernels on one core, interrupted mid-run and
# slowed, stalled and restored by a CPU fault, must match their goldens.
cargo test -q --test golden_metrics deep_sharing_golden_is_bit_identical
# One armed tick per resource (DESIGN.md §5.2): the simkit timer keeps an
# identical re-arm's earlier seq, cancels a superseded or unneeded tick
# (even one due now) and never dispatches a cancelled one; on the paper
# workload every cancelled event is a suppressed disk, CPU or fabric tick,
# and scheduled = dispatched + cancelled.
cargo test -q -p simkit --lib timer::tests
cargo test -q --test obs_determinism paper_workload_cancels_only_suppressed_resource_ticks
# Per-event cost independent of cluster size (DESIGN.md §6, §15): the
# indexed fault plan must answer every query exactly like a linear scan of
# the plan, a fault boundary must visit only the nodes that change there,
# and a fill on a 10k-host star must walk only its dirty component while
# matching the eager full-rescan reference bit for bit.
cargo test -q -p simkit --lib indexed_queries_match_linear_scan
cargo test -q -p dosas --lib fault_boundaries_touch_only_the_nodes_that_change
cargo test -q -p cluster --lib component_walk_visits_only_dirty_flows_on_a_10k_host_star
# Topology gate (DESIGN.md §15): the star builder must reproduce the legacy
# single-switch fill bit-for-bit (so every pre-topology golden stays
# byte-identical), the fat-tree graph fill must match the full-rescan
# reference, the churn schedule must stay pod-local, and the fat-tree
# scenario must replay byte-identically.
cargo test -q -p cluster --lib star_topology_fill_matches_legacy_star
cargo test -q -p cluster --lib fat_tree
cargo test -q -p cluster --lib topology_churn
cargo test -q --test tenant_scenarios fat_tree
# Fill-scaling gate (DESIGN.md §15), counted rather than timed so it holds
# on any host: on the 1k- and 10k-host fat-tree churn points (k = 16 and
# k = 34, the latter 108,086 flows) a full rescan must refill >= 20x more
# flows per churn event than the incremental walk visits, and no tick may
# refill more than one pod. Release-only: in debug builds the fabric's
# oracle adds a global fill after every fill.
cargo test -q --release -p cluster --lib \
    incremental_fill_beats_full_rescan_20x_at_10k_hosts -- --include-ignored
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Observability smoke: a small scenario with --obs-out must emit its
# artifacts, the Prometheus snapshot must parse, every timeline line must
# round-trip through serde, and profile.json must count dispatched events
# under every subsystem label (--check-obs). The label test pins the six
# profile labels the benchmark's per-layer metrics key on.
cargo test -q -p dosas --lib profile_labels_map_every_event_onto_the_six_layers
OBS_DIR="$(mktemp -d)"
SOAK_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$SOAK_DIR"' EXIT
cargo run -q --release --bin dosas-sim -- \
    --scheme dosas --n 4 --size-mb 32 --obs-out "$OBS_DIR" >/dev/null
for f in metrics.prom timeline.jsonl trace.json; do
    test -s "$OBS_DIR/$f" || { echo "verify: missing obs artifact $f" >&2; exit 1; }
done
cargo run -q --release --bin dosas-sim -- --check-obs "$OBS_DIR"
# Soak smoke: the long-horizon scenario streams its timeline to disk at
# record time (O(1) memory); the streamed JSONL must pass the same
# validator as the ring-buffered path.
cargo run -q --release -p bench --bin scenario -- soak --summary --obs-out "$SOAK_DIR"
test -s "$SOAK_DIR/timeline.jsonl" || {
  echo "verify: soak streamed no timeline records" >&2
  exit 1
}
cargo run -q --release --bin dosas-sim -- --check-obs "$SOAK_DIR"
cargo test -q --test obs_determinism

# Request-autopsy gate (DESIGN.md §14): the additivity/partition proptests
# must hold, and the rendered attribution report for a faulted scenario —
# the artifact `--autopsy` / `--explain` ship — must be byte-identical
# across two runs.
cargo test -q --test property_autopsy
AUT_FIRST="$(mktemp)"
AUT_REPLAY="$(mktemp)"
trap 'rm -rf "$OBS_DIR" "$SOAK_DIR" "$AUT_FIRST" "$AUT_REPLAY"' EXIT
for out in "$AUT_FIRST" "$AUT_REPLAY"; do
  cargo run -q --release -p bench --bin scenario -- straggler --explain \
      >"$out" 2>/dev/null
done
cmp -s "$AUT_FIRST" "$AUT_REPLAY" || {
  echo "verify: autopsy report diverged between two runs" >&2
  diff "$AUT_FIRST" "$AUT_REPLAY" | head >&2
  exit 1
}
grep -q '^# request autopsy' "$AUT_FIRST" || {
  echo "verify: --explain produced no autopsy report" >&2
  exit 1
}

echo "verify: OK"
