#!/usr/bin/env bash
# Repo verify path: tier-1 build/tests plus the failure-scenario,
# multi-tenant scenario and policy-conformance harnesses, a warning-free
# clippy pass, formatting, and a warning-free doc build. Run from the
# repo root.
#
#   scripts/verify.sh           # the full gate
#   scripts/verify.sh --quick   # tier-1 only (release build + root tests)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

if [[ "${1:-}" == "--quick" ]]; then
  echo "verify: OK (quick — tier-1 only)"
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
# Incremental-fabric guarantees (DESIGN.md §10): the coalesced/dirty-set
# fill must be bit-identical to the from-scratch fill in both substrates,
# the slot-indexed share resource must match its map-and-heap reference
# bit for bit, slot reuse must not reorder any fabric output, and
# zero-rate fault windows must not wedge completion tracking.
cargo test -q -p simkit --lib coalesced_fill_matches_eager_fill
cargo test -q -p simkit --lib slot_indexed_share_matches_reference
cargo test -q -p cluster --lib incremental_fill_matches_full_rescan
cargo test -q -p cluster --lib outputs_keep_flow_id_order_under_slot_reuse
cargo test -q --test failure_scenarios zero_rate_stall_window_completes_after_recovery
# Per-event cost independent of cluster size (DESIGN.md §6, §15): the
# indexed fault plan must answer every query exactly like a linear scan of
# the plan, a fault boundary must visit only the nodes that change there,
# and a fill on a 10k-host star must walk only its dirty component while
# matching a full rescan bit for bit.
cargo test -q -p simkit --lib indexed_queries_match_linear_scan
cargo test -q -p dosas --lib fault_boundaries_touch_only_the_nodes_that_change
cargo test -q -p cluster --lib component_walk_visits_only_dirty_flows_on_a_10k_host_star
# Topology gate (DESIGN.md §15): the star builder must reproduce the legacy
# single-switch fill bit-for-bit (so every pre-topology golden stays
# byte-identical), the fat-tree graph fill must match a full rescan, the
# churn schedule must stay pod-local, and the fat-tree scenario must
# replay byte-identically.
cargo test -q -p cluster --lib star_topology_fill_matches_legacy_star
cargo test -q -p cluster --lib fat_tree
cargo test -q -p bench --lib topology_churn
cargo test -q --test tenant_scenarios fat_tree
# The committed bench baseline must carry the fill-scaling acceptance: on
# the 10k-host fat-tree churn point the incremental fill beats a full
# rescan by >= 20x. bench_baseline asserts this at generation time; the
# check here keeps a stale or hand-edited baseline from slipping through.
python3 - <<'EOF'
import json
top = json.load(open("BENCH_simulator.json"))["topology"]
pt = next(p for p in top["points"] if p["hosts"] >= 9000)
ratio = pt["incremental_vs_full_ratio"]
assert ratio >= 20.0, f"topology 10k-host ratio regressed: {ratio}"
print(f"verify: topology 10k-host incremental-vs-full ratio {ratio:.0f}x")
EOF
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Observability smoke: a small scenario with --obs-out must emit its
# artifacts, the Prometheus snapshot must parse, every timeline line must
# round-trip through serde, and profile.json must count dispatched events
# under every subsystem label (--check-obs).
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
