#!/usr/bin/env bash
# CI gate for the sww workspace: tier-1 build+tests, doc and format checks.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test --release --test concurrent_engine (engine stress)"
cargo test --release --test concurrent_engine -q

echo "==> cargo test --release --test chaos_resilience (fixed-seed chaos gate)"
cargo test --release --test chaos_resilience -q

echo "==> cargo test --release --test lifecycle (deadline/cancel/overload gate)"
cargo test --release --test lifecycle -q

echo "==> cargo test --release --test batch_equivalence (batched == sequential, bit for bit)"
cargo test --release --test batch_equivalence -q

echo "==> cargo test -p sww-genai --test proptest_kernel (tiled kernel bit-identity property suite)"
cargo test -p sww-genai --test proptest_kernel -q

echo "==> cargo test --release -p sww-genai --test steady_state_alloc (zero-allocation hot path)"
cargo test --release -p sww-genai --test steady_state_alloc -q

echo "==> cargo test --test golden_tables (paper-table regression snapshots)"
cargo test --test golden_tables -q

echo "==> cargo test --test genai_pixels (generated pixels == pre-optimisation golden digests)"
cargo test --test genai_pixels -q

echo "==> cargo test --manifest-path perfbench/Cargo.toml (measured benchmark self-tests)"
cargo test --manifest-path perfbench/Cargo.toml -q

# Perf gate: run the E17 tiled-kernel sweeps, emit the machine-readable
# report, and compare it against the checked-in baseline. The gate reads
# the *modelled* throughput columns (deterministic cost model — see
# PERFORMANCE.md), so it fails on a real kernel/cost regression, never on
# host noise; then it runs every row of the gate table
# (crates/bench/src/gate.rs, PERFORMANCE.md "The gate table"): the
# >= 1.5x speedup floor, zero steady-state pool allocations, and the
# E19-E21 invariants. Re-bless after an intentional change:
#   SWW_BLESS=1 ./ci.sh        (or: ./target/release/sww-cli bench-pr6 --out BENCH_PR6.json)
echo "==> bench-pr6 perf gate (target/BENCH_PR6.json vs checked-in baseline)"
./target/release/sww-cli bench-pr6 --out target/BENCH_PR6.json 2>/dev/null
if [ "${SWW_BLESS:-0}" = "1" ]; then
    cp target/BENCH_PR6.json BENCH_PR6.json
    echo "    blessed: BENCH_PR6.json updated from this run"
fi
./target/release/sww-cli bench-compare BENCH_PR6.json target/BENCH_PR6.json --tolerance 0.10

echo "==> cargo test -p sww-http2 --test proptest_hpack (HPACK property suite)"
cargo test -p sww-http2 --test proptest_hpack -q

echo "==> cargo test -p sww-http3 --test proptest_h3_state (h3 wire-state property suite)"
cargo test -p sww-http3 --test proptest_h3_state -q

echo "==> cargo test --release --test transport_equivalence (h2 == h3, byte for byte)"
cargo test --release --test transport_equivalence -q

echo "==> cargo test --release --test transport_hol (E18 head-of-line + /metrics reconciliation)"
cargo test --release --test transport_hol -q

# E18 gate: the h2-vs-h3 page-load comparison through the real chaos
# registry, with the latency spec on the command line exactly as a user
# would run it. Exits non-zero if the per-recipe payloads diverge
# between transports.
echo "==> bench-transport --chaos (E18 h2-vs-h3 gate)"
./target/release/sww-cli bench-transport --pages 3 --recipes 4 --gen-latency-ms 20 \
    --chaos "seed=7,engine.generate=latency:1.0:20" >/dev/null

echo "==> cargo test -p sww-core --test proptest_ring (consistent-hash ring property suite)"
cargo test -p sww-core --test proptest_ring -q

echo "==> cargo test -p sww-core --test proptest_gossip (SWIM failure-detector property suite)"
cargo test -p sww-core --test proptest_gossip -q

echo "==> cargo test --release --test edge_cluster (E19/E21 exactly-once + kill/replication battery)"
cargo test --release --test edge_cluster -q

# E19+E21 gate: the edge-cluster sweep, node-kill chaos run, and the
# replication failover + gossip partition scenarios from the command
# line exactly as a user would run them. Exits non-zero if any E19/E21
# row of the gate table (crates/bench/src/gate.rs, PERFORMANCE.md "The
# gate table") fails: hit rate strictly rising with node count, zero
# lost responses and identical bytes across kills, zero regenerations
# with replicas (at least one without), and the gossip heal bound.
echo "==> bench-cluster --chaos --replication 2 (E19+E21 edge gate)"
./target/release/sww-cli bench-cluster --nodes 1,2 --threads 2 --requests 5 \
    --replication 2 \
    --chaos "seed=7,engine.generate=latency:1.0:10" >/dev/null

echo "==> cargo test -p sww-html --test proptest_gencontent (generated-content property suite)"
cargo test -p sww-html --test proptest_gencontent -q

echo "==> cargo test -p sww-workload --test proptest_smallworld (Watts-Strogatz property suite)"
cargo test -p sww-workload --test proptest_smallworld -q

echo "==> cargo test --release --test workload_replay (E20 seeded-replay determinism + /metrics reconciliation)"
cargo test --release --test workload_replay -q

# E20 gate: the small-world workload sweep and live replay from the
# command line exactly as a user would run it, under chaos. Exits
# non-zero if any E20 row of the gate table (crates/bench/src/gate.rs,
# PERFORMANCE.md "The gate table") fails: hit rate strictly rising with
# graph clustering, modelled p99 under the deadline, and seeded replays
# that agree — response digests included even under chaos: each server
# draws faults from its own seeded scope, so the fault schedule replays
# per instance.
echo "==> bench-workload --chaos (E20 workload gate)"
./target/release/sww-cli bench-workload --requests 20000 --live-requests 150 \
    --chaos "seed=9,engine.generate=latency:0.5:5" >/dev/null

# Ratchet: the workspace test count must never silently shrink. Raise the
# floor when a PR adds tests; a drop below it means tests were lost.
TEST_FLOOR=906
echo "==> workspace test-count floor (>= ${TEST_FLOOR})"
TEST_COUNT=$(cargo test --workspace -- --list 2>/dev/null | grep -c ": test$")
echo "    ${TEST_COUNT} tests"
if [ "${TEST_COUNT}" -lt "${TEST_FLOOR}" ]; then
    echo "FAIL: workspace test count ${TEST_COUNT} fell below the floor ${TEST_FLOOR}" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
