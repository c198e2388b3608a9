#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before merging.
# Mirrors ROADMAP.md's verify line and adds the workspace lint gate
# plus both observability configurations (the obs layer must compile
# to no-ops when off and stay green when on).
set -euo pipefail
cd "$(dirname "$0")/.."

OBS_FEATURES="latch/obs,latch-bench/obs,latch-router/obs"

echo "==> cargo build --release (obs off)"
cargo build --release

echo "==> cargo build --release (obs on)"
cargo build --release --workspace --features "$OBS_FEATURES"

# perfbench is a Cargo workspace of its own, so no build above compiles
# it; check it here, or an API change that breaks it would show only as
# every benchmark run failing.
echo "==> cargo check perfbench"
cargo check -q --manifest-path perfbench/Cargo.toml

# The committed perf trajectory: BENCH_perf.json must parse, and every
# row must name only workloads and end-to-end metrics that
# BENCHMARK.json declares.
echo "==> BENCH_perf.json (parses, names only BENCHMARK.json terms)"
python3 scripts/check_bench_perf.py

echo "==> cargo test -q (obs off)"
cargo test -q

echo "==> cargo test -q (obs on)"
cargo test -q --workspace --features "$OBS_FEATURES"

# The serving layer is exercised explicitly in both observability
# configurations, including the eviction-churn, breaching-SLO snapshot,
# latchd --slo-cycles and pinned work-count tests.
echo "==> latch-serve (obs off)"
cargo test -q -p latch-serve

echo "==> latch-serve (obs on)"
cargo test -q -p latch-serve --features obs

# The router's pinned replication work counts: the exact frames, backup
# seeds, compactions (reseeds of a backup whose WAL passed 1 MiB or
# twice its last seed) and lags of a cluster-r1-shaped drive and of a
# never-snapshotting owner. The counters exist only with obs on.
echo "==> latch-router replication counts (obs on)"
cargo test -q -p latch-router --features obs --test replication_counts

# The session pipeline's pinned work counts: events, propagation rules
# counted and TRF reloads of five fixed streams. The tier gate skips
# the reload for events whose rules are clean-to-clean no-ops, so the
# reloads count only full-path events. The counters exist only with
# obs on.
echo "==> latch-systems apply counts (obs on)"
cargo test -q -p latch-systems --features obs --test apply_counts

# Crash-recovery stress: a fixed-seed kill loop over the real-directory
# storage backend. Each iteration kills a durable service mid-stream,
# mangles the surviving files (torn WAL tail, snapshot bit rot),
# recovers, and requires byte-identical reports vs. an uninterrupted
# run — with every corrupt frame quarantined, never a panic.
echo "==> latch-stress crash (fixed-seed kill loop, real dir backend)"
CRASH_DIR="$(mktemp -d)"
cargo run --release -q -p latch-conform --bin latch-stress -- crash \
    --seed 7 --iters 24 --dir "$CRASH_DIR"
rm -rf "$CRASH_DIR"

# The same kill loop with 8 sessions, so one barrier covers several
# snapshot frames put in place, and the journal cuts that follow it,
# under the kills and the mangling.
echo "==> latch-stress crash (8 sessions per group commit)"
CRASH_DIR="$(mktemp -d)"
cargo run --release -q -p latch-conform --bin latch-stress -- crash \
    --seed 7 --iters 24 --sessions 8 --dir "$CRASH_DIR"
rm -rf "$CRASH_DIR"

# The kill loop at a seed whose kills leave two snapshot generations of
# a session whose slots differ, so the stale-slot mangle fires: it
# copies one 4 KiB slot block from the other generation, a patch extent
# that never landed, and the scenario asserts recovery quarantines that
# frame. The grep fails the step if no slot was staled.
echo "==> latch-stress crash (stale snapshot slots)"
CRASH_DIR="$(mktemp -d)"
CRASH_OUT="$(mktemp)"
cargo run --release -q -p latch-conform --bin latch-stress -- crash \
    --seed 3 --iters 24 --dir "$CRASH_DIR" | tee "$CRASH_OUT"
grep -q "([1-9][0-9]* stale slots)" "$CRASH_OUT" \
    || { rm -rf "$CRASH_DIR" "$CRASH_OUT"; echo "tier1: no stale slot was mangled" >&2; exit 1; }
rm -rf "$CRASH_DIR" "$CRASH_OUT"

# The committed overload trajectory: every BENCH_serve.json figure is an
# event or simulated-cycle count, so a rerun must reproduce the file
# byte for byte, or the change moved admission or shedding without
# refreshing it (scripts/bench_serve.sh does).
echo "==> BENCH_serve.json (regenerated trajectory matches the committed file)"
SERVE_BENCH="$(mktemp)"
OUT="$SERVE_BENCH" bash scripts/bench_serve.sh
diff BENCH_serve.json "$SERVE_BENCH" \
    || { rm -f "$SERVE_BENCH"; echo "tier1: BENCH_serve.json is stale; run scripts/bench_serve.sh" >&2; exit 1; }
rm -f "$SERVE_BENCH"

# Overload stress: fixed-seed drives under burst/slow-client plans with
# an armed SLO. Asserts deterministic shedding, zero false negatives,
# and that every session's report equals a solo run of its admitted
# stream — in both observability configurations.
echo "==> latch-stress overload (obs off)"
cargo run --release -q -p latch-conform --bin latch-stress -- overload \
    --seed 7 --iters 8 --events 1500

echo "==> latch-stress overload (obs on)"
cargo run --release -q -p latch-conform --bin latch-stress --features latch-router/obs -- overload \
    --seed 11 --iters 8 --events 1500

# Wire stress: the framed latchd front door driven over real loopback
# sockets. Phase 1 runs one client thread per session under a seeded
# overload plan and requires every admitted stream to reproduce solo
# (no loss, no duplication); phase 2 reruns a single-connection drive
# and requires byte-identical shed sets, reports, and SLO pushes.
echo "==> latch-stress latchd (obs off)"
cargo run --release -q -p latch-conform --bin latch-stress -- latchd \
    --seed 7 --sessions 4 --events 1200

echo "==> latch-stress latchd (obs on)"
cargo run --release -q -p latch-conform --bin latch-stress --features latch-router/obs -- latchd \
    --seed 11 --sessions 4 --events 1200

# Cluster stress: a consistent-hash router over real latchd nodes with
# a seeded mid-stream node kill. Phase 1 runs client threads through
# the router's wire front; the client whose ack crosses a seeded point
# kills session 0's owner, and the exporter ships its surviving storage
# to the new owners; phase 2 reruns a deterministic single-threaded drive and requires
# byte-identical reports *and* migration history across reruns.
echo "==> latch-stress cluster (obs off)"
cargo run --release -q -p latch-conform --bin latch-stress -- cluster \
    --seed 7 --sessions 6 --events 1200

echo "==> latch-stress cluster (obs on)"
cargo run --release -q -p latch-conform --bin latch-stress --features latch-router/obs -- cluster \
    --seed 11 --sessions 6 --events 1200

# Replica stress: 2-of-3 synchronous replication with a seeded node
# kill that destroys the victim's storage outright — the exporter has
# nothing, so recovery must run on backup journals alone. Phase 1 runs
# client threads through the router's wire front; phase 2 reruns a
# deterministic drive with a planned join + leave mid-stream and
# requires byte-identical reports, migration history, and rebalance
# history across reruns.
echo "==> latch-stress replica (obs off)"
cargo run --release -q -p latch-conform --bin latch-stress -- replica \
    --seed 7 --sessions 6 --events 1200

echo "==> latch-stress replica (obs on)"
cargo run --release -q -p latch-conform --bin latch-stress --features latch-router/obs -- replica \
    --seed 11 --sessions 6 --events 1200

# Router-HA stress: a warm standby behind the primary router. Phase 1
# kills the primary mid-stream under HaClient threads (odd seeds also
# destroy session 0's owner in the same blast) and the standby's
# epoch-fenced takeover must drain every stream byte-identical; phase 2
# reruns a deterministic router+node blast and requires byte-identical
# reports, takeover record, and migration history across reruns.
echo "==> latch-stress router-ha (obs off)"
cargo run --release -q -p latch-conform --bin latch-stress -- router-ha \
    --seed 7 --sessions 6 --events 1000

echo "==> latch-stress router-ha (obs on)"
cargo run --release -q -p latch-conform --bin latch-stress --features latch-router/obs -- router-ha \
    --seed 11 --sessions 6 --events 1000

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p latch-serve (deny warnings)"
cargo clippy -q -p latch-serve --all-targets -- -D warnings

echo "==> cargo clippy -p latch-proto -p latch-client -p latch-router -p latch-replica (deny warnings)"
cargo clippy -q -p latch-proto -p latch-client -p latch-router -p latch-replica --all-targets -- -D warnings

# Fixed differential-conformance budget: 64 seeds through every system
# variant vs. the reference oracle (DESIGN.md §11). Run twice and diff
# the summaries — byte-identical output is part of the contract.
echo "==> latch-conform (64-seed differential budget, determinism check)"
CONFORM_OUT="$(mktemp -d)"
trap 'rm -rf "$CONFORM_OUT"' EXIT
cargo run --release -q -p latch-conform -- --seeds 64 \
    --corpus-dir "$CONFORM_OUT/corpus" | tee "$CONFORM_OUT/run1.txt"
cargo run --release -q -p latch-conform -- --seeds 64 \
    --corpus-dir "$CONFORM_OUT/corpus" > "$CONFORM_OUT/run2.txt"
diff "$CONFORM_OUT/run1.txt" "$CONFORM_OUT/run2.txt" \
    || { echo "tier1: conformance summary not deterministic" >&2; exit 1; }

echo "tier1: OK"
