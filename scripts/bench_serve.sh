#!/usr/bin/env bash
# Regenerates BENCH_serve.json: the latch-serve overload trajectory.
#
# Drives mixed-priority traffic through the scheduler with a capped
# queue and an armed SLO. Every figure is an event count or a simulated
# cost-model cycle count, so the JSON is byte-identical on any machine —
# commit the refreshed file whenever admission or shedding changes.
# Tier-1 (scripts/tier1.sh) and CI both regenerate it and diff.
#
# Knobs (env vars): SESSIONS, EVENTS, CHUNK, OUT.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p latch-serve --bin serve_bench -- \
    --sessions "${SESSIONS:-24}" \
    --events "${EVENTS:-4000}" \
    --chunk "${CHUNK:-256}" \
    --out "${OUT:-BENCH_serve.json}"
