#!/usr/bin/env bash
# Regenerate the committed benchmark trajectory files:
#
#   BENCH_kernels.json  — real-mode kernel microbenchmarks
#   BENCH_engine.json   — real-mode engine/baseline runs + model-mode
#                         headline experiments (Table I/II, Fig. 6)
#   BENCH_recovery.json — modelled recovery overhead under the standard
#                         seeded fault plan (crash-rate sweep, IM vs CB,
#                         speculation saving)
#   BENCH_store.json    — durable block store: checksummed spill + driver
#                         checkpoint round trips, the tile codec and one
#                         durable shuffle stage, real-run durability
#                         overhead and checkpoint–restart cost
#   BENCH_remote.json   — remote replica tier: replication overhead
#                         (off vs on) and restore-vs-recompute recovery
#                         cost under a seeded crash / remote outage
#
# Usage:
#   scripts/bench.sh              # full run (go test default benchtime)
#   BENCHTIME=1x scripts/bench.sh # CI smoke run: one iteration per bench
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"

go build -o /tmp/benchjson ./cmd/benchjson

go test -run '^$' -bench 'BenchmarkKernel' -benchtime "$BENCHTIME" -benchmem . \
  | tee /dev/stderr | /tmp/benchjson -o BENCH_kernels.json

go test -run '^$' -bench 'BenchmarkEngine|BenchmarkBaseline|BenchmarkTable|BenchmarkFig6' \
  -benchtime "$BENCHTIME" -benchmem . \
  | tee /dev/stderr | /tmp/benchjson -o BENCH_engine.json

# Model-mode only (deterministic virtual time): one iteration is exact.
go test -run '^$' -bench 'BenchmarkRecovery' -benchtime 1x -benchmem . \
  | tee /dev/stderr | /tmp/benchjson -o BENCH_recovery.json

go test -run '^$' -bench 'BenchmarkStore|BenchmarkDurable|BenchmarkTileCodec' -benchtime "$BENCHTIME" -benchmem . \
  | tee /dev/stderr | /tmp/benchjson -o BENCH_store.json

# Remote-tier recovery is modelled time on a seeded fault plan: one
# iteration is exact, same as the recovery sweep above.
go test -run '^$' -bench 'BenchmarkRemote' -benchtime 1x -benchmem . \
  | tee /dev/stderr | /tmp/benchjson -o BENCH_remote.json

echo "wrote BENCH_kernels.json, BENCH_engine.json, BENCH_recovery.json, BENCH_store.json and BENCH_remote.json" >&2
