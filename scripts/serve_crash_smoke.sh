#!/usr/bin/env bash
# serve_crash_smoke.sh — end-to-end crash-safety smoke for `dpspark serve`.
#
# Phase 1 runs a mixed batch (both benches/drivers, one chaos-seeded job,
# idempotency keys on everything) to completion on a journaled server and
# records the reference checksums. Phase 2 replays the same batch on a
# fresh journal and SIGKILLs the server mid-flight — once the batch's one
# long job has a checkpoint file on disk, so the restart has something to
# resume from. Phase 3 restarts on the surviving journal, waits for replay
# (/readyz), retries every submission under its original idempotency key,
# and gates on:
#   - every job terminal `done`;
#   - every checksum bit-identical to the uninterrupted reference;
#   - total job count == batch size (zero duplicate executions);
#   - the restart log reporting a journal replay;
#   - no checkpoint directory outliving its job: ckpt/ is empty after
#     phase 1's graceful stop and once phase 3's jobs are done.
#
# Env: DPSPARK_BIN (prebuilt binary; built here if unset),
#      WORK (scratch dir, kept for CI artifacts; mktemp -d if unset),
#      PORT (default 8932).
set -euo pipefail

BIN=${DPSPARK_BIN:-}
WORK=${WORK:-$(mktemp -d)}
PORT=${PORT:-8932}
BASE=127.0.0.1:$PORT
LOG=$WORK/serve.log
mkdir -p "$WORK"

if [ -z "$BIN" ]; then
  BIN=$WORK/dpspark
  go build -o "$BIN" ./cmd/dpspark
fi

KEYS=(smoke-a smoke-b smoke-c smoke-d smoke-e)
SPECS=(
  '{"tenant":"alice","bench":"fw","driver":"im","n":256,"block":32,"seed":1,"priority":2,"idempotency_key":"smoke-a"}'
  '{"tenant":"bob","bench":"ge","driver":"cb","n":256,"block":32,"seed":2,"idempotency_key":"smoke-b"}'
  '{"tenant":"carol","bench":"fw","driver":"cb","n":256,"block":32,"seed":3,"chaos_seed":11,"chaos_crashes":1,"idempotency_key":"smoke-c"}'
  '{"tenant":"dave","bench":"ge","driver":"im","n":512,"block":64,"seed":4,"idempotency_key":"smoke-d"}'
  # Long enough (seconds of iterations against the server's 100 ms
  # checkpoint interval) to be caught mid-run with a checkpoint written.
  '{"tenant":"erin","bench":"fw","driver":"im","n":2048,"block":128,"seed":5,"priority":3,"idempotency_key":"smoke-e"}'
)

SRV=""
start() { # start <journal-dir>
  "$BIN" serve -listen "$BASE" -journal "$1" -max-jobs 2 >> "$LOG" 2>&1 &
  SRV=$!
}

wait_ready() {
  for _ in $(seq 150); do
    curl -sf "$BASE/readyz" > /dev/null && return 0
    sleep 0.2
  done
  echo "FATAL: server never became ready" >&2
  return 1
}

submit() { # submit <spec-json> -> prints job id, asserts 202
  local out code
  out=$WORK/submit.json
  code=$(curl -s -o "$out" -w '%{http_code}' -X POST "$BASE/jobs" -d "$1")
  if [ "$code" != 202 ]; then
    echo "FATAL: submit returned $code: $(cat "$out")" >&2
    return 1
  fi
  jq -r .id "$out"
}

poll_done() { # poll_done <id> -> prints checksum once terminal done
  local st
  for _ in $(seq 400); do
    st=$(curl -sf "$BASE/jobs/$1" | jq -r .state)
    case "$st" in
      done) curl -sf "$BASE/jobs/$1/result" | jq -r .checksum; return 0 ;;
      failed|cancelled|quarantined)
        echo "FATAL: job $1 ended $st" >&2
        curl -sf "$BASE/jobs/$1" >&2 || true
        return 1 ;;
    esac
    sleep 0.3
  done
  echo "FATAL: job $1 never finished" >&2
  return 1
}

no_ckpt_dirs() { # no_ckpt_dirs <journal-dir> <when>: every job is finished, so ckpt/ must be empty
  local left
  left=$(ls -A "$1/ckpt")
  if [ -n "$left" ]; then
    echo "FATAL: $2: ckpt/ still holds checkpoint directories of finished jobs: $left" >&2
    return 1
  fi
}

# ---- Phase 1: uninterrupted reference run -------------------------------
echo "== phase 1: reference run"
start "$WORK/journal-ref"
wait_ready
declare -A REF
for i in "${!SPECS[@]}"; do
  id=$(submit "${SPECS[$i]}")
  REF[${KEYS[$i]}]="$id"
done
declare -A REFSUM
for i in "${!SPECS[@]}"; do
  REFSUM[${KEYS[$i]}]=$(poll_done "${REF[${KEYS[$i]}]}")
  echo "   ${KEYS[$i]}: checksum ${REFSUM[${KEYS[$i]}]}"
done
kill -TERM "$SRV" && wait "$SRV"
no_ckpt_dirs "$WORK/journal-ref" "after the reference run's graceful stop"

# ---- Phase 2: same batch, SIGKILL mid-flight ----------------------------
echo "== phase 2: crash run (kill -9 mid-flight)"
start "$WORK/journal-crash"
wait_ready
for sp in "${SPECS[@]}"; do
  submit "$sp" > /dev/null
done
# Let the batch get genuinely in flight: kill the moment a checkpoint
# file exists (the long job's — the short ones finish inside one interval).
for _ in $(seq 1200); do
  compgen -G "$WORK/journal-crash/ckpt/*/ckpt-*.ck" > /dev/null && break
  sleep 0.05
done
kill -9 "$SRV"
wait "$SRV" 2> /dev/null || true
compgen -G "$WORK/journal-crash/ckpt/*/ckpt-*.ck" > /dev/null || {
  echo "FATAL: no checkpoint file on disk at the kill -9 — the restart would only exercise the clean re-run" >&2
  exit 1
}

# ---- Phase 3: restart, replay, retry, verify ----------------------------
echo "== phase 3: restart + recovery"
start "$WORK/journal-crash"
wait_ready
grep -q 'replayed:' "$LOG" || { echo "FATAL: restart log has no journal replay line" >&2; exit 1; }
# The client's crash response: retry every submission under its original
# idempotency key. Replayed jobs dedup; anything the crash erased is
# re-admitted fresh. Either way each key maps to exactly one job.
declare -A REC
for i in "${!SPECS[@]}"; do
  REC[${KEYS[$i]}]=$(submit "${SPECS[$i]}")
done
for k in "${KEYS[@]}"; do
  sum=$(poll_done "${REC[$k]}")
  if [ "$sum" != "${REFSUM[$k]}" ]; then
    echo "FATAL: $k recovered checksum $sum != reference ${REFSUM[$k]}" >&2
    exit 1
  fi
  echo "   $k: checksum $sum (bit-identical)"
done
count=$(curl -sf "$BASE/jobs" | jq length)
if [ "$count" != "${#SPECS[@]}" ]; then
  echo "FATAL: $count jobs after recovery + retries, want ${#SPECS[@]} (duplicate execution)" >&2
  exit 1
fi
no_ckpt_dirs "$WORK/journal-crash" "after recovery"
kill -TERM "$SRV" && wait "$SRV"
grep -q 'drained:' "$LOG"
echo "serve-crash-smoke OK: ${#SPECS[@]} jobs recovered bit-identically, zero duplicates"
