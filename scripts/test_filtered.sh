#!/usr/bin/env bash
# go test -run PATTERN with a guard against silent drop-out: a renamed or
# folded test no longer matched by a CI filter just stops running, and the
# step stays green. This wrapper lists the pattern first (`go test -list`)
# and fails unless EVERY top-level alternative of it still names at least
# one test, and every given package has at least one match; only then does
# it run them.
#
#   scripts/test_filtered.sh 'Chaos|Shuffle.*(Staging|BitIdentical)' -race -v ./internal/core/ ./internal/rdd/
#
# Arguments starting with ./ are packages, the rest are go test flags.
set -euo pipefail

pattern=$1
shift
pkgs=() flags=()
for arg in "$@"; do
  case $arg in
    ./*) pkgs+=("$arg") ;;
    *) flags+=("$arg") ;;
  esac
done

listing=$(go test -list "$pattern" "${pkgs[@]}")
names=$(grep -E '^(Test|Fuzz|Benchmark|Example)' <<<"$listing" || true)
missing=0

# A package the whole pattern lists nothing in is along for the ride: its
# names come before its "ok <import path>" line.
seen=0
while read -r first rest; do
  case $first in
    Test* | Fuzz* | Benchmark* | Example*) seen=$((seen + 1)) ;;
    ok)
      if [[ $seen -eq 0 ]]; then
        echo "test_filtered: -run '$pattern' matches no test in ${rest%%[[:space:]]*}" >&2
        missing=1
      fi
      seen=0
      ;;
  esac
done <<<"$listing"

# Split the pattern on its top-level '|' (alternations inside parentheses
# belong to one alternative).
alts=() cur='' depth=0
for ((i = 0; i < ${#pattern}; i++)); do
  ch=${pattern:i:1}
  case $ch in
    '(') depth=$((depth + 1)) ;;
    ')') depth=$((depth - 1)) ;;
  esac
  if [[ $ch == '|' && $depth -eq 0 ]]; then
    alts+=("$cur") cur=''
  else
    cur+=$ch
  fi
done
alts+=("$cur")

for alt in "${alts[@]}"; do
  if ! grep -Eq -- "$alt" <<<"$names"; then
    echo "test_filtered: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
    missing=1
  fi
done
[[ $missing -eq 0 ]] || exit 1

exec go test -run "$pattern" "${flags[@]}" "${pkgs[@]}"
