#!/usr/bin/env bash
# Builds the harness and the dpspark binary from the checkout's sources
# into .bench_build/ (go's build cache included, so nothing outside the
# checkout is written), then runs the harness with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$build/bin"
bin="$build/bin/dpbench"
# Rebuild only when a source is newer than the harness binary: a warm
# `go build` still costs about a second, which 180 driver runs would pay.
if [ ! -x "$bin" ] || [ ! -x "$build/bin/dpspark" ] ||
	[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name '*.s' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$root" && go build -o "$build/bin/dpspark" ./cmd/dpspark) >&2
	(cd "$here" && go build -o "$bin" .) >&2
fi
exec "$bin" -bin "$build/bin/dpspark" -out "$here/out" "$@"
