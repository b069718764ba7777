#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it.
#
#   bash perfbench/run.sh --workload bulk-binary-sort --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the binary stay
# under .bench_build/ and run outputs (span files, spill data) under
# .bench_out/, both in the current directory; nothing is fetched. Without
# the repository's sources next to perfbench/ the build fails and the
# script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0
# The go command keeps telemetry counters under the user's config
# directory; point it into the build directory too.
(cd "$root/perfbench" && HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$root/.bench_out" "$@"
