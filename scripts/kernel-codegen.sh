#!/usr/bin/env bash
# Checks the machine code of core's two-way merge kernel as the linker
# laid it out in cmd/mergepathd. The int64 and float64 instantiations of
# core.mergeKernel may call only the runtime's panic and stack-growth
# entry points (runtime.panicIndex, runtime.panicSlice*, runtime.gopanic,
# runtime.morestack*). Any other CALL is a helper the kernel runs out of
# line, on every element in the worst case.
#
# Unit tests and `go test -bench` cannot see this: a helper that
# `go build -gcflags=-m` reports inlined in internal/core can still be
# called out of line from a generic instantiation in a linked binary.
#
#   scripts/kernel-codegen.sh      (or: make kernel-codegen)
#
# Exits non-zero, listing the offending instructions, on any other call
# or when an instantiation is missing from the binary.
set -euo pipefail

cd "$(dirname "$0")/.."
GO="${GO:-go}"
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

"$GO" build -o "$BIN/mergepathd" ./cmd/mergepathd

allowed='CALL runtime\.(panicIndex|panicSlice[A-Za-z0-9]*|gopanic|morestack[A-Za-z0-9_]*(\.abi0)?)\(SB\)'
status=0
for shape in int64 float64; do
	sym="mergepath/internal/core.mergeKernel[go.shape.$shape]"
	dump=$("$GO" tool objdump -s "^mergepath/internal/core\.mergeKernel\[go\.shape\.$shape\]\$" "$BIN/mergepathd")
	if ! grep -q '^TEXT ' <<<"$dump"; then
		echo "kernel-codegen: $sym not found in cmd/mergepathd" >&2
		status=1
		continue
	fi
	calls=$(grep -E '[[:space:]]CALL[[:space:]]' <<<"$dump" || true)
	bad=$(grep -vE "$allowed" <<<"$calls" || true)
	if [ -n "$bad" ]; then
		echo "kernel-codegen: $sym calls out of line:" >&2
		echo "$bad" >&2
		status=1
		continue
	fi
	n=$(grep -cE '^[[:space:]]+[^[:space:]]+\.go:[0-9]+' <<<"$dump" || true)
	echo "kernel-codegen: ok $sym ($n instructions, $(grep -c . <<<"$calls" || true) panic/stack calls, no other calls)"
done
exit $status
