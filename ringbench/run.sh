#!/usr/bin/env bash
# Builds the ringbench program from source and runs it with the given
# arguments.  Run from the repository root:
#
#	bash ringbench/run.sh --workload local-stream --seed 1 --seconds 30 --trace 0
#
# Build cache, binary, journals and span files all live under
# .bench_build/ in the current directory, so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/ringbench/go.mod" ]]; then
	echo "ringbench: run from the repository root (go.mod and ringbench/go.mod are required)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/ringbench" && go build -trimpath -o "$build/ringbench" .)
exec "$build/ringbench" -workdir "$build" "$@"
