#!/usr/bin/env bash
# Builds the campaign-point benchmark from this checkout's sources and
# runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload sim-dense --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare BASE NEW
#
# The Go build cache, temporary files and the binary live under
# .bench_build/ in the checkout, so nothing outside it is written. The
# build fails, and the script exits non-zero, when the checkout holds
# only the benchmark and not the module it measures.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -buildvcs=false -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
