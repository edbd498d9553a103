#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload fig2-place --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, cache, span dump and
# profile stays under .bench_build/ in that directory (or under
# $CARGO_TARGET_DIR when that is set).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" == /* ]] || build="$root/$build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$build/pprof"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
