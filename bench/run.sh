#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root:
#
#   bash bench/run.sh --workload routecheck-k5 --seed 1 --seconds 15 --trace 0
#
# The program is a module of its own (bench/go.mod) that imports the
# repository's packages through `replace pathrouting => ../`; it builds
# the command-line tools it drives itself. Every build and run output
# stays under .bench_build at the repository root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/benchrun" .)
cd "$root"
exec "$out/benchrun" "$@"
