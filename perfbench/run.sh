#!/usr/bin/env bash
# Builds the benchmark of record from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lift-corpus --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare a.json b.json   (records written with --out)
#
# Every build artifact, cache and temporary file stays under .bench_build
# at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
