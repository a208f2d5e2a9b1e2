#!/usr/bin/env bash
# Builds e2ebench from the source of this checkout and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload alert --seed 1 --seconds 24 --trace 0
#
# Run it from the root of the checkout. The build cache, the Go tool's
# configuration and telemetry, the binary and the engines' data directories
# all live under .bench_build/ there.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
