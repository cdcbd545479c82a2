#!/usr/bin/env bash
# Builds the journey benchmark from the sources of the checkout it sits
# in, then runs it from the checkout root. Everything it builds or
# writes stays under <checkout>/.bench_build, the Go toolchain's cache,
# module cache and telemetry counters included.
#
#   bash journeybench/run.sh --workload sweep4-tsv --seed 9 --seconds 25 --trace 0 [-o result.json]
#   bash journeybench/run.sh compare <a.json|dir> <b.json|dir>
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/bin/journeybench" .)
cd "$root"
exec "$out/bin/journeybench" "$@"
