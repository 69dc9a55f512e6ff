#!/usr/bin/env bash
# Builds the end-to-end benchmark and cmd/report from source into
# .bench_build/ at the root of the checkout, then runs the benchmark:
#
#   bash e2ebench/run.sh --workload paper-5x4 --seed 1 --seconds 25 --trace 0
#
# Every cache and temporary file stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/report ] || [ ! -d internal ]; then
	echo "e2ebench: no jumanji module at $PWD (go.mod, cmd/report, internal/); nothing to benchmark" >&2
	exit 2
fi
out=.bench_build
# With the config directory under .bench_build, the go command would find no
# telemetry mode file, default to "local", and start a detached telemetry
# process that outlives the run. Turning telemetry off keeps the go command
# from starting any process it does not wait for.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOPATH="$PWD/$out/gopath" \
	XDG_CONFIG_HOME="$PWD/$out/config" XDG_CACHE_HOME="$PWD/$out/cache" TMPDIR="$PWD/$out" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/report" ./cmd/report
(cd e2ebench && go build -o "../$out/e2ebench" .)
exec "$out/e2ebench" -report "$out/report" "$@"
