#!/usr/bin/env bash
# Builds the benchmark and the etsqp-cli binary from the checkout's
# source, then runs one workload:
#
#   bash perfbench/run.sh --served-qps 50 --ingest-pps 20000 \
#       --workload agg-scan --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build output, Go cache and run
# record stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of an etsqp checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/home" "$out/tmp"

# Keep the toolchain's caches and config inside the checkout, and never
# reach for a module proxy: the benchmark depends only on the checkout.
export HOME=$out/home XDG_CACHE_HOME=$out/home/.cache XDG_CONFIG_HOME=$out/home/.config
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath TMPDIR=$out/tmp
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/etsqp-cli" etsqp/cmd/etsqp-cli) >&2

exec "$out/bin/perfbench" -root "$root" -out "$out" -cli "$out/bin/etsqp-cli" "$@"
