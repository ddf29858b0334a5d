#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload sim-history --seed 1 --seconds 30 --trace 0
#
# Run from the root of the checkout. Everything the Go toolchain writes (build
# cache, temporary files, telemetry) and the binary itself stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the checkout root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GO111MODULE=on
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
