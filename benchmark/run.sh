#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, for example
#
#   bash benchmark/run.sh --workload paper-eval --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, Go's own config and telemetry files) goes under
# .bench_build/ so that nothing outside the checkout is touched, and the
# toolchain never reaches for the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd benchmark && go build -o "$out/amplify-benchmark" .)
exec "$out/amplify-benchmark" "$@"
