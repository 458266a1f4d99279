#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. BENCHMARK.json names this script as the command; every argument goes
# to the program.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Everything the go command writes (build cache, temporary files, its
# telemetry counters) stays inside the checkout; no module is downloaded.
(cd "$here" && GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off \
	go build -o "$build/falconbench" .)
exec "$build/falconbench" "$@"
