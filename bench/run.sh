#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given flags (see README.md). Everything go writes — build cache,
# binary, telemetry counters — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOPROXY=off GOTOOLCHAIN=local go build -o "$out/bench" .
)
cd "$root"
exec "$out/bench" "$@"
