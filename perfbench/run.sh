#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload serve-fanout --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh faults
# Run it from the repository root. Build outputs, the Go build cache, the Go
# tool's own files (telemetry counters, module cache) and the results go
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
