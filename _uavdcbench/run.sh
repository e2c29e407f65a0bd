#!/usr/bin/env bash
# Builds the uavdc benchmark from the source in this checkout and runs it
# with the given arguments. Run from the checkout root:
#
#   bash _uavdcbench/run.sh --workload plan-paper --seed 1 --seconds 30 --trace 0
#
# Every build artefact, including the Go build cache and the go
# command's config and telemetry files, stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
go -C "$root/_uavdcbench" build -o "$out/uavdcbench" .
exec "$out/uavdcbench" -spans "$out/spans" "$@"
