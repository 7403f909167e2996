#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given flags, e.g.
#
#   bash perfbench/run.sh --workload star-hostcc --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, Go config and telemetry) stays under .bench_build/, so the run
# reads nothing outside the checkout but the Go toolchain and
# /proc/cpuinfo, and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

# Stamp the commit into the binary only where git can describe the tree:
# stamping fails the build in a tree that git cannot read.
vcs=-buildvcs=false
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	vcs=-buildvcs=auto
fi
(cd "$root/perfbench" && go build "$vcs" -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
