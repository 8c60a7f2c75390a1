#!/usr/bin/env bash
# Builds the benchmark and the cmd/campaignw worker from source, then
# runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload mc-precision --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go
# build cache, binaries, references, traces, spools) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/campaignw" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/campaignw and perfbench/ are needed)" >&2
	exit 2
fi
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/config"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0 XDG_CONFIG_HOME="$work/config"

go build -o "$work/bin/campaignw" ./cmd/campaignw >&2
(cd perfbench && go build -o "$work/bin/perfbench" .) >&2
exec "$work/bin/perfbench" -work "$work" -campaignw "$work/bin/campaignw" "$@"
