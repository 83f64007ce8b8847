#!/usr/bin/env bash
# Builds the spec17bench benchmark from source and runs it.
#
# Run from the repository root:
#
#	bash spec17bench/run.sh --workload exact-cold --seed 1 --seconds 20 --trace 0
#
# Every build artefact (the binary, Go's build cache, temporary files)
# goes under .bench_build/ in the current directory, so the benchmark
# reads and writes nothing outside the checkout it runs in. The last
# line of standard output is the JSON result; see spec17bench/BENCHMARK.md.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C spec17bench build -buildvcs=false -o "$out/spec17bench" .
exec "$out/spec17bench" "$@"
