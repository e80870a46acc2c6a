#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, binary, temp
# spools, span traces) stays under .bench_build/ at the checkout root.
# The build fails, and so does this script, when the checkout lacks the
# repository's Go module.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
