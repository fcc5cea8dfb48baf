#!/usr/bin/env bash
# Builds cbxbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash cbxbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
if [ -d "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export CBXBENCH_COMMIT="$commit"
fi
(cd "$root/cbxbench" && go build -o "$out/cbxbench" .)
exec "$out/cbxbench" "$@"
