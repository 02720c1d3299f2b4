#!/usr/bin/env bash
# Builds the CAD3 benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash cad3bench/run.sh --workload rsu-live --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, Go config) stays under .bench_build/ in that directory, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

rev=unknown
if git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
  rev=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/cad3bench" && go build -ldflags "-X main.gitRev=$rev" -o "$out/cad3bench" .)
exec "$out/cad3bench" "$@"
