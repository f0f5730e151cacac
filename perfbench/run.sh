#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ingest-off --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under .bench_build in the working directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

first=0
[ -e "$build/perfbench" ] || first=1
(cd "$here" && go build -o "$build/perfbench" .) >&2
# A first build writes the whole build cache; flush it to disk now so
# its write-back does not land inside the measured run.
[ "$first" = 0 ] || sync
exec "$build/perfbench" "$@"
