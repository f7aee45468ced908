#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#	sh perfbench/run.sh --workload grid64-dense --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# traced runs' span files and their checkpoint-replay directory all go
# under $CARGO_TARGET_DIR (default .bench_build), so a run reads and
# writes nothing outside the checkout.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/perfbench-traces" "$@"
