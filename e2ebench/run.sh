#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload fleet-syn --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write (Go build cache, binary, sealed
# stores, reports, span files) stays under $CARGO_TARGET_DIR, default
# .bench_build, in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the repository root of a full checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out/e2ebench-out" "$@"
