#!/usr/bin/env bash
# The benchmark's single entry point, named by BENCHMARK.json. Run it from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload emb-hot --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh                     # every workload, timed then traced
#   bash benchmark/run.sh -aa                 # the timed suite twice, compared
#
# It builds the benchmark from source (the Go build cache makes every
# build after the first a no-op) and runs it. Everything it writes stays
# inside the checkout: the Go caches and the binary under .bench_build/,
# database files under .bench_build/data/, traces under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$build/odebench" .

cd "$root"
if [ "$#" -eq 0 ]; then
	"$build/odebench" -workload all -trace 0
	exec "$build/odebench" -workload all -trace 1
fi
exec "$build/odebench" "$@"
