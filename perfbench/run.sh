#!/usr/bin/env bash
# Builds the benchmark against the repository checkout it sits in and runs
# it with the given flags:
#
#   bash perfbench/run.sh --workload paper-exact --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout. Without the repository's go.mod next to perfbench/
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
