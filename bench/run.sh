#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness with a build cache
# inside the checkout (bench/out/, git-ignored) so nothing is read or written
# outside it, then hands every argument to the harness.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/bin
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o out/bin/bench .
exec out/bin/bench "$@"
