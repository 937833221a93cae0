#!/usr/bin/env bash
# Build the end-to-end benchmark (e2e.exe) from this source tree and run it with
# the given arguments, e.g.
#   bash bench/e2e/run.sh --workload ngb-cp --seed 3 --seconds 20 --trace 0
# Build output stays in .bench_build; dune's shared cache is not used, so
# nothing is written outside the source tree.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --build-dir .bench_build --cache=disabled --display quiet \
  ./bench/e2e/e2e.exe
exec .bench_build/default/bench/e2e/e2e.exe "$@"
