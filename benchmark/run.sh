#!/usr/bin/env bash
# Build hpbench from this checkout, then run it with the given arguments:
#
#   bash benchmark/run.sh --workload ml_spmv --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line on stdout is hpbench's JSON result. A failed build exits nonzero
# without printing a result.
set -euo pipefail

build=build-bench
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target hpbench -j 4 >&2
exec "$build/hpbench" "$@"
