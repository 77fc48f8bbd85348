#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it. Run from the checkout root:
#
#   bash servebench/run.sh --workload pace_open --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --selftest
#
# Build output goes to stderr so the last line of stdout stays the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/servebench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "servebench: no P2PDocTagger sources next to $here; nothing to build" >&2
  exit 2
fi

# Keep the compiler's temporary files inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 >&2

if [[ "${1:-}" == "--selftest" ]]; then
  exec "$build/servebench_selftest"
fi
exec "$build/servebench" "$@"
