#!/usr/bin/env bash
# Builds perfbench from this checkout's sources (RelWithDebInfo, the root
# build's default; into .bench_build, or $CARGO_TARGET_DIR when set) and
# runs one workload:
#
#   bash perfbench/run.sh --workload serve_cold_scan --seed 1 --seconds 35 --trace 0
#
# Build output goes to stderr so stdout ends with the result line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

generator=()
if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi
cmake -S "$root/perfbench" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" -j 4 >&2

cd "$root"
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
