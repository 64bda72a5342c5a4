#!/usr/bin/env bash
# Builds evc_stack_bench from this checkout's sources, checks that
# BENCHMARK.json matches the bench's catalog, runs the bench with the given
# arguments, then validates every report it wrote.
#
#   bash bench/stack/run.sh --workload quorum-ae-50 --seed 1 --seconds 20 --trace 0
#
# The build goes to .bench_build/stack and the reports to
# .bench_build/stack/out (or $EVC_BENCH_OUT), both under the checkout root.
# Build and validation output goes to stderr, so the bench's one-line JSON
# result stays the last line of stdout. Exits nonzero when the build, the
# bench's self-checks or the report validation fail.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/stack"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2
# BENCHMARK.json must list what the bench's catalog defines.
"$build/evc_stack_bench" --check-catalog="$root/BENCHMARK.json" >&2

export EVC_BENCH_OUT="${EVC_BENCH_OUT:-$build/out}"
mkdir -p "$EVC_BENCH_OUT"

status=0
"$build/evc_stack_bench" "$@" || status=$?
if [ "$status" -eq 2 ]; then
  exit 2  # usage error: nothing was written
fi

shopt -s nullglob
reports=("$EVC_BENCH_OUT"/BENCH_stack_*.json)
traces=("$EVC_BENCH_OUT"/TRACE_stack_*.json)
if [ "${#reports[@]}" -gt 0 ]; then
  "$build/evc_bench_check" "${reports[@]}" >&2 || status=1
fi
for trace in "${traces[@]}"; do
  "$build/evc_trace" "$trace" --tree --limit=1 >/dev/null || status=1
done
exit "$status"
