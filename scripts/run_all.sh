#!/usr/bin/env bash
# Build, test, and regenerate every table/figure of the reproduction.
#
# Bench binaries run the parallel evaluation runtime (thread pool +
# trace reuse); set FPINT_JOBS=N to pin the worker count
# (FPINT_JOBS=1 reproduces a serial evaluation bit-for-bit).
#
# Table/figure text goes to bench_output.txt (stdout only, so the file
# is byte-stable across runs); per-binary wall-clock and peak-RSS
# footers print to the terminal.
set -euo pipefail
cd "$(dirname "$0")/.."

# Respect an already-configured build dir (whatever its generator);
# prefer Ninja for fresh configures.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
else
  cmake -B build -G Ninja
fi
cmake --build build -j "$(nproc)"
ctest --test-dir build 2>&1 | tee test_output.txt

now_ms() { date +%s%3N; }

# Degrade-don't-die: one failing bench binary must not hide the
# others' results, so every binary runs (with a hang guard), each gets
# a pass/fail verdict in the summary, and the script exits nonzero at
# the very end if any failed.
BENCH_TIMEOUT="${FPINT_BENCH_TIMEOUT:-600}"

: > bench_output.txt
declare -a names times verdicts
failures=0
total_start=$(now_ms)
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  start=$(now_ms)
  rc=0
  timeout "$BENCH_TIMEOUT" "$b" >> bench_output.txt || rc=$?
  echo >> bench_output.txt
  end=$(now_ms)
  names+=("$(basename "$b")")
  times+=($((end - start)))
  if [ "$rc" -eq 0 ]; then
    verdicts+=(PASS)
  elif [ "$rc" -eq 124 ]; then
    verdicts+=("FAIL (timeout ${BENCH_TIMEOUT}s)")
    failures=$((failures + 1))
  else
    verdicts+=("FAIL (exit $rc)")
    failures=$((failures + 1))
  fi
done
total_end=$(now_ms)

echo
echo "Bench summary (FPINT_JOBS=${FPINT_JOBS:-auto}):"
for i in "${!names[@]}"; do
  printf '  %-28s %6d ms  %s\n' "${names[$i]}" "${times[$i]}" "${verdicts[$i]}"
done
printf '  %-28s %6d ms\n' total $((total_end - total_start))

if [ "$failures" -gt 0 ]; then
  echo "run_all: $failures bench binar$( [ "$failures" -eq 1 ] && echo y || echo ies ) failed" >&2
  exit 1
fi
