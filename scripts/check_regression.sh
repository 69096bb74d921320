#!/usr/bin/env bash
# Performance-regression gate for the bench suite.
#
# Runs every bench binary with telemetry enabled so each emits a
# structured JSON report into bench_out/ (see docs/OBSERVABILITY.md),
# then diffs the committed golden baseline in scripts/golden/ against
# the fresh tree with fpint-report --check. The simulator is a
# deterministic trace-driven model, so cycle counts are bit-stable
# across hosts and any delta is a real behaviour change.
#
# Usage: scripts/check_regression.sh [--update] [TOLERANCE_PCT]
#   --update        regenerate scripts/golden/ from this run instead
#                   of gating (use after an intentional perf change,
#                   then commit the new goldens)
#   TOLERANCE_PCT   relative slack before a delta is a regression
#                   (default 0.1)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${FPINT_BENCH_OUT:-bench_out}
GOLDEN_DIR=scripts/golden
TOLERANCE=0.1
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --update) UPDATE=1 ;;
    -h|--help)
      sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) TOLERANCE="$arg" ;;
  esac
done

if [ ! -x "$BUILD_DIR/tools/fpint-report" ]; then
  echo "check_regression: $BUILD_DIR/tools/fpint-report not built" \
       "(run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi

rm -rf "$OUT_DIR"
for b in "$BUILD_DIR"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  FPINT_TELEMETRY=1 FPINT_BENCH_OUT="$OUT_DIR" "$b" > /dev/null
done

if [ "$UPDATE" = 1 ]; then
  # The golden set is the paper's headline figures plus the two tables
  # that drive the advanced partitioner through swept copy/duplicate
  # costs (Section 6.1) and the Section 6.6 share cap; keep it small so
  # the committed baseline stays reviewable.
  mkdir -p "$GOLDEN_DIR"
  for name in fig9_speedup_4way fig10_speedup_8way sec61_cost_sweep \
              sec66_load_balance; do
    cp "$OUT_DIR/$name.json" "$GOLDEN_DIR/$name.json"
  done
  echo "check_regression: refreshed $GOLDEN_DIR from $OUT_DIR"
  exit 0
fi

exec "$BUILD_DIR/tools/fpint-report" --check "--tolerance=$TOLERANCE" \
  "$GOLDEN_DIR" "$OUT_DIR"
