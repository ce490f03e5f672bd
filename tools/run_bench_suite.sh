#!/usr/bin/env bash
# Runs every harness-migrated bench; each appends one record (throughput,
# per-stage p50/p90/p99 + raw samples, per-kernel FLOPs/time, machine
# fingerprint, git revision) to <out-dir>/<name>.jsonl — the run ledger
# tools/compare_bench.py gates regressions on.
#
# Usage: tools/run_bench_suite.sh [options] [bench ...]
#   --build-dir DIR   build tree to run from (default: build)
#   --out-dir DIR     ledger directory the records are appended to
#                     (VDRIFT_BENCH_LEDGER; default: bench/ledger)
#   --threads N       run with VDRIFT_THREADS=N (default: 1, so records
#                     are comparable to the committed serial baseline)
#   --smoke           1 repeat / no warmup / tiny Tokyo-only workbench
#   --no-kernel-profile  skip per-kernel op timing (on by default so the
#                     records carry the kernel table compare_bench.py
#                     attributes regressions with)
#   --asan            configure+build build-asan with
#                     -DVDRIFT_ENABLE_SANITIZERS=ON and run from there
#   bench ...         subset to run (default: all migrated benches)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build"
OUT_DIR="bench/ledger"
THREADS=1
SMOKE=0
ASAN=0
KERNEL_PROFILE=1
BENCHES=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    --threads) THREADS="$2"; shift 2 ;;
    --smoke) SMOKE=1; shift ;;
    --no-kernel-profile) KERNEL_PROFILE=0; shift ;;
    --asan) ASAN=1; shift ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    -*) echo "unknown option: $1" >&2; exit 2 ;;
    *) BENCHES+=("$1"); shift ;;
  esac
done
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  BENCHES=(bench_micro_components bench_table6_detection_time
           bench_table8_selection_time bench_table9_end_to_end)
fi

if [[ "$ASAN" -eq 1 ]]; then
  BUILD_DIR="build-asan"
  echo "== configuring $BUILD_DIR with sanitizers =="
  cmake -B "$BUILD_DIR" -S . -DVDRIFT_ENABLE_SANITIZERS=ON
fi
echo "== building ${BENCHES[*]} in $BUILD_DIR =="
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${BENCHES[@]}"

mkdir -p "$OUT_DIR"
export VDRIFT_GIT_REV="${VDRIFT_GIT_REV:-$(git rev-parse --short=12 HEAD \
                                           2>/dev/null || echo unknown)}"
export VDRIFT_THREADS="$THREADS"
export VDRIFT_BENCH_LEDGER="$OUT_DIR"
if [[ "$SMOKE" -eq 1 ]]; then
  export VDRIFT_BENCH_SMOKE=1
fi
if [[ "$KERNEL_PROFILE" -eq 1 ]]; then
  export VDRIFT_KERNEL_PROFILE=1
fi

# Ledger records in $OUT_DIR (one line each).
records() {
  find "$OUT_DIR" -maxdepth 1 -name '*.jsonl' -exec cat {} + | wc -l
}

FAILED=0
for bench in "${BENCHES[@]}"; do
  binary="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$binary" ]]; then
    echo "FAIL: $binary not built" >&2
    FAILED=1
    continue
  fi
  before=$(records)
  echo
  echo "== $bench (rev $VDRIFT_GIT_REV, threads $VDRIFT_THREADS) =="
  if ! "$binary"; then
    echo "FAIL: $bench exited non-zero" >&2
    FAILED=1
    continue
  fi
  appended=$(($(records) - before))
  if [[ "$appended" -ne 1 ]]; then
    echo "FAIL: $bench appended $appended ledger record(s) to $OUT_DIR," \
         "expected 1" >&2
    FAILED=1
  fi
done

echo
if [[ "$FAILED" -ne 0 ]]; then
  echo "bench suite FAILED (see above)" >&2
  exit 1
fi
ls -l "$OUT_DIR"/*.jsonl
echo "bench suite OK: one record per bench appended in $OUT_DIR"
echo "compare against a baseline with:"
echo "  tools/compare_bench.py --baseline <dir> --candidate $OUT_DIR"
