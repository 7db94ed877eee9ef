#!/usr/bin/env bash
# Byte-identity check for changes that must not move a single figure: build
# a base revision and the working tree (both Release), run the same benches
# on each and `cmp` their output — stdout of fig01, fig03 (plain and with
# the op tracer on), fig09_ladder, fig13–fig17 --smoke, chaos and
# ablations, plus the Chrome JSON trace_smoke exports. Every pair is
# compared; the script exits non-zero if any differs.
#
#   scripts/byte_identity.sh [base-ref]        (default: HEAD~1)
#
# The base revision is checked out with `git worktree` under $TMPDIR and
# removed on exit. The working tree builds in $BUILD_DIR (default build,
# reconfigured to Release as scripts/check.sh does). A full run takes tens
# of minutes, so it is a manual step, not part of check.sh.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$PWD"
BASE_REF="${1:-HEAD~1}"
BUILD_DIR="${BUILD_DIR:-build}"
case "$BUILD_DIR" in /*) ;; *) BUILD_DIR="$REPO/$BUILD_DIR" ;; esac

WORK="$(mktemp -d "${TMPDIR:-/tmp}/afc-byte-identity.XXXXXX")"
cleanup() {
  git -C "$REPO" worktree remove --force "$WORK/base" > /dev/null 2>&1 || true
  rm -rf "$WORK"
}
trap cleanup EXIT

TARGETS=(fig01_baseline fig03_latency_breakdown fig09_ladder fig13_transport fig14_qos
         fig15_ec fig16_store fig17_membership chaos ablations trace_smoke)

build() {  # <source dir> <build dir> <log file>
  if ! { cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j "$(nproc)" --target "${TARGETS[@]}"; } > "$3" 2>&1; then
    tail -30 "$3"
    echo "build of $1 failed"
    exit 1
  fi
}

git -C "$REPO" worktree add --detach "$WORK/base" "$BASE_REF" > /dev/null
echo "building base ($BASE_REF) in $WORK/base-build"
build "$WORK/base" "$WORK/base-build" "$WORK/base-build.log"
echo "building working tree in $BUILD_DIR"
build "$REPO" "$BUILD_DIR" "$WORK/head-build.log"

failures=0

# compare <label> <output file name> <env assignments...> -- <bench> [args...]
# Runs the bench once per side, each in its own scratch directory (benches
# may drop trace or JSON files in their cwd), and cmp's the named output:
# "stdout", or a file the bench writes there. Stderr is kept beside it.
compare() {
  local label="$1" output="$2"
  shift 2
  local envs=()
  while [ "$1" != "--" ]; do envs+=("$1"); shift; done
  shift
  local bench="$1"
  shift
  local side bin dir
  for side in base head; do
    bin="$WORK/base-build/bench/$bench"
    [ "$side" = head ] && bin="$BUILD_DIR/bench/$bench"
    dir="$WORK/out-$side/$label"
    mkdir -p "$dir"
    if ! (cd "$dir" && env "${envs[@]}" "$bin" "$@" > stdout 2> stderr); then
      echo "FAILED:    $label ($side run exited non-zero)"
      failures=$((failures + 1))
      return
    fi
  done
  if cmp -s "$WORK/out-base/$label/$output" "$WORK/out-head/$label/$output"; then
    echo "identical: $label"
  else
    echo "DIFFERS:   $label ($output)"
    diff "$WORK/out-base/$label/$output" "$WORK/out-head/$label/$output" | head -20 || true
    failures=$((failures + 1))
  fi
}

compare fig01 stdout -- fig01_baseline
compare fig03 stdout -- fig03_latency_breakdown
compare fig03_traced stdout AFC_SIM_TRACE=1 -- fig03_latency_breakdown
compare fig09_ladder stdout -- fig09_ladder
compare fig13_smoke stdout -- fig13_transport --smoke
compare fig14_smoke stdout -- fig14_qos --smoke
compare fig15_smoke stdout -- fig15_ec --smoke
compare fig16_smoke stdout -- fig16_store --smoke
compare fig17_smoke stdout -- fig17_membership --smoke
compare chaos stdout -- chaos
compare ablations stdout -- ablations
compare trace_smoke_json trace.json AFC_SIM_TRACE=1 AFC_SIM_TRACE_OUT=trace.json -- trace_smoke

if [ "$failures" -ne 0 ]; then
  echo "byte identity FAILED: $failures output(s) differ from $BASE_REF"
  exit 1
fi
echo "byte identity OK against $BASE_REF"
