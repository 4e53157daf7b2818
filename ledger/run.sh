#!/usr/bin/env bash
# Builds ledger_bench from this checkout (into build-ledger/) and runs it.
#
#   ledger/run.sh --seed S [--workload W] [--trace] [--seconds N]
#   ledger/run.sh --smoke [--seed S]
#
# The benchmark harness calls it as
#   ledger/run.sh --workload W --seed S --seconds N --trace 0|1
# so --trace also takes an explicit 0 or 1.
#
# Without --workload every workload runs, each in its own process.  Each
# run prints a detail line and then its result line on stdout; build output
# goes to stderr.  A traced run also writes its spans as a Chrome trace to
# build-ledger/traces/<workload>-seed<S>.json.  The exit status is the
# first non-zero one of ledger_bench (1 correctness, 2 usage or internal).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/build-ledger"

workload=""
seed=1
trace=0
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; args+=(--seed "$2"); shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    *) args+=("$1"); shift ;;
  esac
done

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ledger_bench -j 4 >&2

run_one() {
  local w="$1"
  local extra=()
  if [ "$trace" = 1 ]; then
    mkdir -p "$build/traces"
    extra+=(--trace --trace-out "$build/traces/$w-seed$seed.json")
  fi
  "$build/ledger_bench" --workload "$w" "${args[@]}" "${extra[@]}"
}

case " ${args[*]} " in
  *" --smoke "*) exec "$build/ledger_bench" "${args[@]}" ;;
esac

if [ -n "$workload" ]; then
  run_one "$workload"
  exit $?
fi
status=0
for w in ngst_chain telemetry_chain serve_mixed serve_chaos; do
  rc=0
  run_one "$w" || rc=$?
  if [ "$status" = 0 ]; then status=$rc; fi
done
exit "$status"
