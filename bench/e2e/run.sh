#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
#
# Builds bench/e2e (and the libraries it needs) into bench/e2e/build, runs
# the statistics self-test, then runs each requested workload in its own
# process. Each run prints "name value unit" lines and, last, one JSON
# line {"correct", "attempted", "failed", "metrics"}; its full record is
# written to bench/e2e/build/results/. Exits non-zero if the build, the
# self-test or any correctness check fails.
set -euo pipefail

workload=""
seed=1
seconds=10
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload=*) workload="${1#*=}" ;;
    --workload) workload="$2"; shift ;;
    --seed=*) seed="${1#*=}" ;;
    --seed) seed="$2"; shift ;;
    --seconds=*) seconds="${1#*=}" ;;
    --seconds) seconds="$2"; shift ;;
    --trace=*) trace="${1#*=}" ;;
    --trace) if [[ "${2:-}" =~ ^[01]$ ]]; then trace="$2"; shift; else trace=1; fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done
if [[ -z "$workload" ]]; then
  echo "usage: bash bench/e2e/run.sh --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]" >&2
  exit 2
fi

here="bench/e2e"
build="$here/build"
if [[ ! -f CMakeLists.txt || ! -d src || ! -f "$here/CMakeLists.txt" ]]; then
  echo "run.sh: run from the root of a PriView checkout" >&2
  exit 2
fi

# Build output goes to stderr: the last line of stdout is the result.
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j 4 --target priview_e2e e2e_stats_test
} 1>&2
"$build/e2e_stats_test" --gtest_brief=1 1>&2

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p "$build/results"

if [[ "$workload" == "all" ]]; then
  workloads=(publish-kosarak serve-hot serve-cold stream-rollover)
else
  workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
  log="$build/results/$w-seed$seed-trace$trace.log"
  "$build/priview_e2e" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --run-dir "$build/run-$$" \
    --out "$build/results/$w-seed$seed-trace$trace.json" \
    --git-rev "$rev" | tee "$log" || status=$?
  # The result line must carry exactly the metrics BENCHMARK.json lists.
  python3 - "$log" "$trace" <<'EOF' || status=1
import json, sys
bench = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"]
        for m in bench["per_layer" if sys.argv[2] == "1" else "end_to_end"]}
lines = open(sys.argv[1]).read().strip().splitlines()
got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()} if lines else {}
if got != want:
    print("run.sh: metrics differ from BENCHMARK.json: missing %s, extra or "
          "mis-unit %s" % (sorted(set(want) - set(got)),
                           sorted(k for k in got if want.get(k) != got[k])),
          file=sys.stderr)
    sys.exit(1)
EOF
done
exit "$status"
