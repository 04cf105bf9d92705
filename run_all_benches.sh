#!/bin/sh
# Regenerates every experiment (DESIGN.md §4). Each binary bounds its own
# runtime; google-benchmark binaries accept --benchmark_min_time.
#
# With --json, each google-benchmark binary additionally writes its full
# result set to BENCH_<name>.json (google-benchmark JSON format) in the
# repo root, for machine comparison across runs. The table harnesses
# (table1_enclave, peering_scale, ablation_services) print their own
# formats and are unaffected.
set -e
cd "$(dirname "$0")"

json=0
for arg in "$@"; do
  case "$arg" in
    --json) json=1 ;;
    *) echo "usage: $0 [--json]" >&2; exit 2 ;;
  esac
done

# run_gbench <name> [extra args...]: runs build/bench/<name>, adding JSON
# output flags when --json was given. Note: the bundled google-benchmark
# predates duration suffixes, so --benchmark_min_time takes a plain number.
run_gbench() {
  name="$1"; shift
  if [ "$json" = 1 ]; then
    ./build/bench/"$name" "$@" \
      --benchmark_out="BENCH_${name}.json" --benchmark_out_format=json
  else
    ./build/bench/"$name" "$@"
  fi
}

./build/bench/table1_enclave
echo
./build/bench/peering_scale --scale=0.05
echo
run_gbench ablation_decision_cache --benchmark_min_time=0.05
echo
run_gbench ablation_transport --benchmark_min_time=0.05
echo
run_gbench ablation_ilp_crypto --benchmark_min_time=0.05
echo
run_gbench ablation_enclave --benchmark_min_time=0.05
echo
run_gbench ablation_batch_datapath --benchmark_min_time=0.05
echo
# Multi-core datapath sweep: workers 0/1/2/4/8 x feed batch 1/32. Each
# result row carries a "workers" counter (and per-shard hit rates) so the
# --json output is machine-comparable across worker counts.
run_gbench ablation_parallel_datapath --benchmark_min_time=0.05
echo
run_gbench ablation_observability --benchmark_min_time=0.05
echo
./build/bench/ablation_services --max_subscribers=64
echo
# Scenario suites (DESIGN.md §14): one JSON SLO verdict report per suite
# on stdout; with --json each is also written to SCENARIO_<suite>.json.
# Exits nonzero if any suite's verdicts fail, so CI gates on it directly.
if [ "$json" = 1 ]; then
  ./build/bench/scenario_suites --seed=42 --json
else
  ./build/bench/scenario_suites --seed=42
fi
