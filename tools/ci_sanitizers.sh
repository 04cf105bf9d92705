#!/bin/sh
# Sanitizer CI job: builds and runs the test suite under ASan+UBSan and
# TSan (presets in CMakePresets.json). TSan is what keeps the lock-free
# paths honest — sharded_counter stripes, concurrent histogram records,
# the trace ring, and the multi-core SN datapath (worker shards, SPSC
# rings, the invalidation bus) hammered by parallel_test.
#
#   tools/ci_sanitizers.sh [asan|tsan]    # default: both
set -e
cd "$(dirname "$0")/.."

run_preset() {
  preset="$1"
  echo "== $preset: configure =="
  cmake --preset "$preset"
  echo "== $preset: build =="
  cmake --build --preset "$preset" -j
  echo "== $preset: test =="
  ctest --preset "$preset" -j
  # Second, focused pass over the multi-core datapath tests: these spawn
  # real worker threads (steering, shard caches, invalidation bus), which
  # is exactly what the sanitizers — tsan above all — exist to check.
  echo "== $preset: parallel datapath (focused) =="
  ctest --preset "$preset" -R parallel_test --output-on-failure
  # Fault matrix: the failover/liveness/shedding scenarios re-run focused.
  # Crash-restart, partition-heal, and slow-path saturation exercise the
  # teardown/retry edges (pipe erasure while probes are in flight, shed
  # verdicts racing worker pumps) where lifetime and ordering bugs hide.
  echo "== $preset: fault matrix (focused) =="
  ctest --preset "$preset" -R 'failover_test|simnet_test' --output-on-failure
  # Path tracing (ISSUE 5): the span recorders are SPSC rings drained by
  # the control thread while worker shards emit, and the collector is hit
  # from the observability push tick — tsan's bread and butter. The
  # trace_test unit pass plus the end-to-end path_trace scenarios.
  echo "== $preset: path tracing (focused) =="
  ctest --preset "$preset" -R 'trace_collector_test|path_trace_test' --output-on-failure
  # Zero-copy datapath: slab refcounts crossing threads and SPSC rings
  # (buf_pool_test's handoff/concurrent cases are the tsan targets), plus
  # the real-socket transport — recvmmsg into pool slabs, in-place decrypt
  # windows over them, view lifetimes through the event loop. Egress is
  # synchronous sendmsg/sendmmsg; ShardedEgressConcurrentDrain is its tsan
  # target: worker shards fill egress rings while the control thread
  # drains them into gather sends, and ingress slab references cross to
  # the workers and back.
  echo "== $preset: slab pool + transport (focused) =="
  ctest --preset "$preset" -R 'buf_pool_test|net_test' --output-on-failure
  # SLO health plane (ISSUE 7): the flight recorder's multi-producer
  # seqlock ring with a racing snapshot reader and a mid-run freeze is the
  # tsan target (health_test); the end-to-end binary drives the watchdog
  # against real stalled worker threads and the burn-rate page path.
  echo "== $preset: health plane + flight recorder (focused) =="
  ctest --preset "$preset" -R 'health_test|slo_health_test' --output-on-failure
  # Profiling plane (ISSUE 10): an async-signal handler writing per-thread
  # SPSC rings while the control thread drains and tears threads down.
  # ConcurrentSamplingDrainAndTeardown fires live SIGPROF at 1993Hz into
  # spinning workers under concurrent drain — tsan proves the handler
  # touches nothing but the ring's atomics and its slot memory, asan that
  # teardown never races a late signal into freed memory.
  echo "== $preset: sampling profiler (focused) =="
  ctest --preset "$preset" -R prof_test --output-on-failure
  # Scenario engine (ISSUE 9): the adversarial + churn suites drive every
  # concurrent subsystem at once — sharded datapaths under flood-driven
  # shed, the invalidation bus purging verdicts on protect/allow and
  # peer-down, liveness teardown racing traffic during mobility_churn's
  # crash, and the observability push path mid-page. asan owns the
  # lifetime edges (pipes torn down with packets in flight), tsan the
  # cross-thread verdict and metric flows.
  echo "== $preset: scenario suites (focused) =="
  ctest --preset "$preset" -R scenario_test --output-on-failure
  # Crypto datapath: every AEAD call builds its keystream in stack
  # buffers (the padded remainder quad, the 4-block head) and opens may
  # decrypt in place over the ciphertext. asan guards those buffers and
  # the aliasing, ubsan the lane arithmetic; ilp_test and fuzz_test push
  # sealed and hostile datagrams through the same calls. The ILP header
  # keeps its metadata inline with a heap spill, and alloc_test drives
  # the inline and sharded SN through it with the allocation budget on.
  echo "== $preset: crypto + ILP + allocation budget (focused) =="
  ctest --preset "$preset" -R 'crypto_test|ilp_test|fuzz_test|alloc_test' --output-on-failure
  # DdosShed races worker shards against the slow-path budget: its checks
  # must hold however the threads interleave, so it runs 20 times free
  # and 20 times with every thread on one CPU.
  echo "== $preset: DdosShed x20 alone, x20 on one CPU =="
  services_test="build-$preset/tests/services_test"
  for i in $(seq 20); do
    "$services_test" --gtest_filter='DdosShed.*' --gtest_brief=1
    taskset -c 0 "$services_test" --gtest_filter='DdosShed.*' --gtest_brief=1
  done
  # The flight recorder's slots take one writer at a time; before that
  # rule its concurrent test caught a torn slot about 1 run in 5 under
  # asan, so the concurrent case runs 50 times.
  echo "== $preset: flight recorder x50 =="
  health_test="build-$preset/tests/health_test"
  for i in $(seq 50); do
    "$health_test" --gtest_filter='FlightRecorder.*' --gtest_brief=1
  done
  # net_test runs sharded SNs and real sockets on several threads: the
  # same 20 free, 20 on one CPU.
  echo "== $preset: net_test x20 alone, x20 on one CPU =="
  net_test="build-$preset/tests/net_test"
  for i in $(seq 20); do
    "$net_test" --gtest_brief=1
    taskset -c 0 "$net_test" --gtest_brief=1
  done
  # The differential ingress test and the allocation budget move slab
  # references between the control thread and worker shards (the byte
  # entry's own pool included): 20 free, 20 on one CPU.
  echo "== $preset: differential ingress + alloc_test x20 alone, x20 on one CPU =="
  parallel_test="build-$preset/tests/parallel_test"
  alloc_test="build-$preset/tests/alloc_test"
  for i in $(seq 20); do
    "$parallel_test" --gtest_filter='ShardedDatapath.ViewsIngressMatchesBytesIngress' \
      --gtest_brief=1
    taskset -c 0 "$parallel_test" --gtest_filter='ShardedDatapath.ViewsIngressMatchesBytesIngress' \
      --gtest_brief=1
    "$alloc_test" --gtest_brief=1
    taskset -c 0 "$alloc_test" --gtest_brief=1
  done
}

case "${1:-all}" in
  asan) run_preset asan ;;
  tsan) run_preset tsan ;;
  all)
    run_preset asan
    run_preset tsan
    ;;
  *) echo "usage: $0 [asan|tsan]" >&2; exit 2 ;;
esac
