#!/bin/sh
# Sanitizer CI job: builds and runs the test suite under ASan+UBSan and
# TSan (presets in CMakePresets.json), and once more as an -O3 Release
# build, whose inlining surfaces warnings the -O2 presets never see (the
# root build is -Werror). TSan is what keeps the lock-free paths honest —
# sharded_counter stripes, concurrent histogram records, the trace ring,
# and the multi-core SN datapath (worker shards, SPSC rings, the
# invalidation bus) hammered by parallel_test.
#
#   tools/ci_sanitizers.sh [asan|tsan|o3]    # default: all three
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
  # buffers (the padded remainder quad, the 4-block head), each block's
  # key rows loaded through its own key pointer (a batch seal mixes the
  # keys of many pipes in one SIMD pass), the Poly1305 tag runs over a
  # stack image of its input, and opens may decrypt in place over the
  # ciphertext. asan guards those buffers, the key pointers and the
  # aliasing, ubsan the lane and 128-bit limb arithmetic; ilp_test and
  # fuzz_test push sealed and hostile datagrams through the same calls.
  # The ILP header keeps its metadata inline with a heap spill, and
  # alloc_test drives the inline and sharded SN through it with the
  # allocation budget on.
  echo "== $preset: crypto + ILP + allocation budget (focused) =="
  ctest --preset "$preset" -R 'crypto_test|ilp_test|fuzz_test|alloc_test' --output-on-failure
  # The egress queue holds payload views (ingress slabs, pending slots,
  # a completion's sends, drained egress outbounds) from queue_span to
  # the burst end that flushes them; these tests drive every burst end
  # and the flush-first order: 5 free, 5 with every thread on one CPU.
  echo "== $preset: egress queue and burst ends x5 alone, x5 on one CPU =="
  for i in $(seq 5); do
    for pin in "" "taskset -c 0"; do
      $pin "build-$preset/tests/core_test" \
        --gtest_filter='terminus_fixture.*:shed_fixture.*:TerminusTokens.*:ShedBoundedSubmit.*' \
        --gtest_brief=1
      $pin "build-$preset/tests/ilp_test" --gtest_filter='PipeManager*' --gtest_brief=1
      $pin "build-$preset/tests/services_test" --gtest_filter='PubSub*:Multicast*:Anycast*' \
        --gtest_brief=1
      $pin "build-$preset/tests/alloc_test" --gtest_brief=1
    done
  done
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
  # SPSC rings carry every cross-thread hand-off: shard ingress and
  # egress, the slow-path hub, the invalidation lanes and the path
  # recorders. Their free-running indices, the slab references that ride
  # them (the differential ingress test and the allocation budget among
  # parallel_test and alloc_test) and the watchdog that reads their
  # occupancy: 20 free, 20 on one CPU.
  echo "== $preset: rings, slab hand-off, allocation budget, watchdog x20 alone, x20 on one CPU =="
  common_test="build-$preset/tests/common_test"
  core_test="build-$preset/tests/core_test"
  buf_pool_test="build-$preset/tests/buf_pool_test"
  parallel_test="build-$preset/tests/parallel_test"
  alloc_test="build-$preset/tests/alloc_test"
  slo_health_test="build-$preset/tests/slo_health_test"
  for i in $(seq 20); do
    for pin in "" "taskset -c 0"; do
      $pin "$common_test" --gtest_filter='SpscRing*' --gtest_brief=1
      $pin "$core_test" --gtest_filter='RingChannel*:SlowpathHub*' --gtest_brief=1
      $pin "$buf_pool_test" --gtest_brief=1
      $pin "$parallel_test" --gtest_brief=1
      $pin "$alloc_test" --gtest_brief=1
      $pin "$slo_health_test" --gtest_filter='SloHealth.WatchdogFlagsInjectedShardStallAndRecovers' \
        --gtest_brief=1
    done
  done
  if [ "$preset" = tsan ]; then
    # A slow-path request points into the issuing terminus's pending slot
    # while a service thread (ring, ipc) or the control thread (hub) reads
    # it; the slot is handed over and back only by the rings'
    # release/acquire. These drive that hand-off across threads
    # (parallel_test runs in the ring loop above).
    echo "== tsan: slow-path slot hand-off x20 =="
    failover_test="build-$preset/tests/failover_test"
    for i in $(seq 20); do
      "$core_test" --gtest_filter='AllTransports/ChannelSuite.*:SlowpathHub.*:RingChannel.*' \
        --gtest_brief=1
      "$services_test" --gtest_filter='DdosShed.*' --gtest_brief=1
      "$failover_test" --gtest_filter='Failover.SaturatedSlowPathShedsInsteadOfBlocking' \
        --gtest_brief=1
    done
  fi
}

# -O3 Release build of the whole tree under -Werror, then the suite.
run_o3() {
  echo "== o3: configure =="
  cmake -B build-o3 -S . -DCMAKE_BUILD_TYPE=Release
  echo "== o3: build =="
  cmake --build build-o3 -j
  echo "== o3: test =="
  (cd build-o3 && ctest -j --output-on-failure)
  # The flat decision cache against the list-LRU reference model it
  # replaced (~6 s here, minutes in the sanitizer builds, which run it
  # once in their ctest pass) and the slow-path allocation budget: 20
  # free, 20 on one CPU.
  echo "== o3: cache differential + miss allocation budget x20 alone, x20 on one CPU =="
  for i in $(seq 20); do
    for pin in "" "taskset -c 0"; do
      $pin build-o3/tests/core_test --gtest_filter='DecisionCacheDiff.*:CacheKeyHash.*' \
        --gtest_brief=1
      $pin build-o3/tests/alloc_test --gtest_filter='AllocBudget.*Miss*' --gtest_brief=1
    done
  done
}

case "${1:-all}" in
  asan) run_preset asan ;;
  tsan) run_preset tsan ;;
  o3) run_o3 ;;
  all)
    run_preset asan
    run_preset tsan
    run_o3
    ;;
  *) echo "usage: $0 [asan|tsan|o3]" >&2; exit 2 ;;
esac
