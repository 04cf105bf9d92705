// Ablation A2: slow-path transport choice. The paper's prototype "used IPC
// to send and receive data from services which obviously adds overhead",
// naming shared-memory rings as the known fix. This measures the
// per-packet service round trip over each transport. The in-process
// transports pass a pointer to the terminus's parked packet; IPC
// serializes it and the service side decodes its own copy.
#include <benchmark/benchmark.h>

#include <type_traits>
#include <utility>

#include "core/channel.h"

using namespace interedge;
using namespace interedge::core;

namespace {

slowpath_handler null_handler() {
  return [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::forward_to(2);
    return resp;
  };
}

packet make_packet(std::size_t payload_size) {
  packet pkt;
  pkt.l3_src = 1;
  pkt.header.service = ilp::svc::null_service;
  pkt.header.connection = 7;
  pkt.header.set_meta_u64(ilp::meta_key::dest_addr, 2);
  pkt.payload = bytes(payload_size, 0x5a);
  return pkt;
}

void pump_one(slowpath_channel& ch, const slowpath_request& req) {
  while (!ch.submit(req)) {
  }
  // ring_channel offers a parking wait — essential when producer and
  // worker share a core; other channels are polled.
  if (auto* ring = dynamic_cast<ring_channel*>(&ch)) {
    for (;;) {
      if (auto r = ring->poll_wait()) {
        benchmark::DoNotOptimize(r->verdict);
        return;
      }
    }
  }
  for (;;) {
    if (auto r = ch.poll()) {
      benchmark::DoNotOptimize(r->verdict);
      return;
    }
  }
}

void BM_Transport_Inline(benchmark::State& state) {
  inline_channel ch(null_handler());
  const packet pkt = make_packet(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  for (auto _ : state) {
    pump_one(ch, slowpath_request{.token = token++, .pkt = &pkt});
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Transport_Ring(benchmark::State& state) {
  ring_channel ch(null_handler());
  const packet pkt = make_packet(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  for (auto _ : state) {
    pump_one(ch, slowpath_request{.token = token++, .pkt = &pkt});
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Transport_Ipc(benchmark::State& state) {
  ipc_channel ch(null_handler());
  const packet pkt = make_packet(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  for (auto _ : state) {
    pump_one(ch, slowpath_request{.token = token++, .pkt = &pkt});
  }
  state.SetItemsProcessed(state.iterations());
}

// Pipelined variants: 64 outstanding, as in Table 1.
template <typename Channel>
void pipelined(benchmark::State& state) {
  Channel ch(null_handler());
  const packet pkt = make_packet(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  for (auto _ : state) {
    // Keep the 64-deep window full...
    while (submitted - completed < 64) {
      if (!ch.submit(slowpath_request{.token = token++, .pkt = &pkt})) {
        break;  // bounded channel momentarily full
      }
      ++submitted;
    }
    // ...and account one completion per iteration.
    if constexpr (std::is_same_v<Channel, ring_channel>) {
      while (!ch.poll_wait()) {
      }
    } else {
      while (!ch.poll()) {
      }
    }
    ++completed;
  }
  while (completed < submitted) {
    if (ch.poll()) ++completed;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Transport_Ring_Pipelined(benchmark::State& state) { pipelined<ring_channel>(state); }
void BM_Transport_Ipc_Pipelined(benchmark::State& state) { pipelined<ipc_channel>(state); }

}  // namespace

BENCHMARK(BM_Transport_Inline)->Arg(64)->Arg(1000);
BENCHMARK(BM_Transport_Ring)->Arg(64)->Arg(1000);
BENCHMARK(BM_Transport_Ipc)->Arg(64)->Arg(1000);
BENCHMARK(BM_Transport_Ring_Pipelined)->Arg(1000);
BENCHMARK(BM_Transport_Ipc_Pipelined)->Arg(1000);

BENCHMARK_MAIN();
