#include "harness.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ilp/pipe_manager.h"

namespace perfbench {

using namespace interedge;

void timer_queue::run_due() {
  if (q_.empty()) return;
  const std::uint64_t t = now_ns();
  std::vector<entry> due;
  for (std::size_t i = 0; i < q_.size();) {
    if (q_[i].due <= t) {
      due.push_back(std::move(q_[i]));
      q_[i] = std::move(q_.back());
      q_.pop_back();
    } else {
      ++i;
    }
  }
  for (entry& e : due) e.fn();
}

std::unique_ptr<core::service_module> maybe_timed(std::unique_ptr<core::service_module> m,
                                                  bool trace, layer l, std::uint64_t* sends) {
  if (!trace) return m;
  return std::make_unique<timed_module>(std::move(m), l, sends);
}

void pump_until(const std::function<bool()>& done, const std::function<void()>& step,
                int limit_ms, const char* what) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(limit_ms) * 1'000'000;
  while (!done()) {
    if (now_ns() > deadline) throw std::runtime_error(std::string("set-up timed out: ") + what);
    step();
  }
}

void run_ilp_probe(const ilp::ilp_header& shape, std::size_t payload_size,
                   std::uint64_t payload_seed, std::size_t n) {
  constexpr peer_id kA = 901, kB = 902;
  std::vector<bytes> a_out, b_out;
  ilp::pipe_manager a(kA, [&](peer_id, bytes d) { a_out.push_back(std::move(d)); },
                      [](peer_id, const ilp::ilp_header&, bytes) {});
  std::uint64_t opened = 0;
  ilp::pipe_manager b(kB, [&](peer_id, bytes d) { b_out.push_back(std::move(d)); },
                      [&](peer_id, const ilp::ilp_header&, bytes) { ++opened; });
  b.set_batch_deliver(
      [&](peer_id, std::span<ilp::opened_packet> pkts) { opened += pkts.size(); });
  a.connect(kB);
  pump_until(
      [&] { return a.has_pipe(kB) && b.has_pipe(kA); },
      [&] {
        std::vector<bytes> moving;
        moving.swap(a_out);
        for (const bytes& d : moving) b.on_datagram(kA, d);
        moving.clear();
        moving.swap(b_out);
        for (const bytes& d : moving) a.on_datagram(kB, d);
      },
      2000, "ilp probe handshake");

  // Each packet gets a slot [head room | payload]; the payload is written
  // before the seal, so the gather hook only copies the sealed head in
  // front of it and the seal span holds no benchmark copy of the payload.
  constexpr std::size_t kHeadRoom = 512;
  const std::size_t slot = kHeadRoom + payload_size;
  bytes arena(n * slot);
  std::vector<byte_span> wires(n);
  std::size_t cur = 0;
  a.set_send_gather([&](peer_id, const_byte_span head, const_byte_span payload) {
    std::uint8_t* start = arena.data() + cur * slot + kHeadRoom - head.size();
    std::memcpy(start, head.data(), head.size());
    wires[cur] = byte_span(start, head.size() + payload.size());
  });
  ilp::ilp_header h = shape;
  // The first pass warms caches and allocator untraced; the second is timed.
  tracer* const traced = g_tracer;
  for (int pass = 0; pass < 2; ++pass) {
    g_tracer = pass == 0 ? nullptr : traced;
    opened = 0;
    for (cur = 0; cur < n; ++cur) {
      const byte_span payload(arena.data() + cur * slot + kHeadRoom, payload_size);
      fill_payload(payload, payload_seed, cur, cur);
      h.connection = mix64(payload_seed ^ cur);
      scoped_span s(L_ILP_SEAL, static_cast<std::uint32_t>(cur));
      a.send_span(kB, h, payload);
    }
    for (std::size_t i = 0; i < n; i += 32) {
      const std::span<const byte_span> batch(wires.data() + i, std::min<std::size_t>(32, n - i));
      scoped_span s(L_ILP_OPEN, static_cast<std::uint32_t>(i));
      b.on_datagram_batch_mut(kA, batch);
    }
    if (opened != n) throw std::runtime_error("ilp probe: opened fewer packets than sealed");
  }
}

std::uint64_t kernel_udp_drops() {
  std::ifstream in("/proc/net/snmp");
  std::string header, values;
  while (std::getline(in, header)) {
    if (header.rfind("Udp:", 0) != 0) continue;
    if (!std::getline(in, values)) break;
    std::istringstream hs(header), vs(values);
    std::string name, value;
    std::uint64_t total = 0;
    while (hs >> name && vs >> value) {
      if (name == "InErrors") total += std::stoull(value);
    }
    return total;
  }
  return 0;
}

}  // namespace perfbench
