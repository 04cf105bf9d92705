// Measurement primitives shared by every workload of the SN benchmark:
// the payload format and its check, a fixed-memory latency histogram with
// sub-1% buckets, per-window p99s, the span tracer behind --trace 1, and
// process/thread CPU probes.
//
// Everything here is benchmark code: it times the program from outside, at
// the benchmark's calls into each layer, and never reaches into src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Process CPU time (user + sys, all threads) in seconds.
double process_cpu_s();
// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();
// CPU time of every thread of this process except the calling one, in
// ascending thread-id order (worker shards are spawned in shard order).
std::vector<double> other_thread_cpu_s();

// ---- payloads ----
//
// Every payload starts with a 24-byte stamp: flow id, sequence number and
// a checksum over the stamp and the body. The body is filled from the
// run's payload seed, so --seed drives the payload bytes.
inline constexpr std::size_t kStampBytes = 24;

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Writes a payload of out.size() >= kStampBytes bytes.
void fill_payload(interedge::byte_span out, std::uint64_t payload_seed, std::uint64_t flow,
                  std::uint64_t seq);
// True when the checksum matches the flow/seq/body bytes.
bool payload_intact(interedge::const_byte_span p);
inline std::uint64_t payload_flow(interedge::const_byte_span p) { return load_u64(p.data()); }
inline std::uint64_t payload_seq(interedge::const_byte_span p) { return load_u64(p.data() + 8); }

// ---- latency ----

// Log-linear histogram over nanoseconds: values below 128 get exact
// buckets, above that each octave is split into 128 linear buckets, so no
// bucket is wider than 1/128 (0.8%) of its lower edge. Fixed memory.
class lat_hist {
 public:
  void add(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++n_;
  }
  void clear() {
    counts_.fill(0);
    n_ = 0;
  }
  std::uint64_t count() const { return n_; }
  // Value at quantile q (bucket midpoint), 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSub = 128;
  static constexpr std::size_t kBuckets = 64 * kSub;
  static std::size_t index(std::uint64_t v);
  static double midpoint(std::size_t idx);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

// Latency of one timed phase. The whole-phase histogram gives the median.
// The tail is the p99 of each 1 s window, reported as the median across
// windows: a whole-run p99 is set by one or two stalls of the shared
// machine and does not repeat run to run, and 1 s windows hold enough
// packets that a handful of stalls in one second do not move its p99.
class phase_recorder {
 public:
  static constexpr std::uint64_t kWindowNs = 1'000'000'000;

  void start(std::uint64_t t0);
  void add(std::uint64_t now, std::uint64_t latency_ns) {
    if (now - win_start_ >= kWindowNs) roll(now);
    all_.add(latency_ns);
    win_.add(latency_ns);
  }
  // Closes the last window if it covers at least half a window.
  void finish(std::uint64_t t1);

  double p50() const { return all_.quantile(0.5); }
  double windowed_p99() const;
  std::uint64_t samples() const { return all_.count(); }
  std::size_t windows() const { return win_p99_.size(); }

 private:
  void roll(std::uint64_t now);

  lat_hist all_;
  lat_hist win_;
  std::uint64_t win_start_ = 0;
  std::vector<double> win_p99_;
};

// ---- tracing (--trace 1) ----

enum layer : std::uint8_t {
  L_GEN,        // benchmark: building / feeding packets
  L_HOST_TX,    // host_stack: connection::send
  L_HOST_RX,    // host_stack: on_datagram_views
  L_NET_RX,     // udp_endpoint: recv_batch_views
  L_NET_TX,     // udp_endpoint: send / send_gather / flush_tx
  L_CORE,       // service_node: on_datagram_views
  L_CORE_WAIT,  // service_node: poll / wait_idle
  L_SVC_DELIVERY,
  L_SVC_PUBSUB,
  L_SINK,       // benchmark: receive-side accounting and checks
  L_ILP_SEAL,   // pipe_manager: send_span (probe)
  L_ILP_OPEN,   // pipe_manager: on_datagram_batch_mut (probe)
  kLayerCount
};
const char* layer_name(layer l);

struct span_rec {
  std::uint64_t start;
  std::uint64_t end;
  std::uint32_t id;      // packet or batch id
  std::uint32_t parent;  // index + 1 of the enclosing span in the buffer, 0 = none
  std::uint8_t layer;
};

// Span recorder. Spans nest on a stack; each end() charges the duration to
// its layer's total and (minus the time its children covered) to the
// layer's self time, over every span of the phase. The first `capacity`
// spans are also kept in a preallocated buffer and written as JSON.
class tracer {
 public:
  explicit tracer(std::size_t capacity) { buf_.reserve(capacity); }

  void begin(layer l, std::uint32_t id) {
    open_span& o = stack_[depth_++];
    o.layer = l;
    o.child_ns = 0;
    o.rec = 0;
    o.start = now_ns();
    if (buf_.size() < buf_.capacity()) {
      const std::uint32_t parent = depth_ > 1 ? stack_[depth_ - 2].rec : 0;
      buf_.push_back(span_rec{o.start, 0, id, parent, l});
      o.rec = static_cast<std::uint32_t>(buf_.size());
    } else {
      ++dropped_;
    }
  }
  void end() {
    const std::uint64_t t = now_ns();
    open_span& o = stack_[--depth_];
    const std::uint64_t dur = t - o.start;
    total_ns_[o.layer] += dur;
    self_ns_[o.layer] += dur - o.child_ns;
    ++calls_[o.layer];
    if (o.rec != 0) buf_[o.rec - 1].end = t;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
    } else {
      covered_ns_ += dur;
    }
  }

  std::uint64_t total_ns(layer l) const { return total_ns_[l]; }
  std::uint64_t self_ns(layer l) const { return self_ns_[l]; }
  std::uint64_t calls(layer l) const { return calls_[l]; }
  std::uint64_t covered_ns() const { return covered_ns_; }
  const std::vector<span_rec>& spans() const { return buf_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct open_span {
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint32_t rec;
    std::uint8_t layer;
  };
  std::array<open_span, 16> stack_{};
  int depth_ = 0;
  std::array<std::uint64_t, kLayerCount> total_ns_{};
  std::array<std::uint64_t, kLayerCount> self_ns_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::uint64_t covered_ns_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<span_rec> buf_;
};

// The active tracer; null outside the traced phase, so untraced runs pay
// one predictable branch per call site.
extern tracer* g_tracer;

class scoped_span {
 public:
  scoped_span(layer l, std::uint32_t id = 0) : t_(g_tracer) {
    if (t_ != nullptr) t_->begin(l, id);
  }
  ~scoped_span() {
    if (t_ != nullptr) t_->end();
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer* t_;
};

}  // namespace perfbench
