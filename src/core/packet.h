// In-SN packet representation and the match-action vocabulary shared by the
// pipe-terminus, the decision cache, and service modules.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "common/bytes.h"
#include "common/clock.h"
#include "ilp/header.h"
#include "ilp/pipe_manager.h"

namespace interedge::core {

using ilp::edge_addr;
using ilp::peer_id;

// A packet as seen inside an SN: the outer (L3) source it arrived from,
// the decrypted ILP header, and the (endpoint-encrypted, opaque) payload.
struct packet {
  peer_id l3_src = 0;
  ilp::ilp_header header;
  bytes payload;
};

// Zero-copy variant: the payload is a view into the ingress buffer (a
// pool slab) rather than an owned copy. Valid only while that buffer is
// live and unmoved — the fast path processes a batch of these and is done
// with them before the buffers recycle; anything that must outlive the
// batch (the slow-path pending table) copies into an owned `packet`.
struct packet_view {
  peer_id l3_src = 0;
  ilp::ilp_header header;
  const_byte_span payload;
};

// The decision-cache key (§4: "the pipe-terminus uses the packet's L3
// header, service ID, and connection ID to query the decision cache").
struct cache_key {
  peer_id l3_src = 0;
  ilp::service_id service = 0;
  ilp::connection_id connection = 0;

  bool operator==(const cache_key&) const = default;
};

// A list of at most N values stored inline, so that copying one never
// allocates. Used for a decision's next hops and a module's cache inserts.
template <typename T, std::size_t N>
class inline_list {
  static_assert(N <= 255, "the size is kept in one byte");

 public:
  inline_list() = default;
  // Throws std::invalid_argument past N.
  inline_list(std::initializer_list<T> items) {
    for (const T& item : items) push_back(item);
  }

  // Throws std::invalid_argument when the list already holds N values.
  void push_back(const T& item) {
    if (size_ == N) throw std::invalid_argument("inline_list: more than its capacity");
    items_[size_++] = item;
  }
  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }
  void clear() { size_ = 0; }

  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool operator==(const inline_list& o) const {
    return std::equal(begin(), end(), o.begin(), o.end());
  }

 private:
  std::array<T, N> items_{};
  std::uint8_t size_ = 0;
};

// Most next hops one decision carries. Every service builds single-hop
// verdicts; wider fan-outs (pub/sub, multicast) leave through
// module_result::sends instead.
inline constexpr std::size_t kMaxNextHops = 4;

// A decision's next hops.
using hop_list = inline_list<peer_id, kMaxNextHops>;

// A match-action decision. "The decision can specify multiple forwarding
// destinations, in which case a copy of the packet is forwarded to each."
struct decision {
  enum class verdict : std::uint8_t {
    forward = 0,        // send a copy to each next hop
    deliver_local = 1,  // packet terminates at this SN (service consumed it)
    drop = 2,
  };
  verdict kind = verdict::drop;
  hop_list next_hops;
  // Optional lifetime: 0 = live until LRU eviction / invalidation; > 0 =
  // the cache expires the entry `ttl` after insertion (requires the cache
  // to have a clock — see decision_cache::set_clock). Shed/default
  // verdicts and verdicts for degraded services set this so they age out.
  nanoseconds ttl{0};

  static decision forward_to(peer_id hop) { return {verdict::forward, {hop}}; }
  // Throws std::invalid_argument past kMaxNextHops.
  static decision forward_all(hop_list hops) { return {verdict::forward, hops}; }
  static decision deliver() { return {verdict::deliver_local, {}}; }
  static decision drop_packet() { return {verdict::drop, {}}; }

  bool operator==(const decision&) const = default;
};

}  // namespace interedge::core
