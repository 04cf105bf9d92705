// Real-network binding: runs InterEdge elements over UDP sockets.
//
// Every component above L3 (pipe_manager, service_node, host_stack) is
// transport-agnostic — it takes a send callback and an on_datagram feed.
// The simulator provides one binding (tests, examples, topology research);
// this module provides the other: actual UDP datagrams, so an SN or host
// built from this library runs on a real network unchanged.
//
//   udp_endpoint  — a bound non-blocking UDP socket with a peer table
//                   (peer_id <-> sockaddr), send/receive in pipe_manager's
//                   vocabulary
//   event_loop    — single-threaded driver: pumps any number of endpoints
//                   into their handlers and runs timers (the scheduler_fn
//                   service_node/host_stack need)
//
// Receive is zero-copy: recvmmsg(2) lands datagrams directly in slabs from
// the endpoint's buf_pool, one syscall per batch, and hands them out as
// pkt_views (recv_batch_views). Send is synchronous: sendto/sendmsg per
// datagram, sendmmsg(2) per batch.
#pragma once

#include <netinet/in.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/buf_pool.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/flat_hash.h"
#include "common/metrics.h"
#include "ilp/header.h"

namespace interedge::net {

using ilp::peer_id;

// The only reason this enum exists: perfbench/src/relay_udp.cpp:57 labels
// its run by comparing backend() against `uring`, and the benchmark changes
// only in its own commits. No config field sets it; backend() is always
// mmsg. Delete both once the benchmark stops naming io_uring.
enum class udp_backend { mmsg, uring };

struct udp_config {
  std::uint16_t port = 0;  // 0 = ephemeral
  // Set SO_REUSEPORT before bind so several endpoints (one per datapath
  // worker) can share one port and let the kernel spread flows across them.
  bool reuse_port = false;
  buf::pool_config pool{};  // slab size/count for the rx pool
};

class udp_endpoint {
 public:
  // Binds 127.0.0.1:cfg.port. Throws std::runtime_error on socket failures.
  explicit udp_endpoint(const udp_config& cfg = {});
  ~udp_endpoint();

  udp_endpoint(const udp_endpoint&) = delete;
  udp_endpoint& operator=(const udp_endpoint&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }
  udp_backend backend() const { return udp_backend::mmsg; }

  // Registers a peer's network address. Datagrams from unregistered
  // sources are dropped (and counted).
  void add_peer(peer_id peer, const std::string& ip, std::uint16_t port);

  // Sends a datagram to a registered peer; false if the peer is unknown.
  // Accepts any contiguous byte range — including a view into a pool slab
  // (the kernel copies into the skb before sendto returns).
  bool send(peer_id to, const_byte_span datagram);

  // Gather send: head + payload as two iovecs in one sendmsg(2), so an
  // egress path holding a sealed header and a payload view never glues
  // them into one buffer.
  bool send_gather(peer_id to, const_byte_span head, const_byte_span payload);

  // The egress flush boundary: callers run flush_tx() after each send
  // burst (event_loop does before it blocks and after it dispatches) and
  // tx_drain() before teardown. Every send above completes synchronously,
  // so both have nothing to do yet; coalesced egress will queue sends and
  // flush them here.
  std::size_t flush_tx() { return 0; }
  bool tx_drain() { return true; }

  // Batch receive, zero-copy: drains up to `max` datagrams into pool-slab
  // views, appending (peer, view) pairs to `out`. Datagrams from
  // unregistered sources are counted and skipped; datagrams larger than a
  // slab are truncated and counted. Views hold slab references — the slab
  // returns to the pool when the last view drops — and must not outlive
  // this endpoint. Returns the number appended.
  std::size_t recv_batch_views(std::size_t max,
                               std::vector<std::pair<peer_id, buf::pkt_view>>& out);

  // Batch send: transmits every datagram to `to` with one sendmmsg(2)
  // call per chunk (loop fallback). Returns how many the kernel accepted;
  // 0 if the peer is unknown.
  std::size_t send_batch(peer_id to, std::span<const bytes> datagrams);

  // Largest number of datagrams one recv_batch_views/send_batch syscall
  // covers.
  static constexpr std::size_t kBatchMax = 32;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t dropped_unknown() const { return dropped_unknown_; }
  // Receive attempts that found nothing to deliver (socket empty, or the
  // pool held entirely by live views). Distinguishes "nothing arrived"
  // from a batch the kernel cut short.
  std::uint64_t rx_empty() const { return rx_empty_; }
  // Receive calls that drained fewer datagrams than asked (the EAGAIN
  // happened inside the batch). Callers sizing rings/batches off
  // recv_batch_views need to see it.
  std::uint64_t rx_partial_batches() const { return rx_partial_batches_; }
  // Receive failures that were NOT EAGAIN/EINTR (real socket errors).
  std::uint64_t rx_errors() const { return rx_errors_; }
  // Datagrams larger than a pool slab: delivered truncated and counted.
  // The slab default (9216) covers every MTU we bind; growth here means
  // the pool's slab_size knob is mis-sized for the deployment.
  std::uint64_t rx_truncated() const { return rx_truncated_; }
  // Transient send failures (EAGAIN/EWOULDBLOCK/EINTR — a full socket
  // buffer) absorbed by the bounded retry loop in send/send_batch. A
  // climbing value under load means the kernel buffer is the bottleneck,
  // not the wire; exposed as net.udp.send_again.
  std::uint64_t send_again() const { return send_again_; }

  // The rx slab pool (sizing/exhaustion stats).
  const buf::buf_pool* pool() const { return pool_.get(); }
  buf::pool_stats pool_stats() const {
    return pool_ ? pool_->stats() : buf::pool_stats{};
  }

  // Optional: mirrors the endpoint's net.udp.* socket counters into `reg`
  // so they ride the SN's stats exposition and the SLO health plane.
  // Mirrors count movement since enablement; the mirrored totals are
  // delta-synced at the end of every rx batch.
  void enable_telemetry(metrics_registry& reg) {
    m_send_again_ = &reg.get_counter("net.udp.send_again");
    m_rx_truncated_ = &reg.get_counter("net.udp.rx_truncated");
    m_rx_errors_ = &reg.get_counter("net.udp.rx_errors");
    m_dropped_unknown_ = &reg.get_counter("net.udp.dropped_unknown");
    last_rx_truncated_ = rx_truncated_;
    last_rx_errors_ = rx_errors_;
    last_dropped_unknown_ = dropped_unknown_;
  }

 private:
  // Delta-syncs the mirrored counters from the raw totals; a handful of
  // subtractions per rx batch, adds only when something moved.
  void sync_telemetry();

  int fd_ = -1;
  std::uint16_t port_ = 0;
  buf::pool_config pool_cfg_;
  flat_hash64<sockaddr_in> peers_;     // peer_id -> addr
  flat_hash64<peer_id> by_source_;     // packed ip:port -> peer
  // Declaration order is lifetime order: slabs (pool_) outlive the cache
  // and the armed buffers that reference them.
  std::unique_ptr<buf::buf_pool> pool_;
  std::optional<buf::buf_pool::cache> cache_;
  std::vector<buf::slab_ref> rx_slabs_;  // armed recvmmsg buffers, reused
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_unknown_ = 0;
  std::uint64_t rx_empty_ = 0;
  std::uint64_t rx_partial_batches_ = 0;
  std::uint64_t rx_errors_ = 0;
  std::uint64_t rx_truncated_ = 0;
  std::uint64_t send_again_ = 0;
  counter* m_send_again_ = nullptr;
  counter* m_rx_truncated_ = nullptr;
  counter* m_rx_errors_ = nullptr;
  counter* m_dropped_unknown_ = nullptr;
  std::uint64_t last_rx_truncated_ = 0;
  std::uint64_t last_rx_errors_ = 0;
  std::uint64_t last_dropped_unknown_ = 0;

  // Transient send failures retry this many times before the datagram is
  // given up on (UDP is lossy; upper layers own reliability).
  static constexpr std::size_t kSendRetries = 4;
};

// Single-threaded real-time driver for one or more endpoints.
class event_loop {
 public:
  using datagram_handler = std::function<void(peer_id from, const_byte_span data)>;
  // Batch handler: slab views, valid for the duration of the call (hold a
  // clone to keep one longer).
  using views_handler =
      std::function<void(std::span<std::pair<peer_id, buf::pkt_view>> datagrams)>;

  // Attaches an endpoint: arriving datagrams go to `handler`, one call per
  // datagram, in arrival order.
  void attach(udp_endpoint& endpoint, datagram_handler handler);

  // Batch attach: each pass's drained burst goes to `handler` as one span
  // (the SN feeds these straight into its batched datapath).
  void attach_views(udp_endpoint& endpoint, views_handler handler);

  // Timer facility, signature-compatible with service_node/host_stack's
  // scheduler_fn.
  void schedule(nanoseconds delay, std::function<void()> fn);
  auto scheduler() {
    return [this](nanoseconds delay, std::function<void()> fn) {
      schedule(delay, std::move(fn));
    };
  }

  // Pumps sockets and timers until `deadline_from_now` elapses.
  // Returns the number of datagrams dispatched.
  std::size_t run_for(std::chrono::milliseconds deadline_from_now);

  // Pumps until no datagram arrives for `quiet` (and no timers are due),
  // up to `limit`. The usual test idiom: run until the exchange quiesces.
  std::size_t run_until_quiet(std::chrono::milliseconds quiet,
                              std::chrono::milliseconds limit);

 private:
  struct attached {
    udp_endpoint* endpoint;
    views_handler handler;
  };
  struct timer {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const timer& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };

  // One pass: fire due timers, drain readable sockets. Returns datagrams
  // dispatched.
  std::size_t pass(std::chrono::milliseconds max_wait);

  std::vector<attached> endpoints_;
  std::vector<std::pair<peer_id, buf::pkt_view>> views_scratch_;  // reused per pass
  std::priority_queue<timer, std::vector<timer>, std::greater<>> timers_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace interedge::net
