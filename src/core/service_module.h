// The Write-Once-Run-Anywhere service-module API (paper §3.1, "Execution
// environment"): every standardized InterEdge service is a service_module
// written against service_context — the "few basic primitives" every SN
// provides (send/receive over ILP, configuration, decision-cache access,
// state checkpointing, storage, clock).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "core/decision_cache.h"
#include "core/offpath.h"
#include "core/packet.h"

namespace interedge::core {

// A module failure worth retrying: transient resource exhaustion, a
// dependency momentarily unavailable. The execution environment re-invokes
// the module a capped number of times (inline — the slow-path handler is
// synchronous) before dropping the packet; any other exception from a
// module is contained and drops the packet immediately.
class transient_error : public std::runtime_error {
 public:
  explicit transient_error(const std::string& what) : std::runtime_error(what) {}
};

// An additional packet a module wants sent (control replies, fan-out
// copies with rewritten headers, service-to-service traffic).
struct outbound {
  peer_id to = 0;
  ilp::ilp_header header;
  bytes payload;
};

// Most decision-cache entries one module call installs. Every service
// installs at most one, for the packet's own flow.
inline constexpr std::size_t kMaxCacheInserts = 1;
// A module's cache inserts, stored inline so that a slow-path round trip
// does not allocate. A module that adds more than kMaxCacheInserts throws,
// and the execution environment drops the packet as a module error.
using cache_insert_list = inline_list<std::pair<cache_key, decision>, kMaxCacheInserts>;

// What a module returns from on_packet.
struct module_result {
  decision verdict = decision::drop_packet();
  // Decision-cache entries the module wants installed (Appendix B).
  cache_insert_list cache_inserts;
  // Extra packets to emit.
  std::vector<outbound> sends;

  static module_result forward(peer_id hop) {
    module_result r;
    r.verdict = decision::forward_to(hop);
    return r;
  }
  static module_result deliver() {
    module_result r;
    r.verdict = decision::deliver();
    return r;
  }
  static module_result drop() { return module_result{}; }
};

// The environment handed to a module. One context per (SN, module).
class service_context {
 public:
  virtual ~service_context() = default;

  // Identity.
  virtual peer_id node_id() const = 0;
  virtual std::uint16_t edomain() const = 0;

  // Time (virtual in simulation, real on a deployment).
  virtual const clock& node_clock() const = 0;
  time_point now() const { return node_clock().now(); }

  // Off-path persistent storage, namespaced per module.
  virtual kv_store& storage() = 0;

  // Sends a packet over ILP to an adjacent element (host or SN).
  virtual void send(peer_id to, const ilp::ilp_header& header, bytes payload) = 0;

  // Schedules a callback (timers for rekeys, expirations, retries).
  virtual void schedule(nanoseconds delay, std::function<void()> fn) = 0;

  // Configuration (standardized per service so customers can move between
  // IESPs without reconfiguring — §5).
  virtual std::string config(const std::string& key, const std::string& fallback) const = 0;

  // Decision-cache maintenance outside the packet path.
  virtual void invalidate_connection(ilp::service_id service, ilp::connection_id conn) = 0;
  // Drops every cached verdict for `service` on this SN — for control-plane
  // transitions that change the answer for flows already in flight (a dest
  // newly protected by ddos, a host re-anchored by mobility).
  virtual void invalidate_service(ilp::service_id service) = 0;
  virtual std::uint64_t cache_hit_count(const cache_key& key) const = 0;

  // Routing: resolves the next adjacent element toward a destination host.
  // (Implemented by the edomain layer; kInvalidAddr-style nullopt when the
  // destination is unknown.)
  virtual std::optional<peer_id> next_hop(edge_addr dest) const = 0;

  virtual metrics_registry& metrics() = 0;
};

class service_module {
 public:
  virtual ~service_module() = default;

  virtual ilp::service_id id() const = 0;
  virtual std::string_view name() const = 0;

  // Called once when the module is deployed on an SN.
  virtual void start(service_context& /*ctx*/) {}

  // Slow-path packet handler; must be able to "make forwarding decisions
  // not just for the first few packets in a connection, but for any
  // arbitrary packet" (Appendix B — entries can be evicted at any time).
  virtual module_result on_packet(service_context& ctx, const packet& pkt) = 0;

  // True if this module's verdicts depend on packet *contents* (payload
  // inspection), not just the header tuple. When such a module runs as an
  // operator interceptor, the execution environment strips decision-cache
  // inserts from downstream modules so every packet keeps reaching it.
  virtual bool content_dependent() const { return false; }

  // State checkpointing primitive for fault tolerance (§3.1).
  virtual bytes checkpoint(service_context& /*ctx*/) { return {}; }
  virtual void restore(service_context& /*ctx*/, const_byte_span /*state*/) {}
};

}  // namespace interedge::core
