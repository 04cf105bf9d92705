// The pipe-terminus fast path (paper §3.1, §4, Figure 2).
//
// Every packet entering an SN lands here after its ILP header is decrypted
// by the pipe layer. The terminus:
//   1. queries the decision cache with (L3 src, service ID, connection ID);
//   2. on a hit, applies the match-action decision directly (fast path);
//   3. on a miss, upcalls the service module over the slow-path channel and
//      applies the returned decision, installing any cache entries the
//      module requested.
//
// The channel may be asynchronous (service on another thread/process), so
// the terminus parks each slow-path packet in a pending slot, hands the
// channel a pointer to it, and drains completions via pump(). With the
// inline channel a submit completes immediately and handle_batch() drains
// it before returning.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/channel.h"
#include "core/decision_cache.h"
#include "core/packet.h"

namespace interedge::core {

struct terminus_stats {
  std::uint64_t received = 0;
  std::uint64_t fast_path = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t forwarded = 0;   // copies sent
  std::uint64_t delivered = 0;   // consumed locally by a service
  std::uint64_t dropped = 0;
  std::uint64_t backpressure = 0;  // submit retries due to a full channel
  std::uint64_t shed = 0;  // packets given a temporary default verdict
};

// Degradation policy for a saturated or wedged slow path (DESIGN.md §10).
// With high_water configured the terminus never blocks on the channel:
// past the mark (or after submit_retries failed submits) it sheds load by
// installing a short-TTL default verdict in the decision cache and
// applying it, so the fast path keeps flowing while the slow path drains.
// Control packets are exempt — they mutate service state and always wait.
struct slowpath_policy {
  const clock* clk = nullptr;  // time source for deadlines and shed TTLs
  // Per-request deadline stamped into slowpath_request.deadline_ns;
  // 0 = no deadline.
  nanoseconds deadline{0};
  // In-flight slow-path packets that trigger shedding; 0 = legacy
  // behavior (block until the channel accepts).
  std::size_t high_water = 0;
  // Failed submit attempts (channel full) before the packet sheds.
  std::size_t submit_retries = 64;
  // Lifetime of shed verdicts; they age out so recovered services regain
  // their flows without explicit invalidation.
  nanoseconds shed_ttl = std::chrono::milliseconds(50);
};

class pipe_terminus {
 public:
  // `forward` sends a packet to an adjacent element over the node's pipes.
  // The payload span is readable until the next burst end (below) — on
  // the zero-copy path it aliases an ingress slab; implementations that
  // defer the send past it (the shard egress rings) must copy.
  using forward_fn =
      std::function<void(peer_id to, const ilp::ilp_header&, const_byte_span payload)>;
  // Called at every burst end, where the payloads forwarded since the
  // last one are still alive: after the fast-path loop of handle_batch
  // (before its pump), at the end of every slow-path completion (whose
  // sends and parked payload die with it), and before a pending slot is
  // released on the shed-after-failed-submit path (the next miss of the
  // batch may re-claim it). An owner whose forward queues views (the SN's
  // egress queue) flushes here. Optional.
  using burst_end_fn = std::function<void()>;

  pipe_terminus(decision_cache& cache, slowpath_channel& channel, forward_fn forward,
                burst_end_fn burst_end = {});

  // Processes a batch of decrypted ingress packets — the terminus' one
  // packet entry; one packet is a batch of one. Payload spans alias
  // ingress buffers owned by the caller, valid for the duration of the
  // call. The fast path never copies a byte; only packets detouring to the
  // slow path are copied, into their pending slot (it outlives the batch).
  // Consecutive packets sharing a cache key reuse one decision-cache
  // lookup (one recency bump per run — the cache is soft state, so
  // batched accounting is within its contract), and the
  // slow-path channel is drained once at the end of the batch instead of
  // once per packet. Headers are consumed (moved from).
  void handle_batch(std::span<packet_view> pkts);

  // Drains completed slow-path responses; returns how many were applied.
  std::size_t pump();

  // Observability (ISSUE 2): resolves lock-free metric handles in `reg`
  // (per-service rx families, path counters, drop counters, an in-flight
  // gauge) and installs the tracer used for sampled per-packet stage
  // captures. Without this call the terminus maintains only its plain
  // stats struct. Handle increments are batched per handle_batch call, so
  // the per-packet telemetry cost is a couple of register increments.
  void enable_telemetry(metrics_registry& reg, trace::tracer* tracer);

  // Cross-hop path tracing (ISSUE 5): packets whose sealed header carries
  // a sampled trace context emit hop spans (fast path, slow path, shed,
  // egress forward) into `rec`, and forwarded copies carry the context on
  // with hop_count bumped and this hop's span as parent. Packets without a
  // context — the overwhelming majority — pay one failed metadata lookup.
  void enable_path_tracing(trace::path_recorder* rec) { path_rec_ = rec; }

  // Installs the degradation policy (see slowpath_policy).
  void set_slowpath_policy(slowpath_policy policy) { policy_ = policy; }
  const slowpath_policy& policy() const { return policy_; }

  // Per-service shed verdict ("pass or drop, per service policy"): the
  // temporary decision installed when this service's slow-path work is
  // shed. Unset services shed to drop (fail closed).
  void set_shed_verdict(ilp::service_id service, decision d) {
    shed_verdicts_[service] = std::move(d);
  }

  // Sets the top bits of every slow-path token. The sharded datapath gives
  // each shard's terminus a disjoint token range (slowpath_hub::token_seed)
  // so the hub can route a response back to the terminus that issued it.
  void set_token_seed(std::uint64_t seed) { token_seed_ = seed; }

  // Invoked on every submit retry while the slow-path channel is full, in
  // addition to pump(). A worker shard uses it to keep servicing its other
  // obligations (invalidation bus, egress spill) so the control thread —
  // whose progress the full channel is waiting on — can never deadlock
  // against a worker stuck in this loop.
  void set_backpressure_hook(std::function<void()> hook) {
    backpressure_hook_ = std::move(hook);
  }

  // True while slow-path responses are outstanding.
  bool busy() const { return in_flight_ != 0; }
  std::size_t in_flight() const { return in_flight_; }

  const terminus_stats& stats() const { return stats_; }

  // Pushes any stats movement not yet reflected in the metric handles.
  // handle_batch() flushes on exit, but verdicts applied by a bare
  // pump() between packets (the worker loop, the control thread's poll)
  // would otherwise slip under the next flush's watermark and vanish from
  // the metrics view.
  void flush_telemetry();

 private:
  // A slow-path packet parked until its response arrives; trace_start_ns
  // is 0 unless the packet carries a sampled trace context, in which case
  // the eventual hop_slow span covers submit → completed verdict. The
  // slot's payload keeps its capacity across uses, so parking a packet is
  // one copy and no allocation.
  struct pending {
    packet pkt;
    trace::trace_context tc{};
    std::uint64_t trace_start_ns = 0;
    std::uint64_t token = 0;  // 0 while the slot is free
  };

  // A token names its slot: bits 0-23 the slot index, bits 24-47 a claim
  // count that tells a stale response from the slot's current one, and
  // the bits above the token seed (slowpath_hub's shard).
  static constexpr int kSlotBits = 24;
  static constexpr int kClaimBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kClaimMask = (std::uint64_t{1} << kClaimBits) - 1;
  static_assert(kSlotBits + kClaimBits <= slowpath_hub::kShardTokenShift);

  void apply(const decision& d, const ilp::ilp_header& header, const_byte_span payload);
  // apply() plus sampled emit-stage timing and a ring capture.
  void apply_traced(const decision& d, const ilp::ilp_header& header, const_byte_span payload,
                    bool sampled);
  // Decodes a sampled trace context, if the packet carries one and path
  // tracing is enabled.
  std::optional<trace::trace_context> sampled_ctx(const ilp::ilp_header& header) const {
    if (path_rec_ == nullptr) return std::nullopt;
    auto tc = header.trace_ctx();
    if (!tc || !tc->sampled()) return std::nullopt;
    return tc;
  }
  // Fast-path verdict application: routes through the path-span emitter
  // when the packet is traced, plain apply_traced otherwise.
  void apply_or_trace(const decision& d, const ilp::ilp_header& header,
                      const_byte_span payload, bool sampled, std::uint16_t anno);
  // Applies `d` emitting one `kind` span (id `span_id`, covering
  // start_ns → now) plus one forward span per egress copy; forwarded
  // headers carry the context on with hop_count + 1.
  void apply_with_path(const decision& d, const ilp::ilp_header& header, const_byte_span payload,
                       const trace::trace_context& tc, std::uint16_t anno,
                       trace::span_kind kind, std::uint64_t start_ns, std::uint64_t span_id);
  void complete(slowpath_response& resp);
  void end_burst() {
    if (burst_end_) burst_end_();
  }
  // A free slot with a fresh token; adds a slot when none is free.
  pending& claim_slot();
  // Frees the slot of a packet that shed instead of being submitted.
  // complete() frees the others.
  void release_slot(pending& p);
  bool should_shed() const {
    return policy_.high_water > 0 && in_flight_ >= policy_.high_water;
  }
  // Installs the service's default verdict (TTL'd) and applies it now.
  void shed_packet(peer_id l3_src, const ilp::ilp_header& header, const_byte_span payload,
                   bool sampled);
  // Submits with the policy's retry bound; false = caller sheds. Control
  // packets (and the legacy no-policy mode) retry until accepted.
  bool submit_bounded(const slowpath_request& req, bool is_control);
  std::uint64_t deadline_for_now() const {
    if (policy_.clk == nullptr || policy_.deadline.count() <= 0) return 0;
    return static_cast<std::uint64_t>(
        (policy_.clk->now() + policy_.deadline).time_since_epoch().count());
  }
  counter& service_rx_counter(ilp::service_id service);

  decision_cache& cache_;
  slowpath_channel& channel_;
  forward_fn forward_;
  burst_end_fn burst_end_;
  std::function<void()> backpressure_hook_;
  // Pending slots, found from a response's token by index. A deque never
  // moves its elements as it grows, so a request's packet pointer stays
  // valid while the slot array grows past the number in flight.
  std::deque<pending> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t in_flight_ = 0;
  std::uint64_t token_seed_ = 0;
  std::uint64_t claims_ = 0;
  terminus_stats stats_;
  terminus_stats flushed_;  // watermark of stats already in the metric handles
  slowpath_policy policy_;
  std::unordered_map<ilp::service_id, decision> shed_verdicts_;

  // Telemetry (null until enable_telemetry). Slot 0 of the per-service
  // table aggregates ids outside the well-known range.
  static constexpr std::size_t kServiceSlots = 32;
  metrics_registry* reg_ = nullptr;
  trace::tracer* tracer_ = nullptr;
  trace::path_recorder* path_rec_ = nullptr;
  counter* m_fast_ = nullptr;
  counter* m_slow_ = nullptr;
  counter* m_forwarded_ = nullptr;
  counter* m_delivered_ = nullptr;
  counter* m_dropped_ = nullptr;
  counter* m_backpressure_ = nullptr;
  counter* m_shed_ = nullptr;
  gauge* m_inflight_ = nullptr;
  std::array<counter*, kServiceSlots> rx_by_service_{};
};

}  // namespace interedge::core
