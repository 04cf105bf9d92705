// Service Node (SN): the commodity-cluster element of the InterEdge
// (paper §3). Assembles the pipe layer, the pipe-terminus fast path with
// its decision cache, and the common execution environment hosting the
// standardized service modules.
//
// Transport-agnostic like pipe_manager: the owner supplies datagram send
// and timer callbacks, so the same SN runs over the simulator or a real
// UDP socket.
//
// Two datapath modes (sn_config::workers):
//   workers == 0  — the inline single-threaded SN: pipe decrypt, terminus
//                   dispatch and service modules all run on the caller's
//                   thread over the inline channel. Byte-for-byte the
//                   behavior the simulator and the earlier benchmarks
//                   measure.
//   workers == N  — the multi-core datapath (DESIGN.md §9): the caller's
//                   thread becomes the control thread. It steers each data
//                   packet to one of N worker shards by SipHashing the
//                   packet's (L3 src, service, connection) cache key — the
//                   same keyed hash the decision cache uses — read via an
//                   unauthenticated batched header peek. Each shard owns a
//                   private decision cache, PSP decrypt replicas, terminus,
//                   tracer and metrics registry, so the packet fast path is
//                   lock-free by construction; SPSC rings carry packets in
//                   (ingress), forwarded packets out (egress), slow-path
//                   traffic (slowpath_hub) and cache invalidations
//                   (cache_invalidation_bus). Service modules, timers and
//                   the slow path still run on the control thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/buf_pool.h"
#include "common/clock.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/ring.h"
#include "common/slo.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "common/trace_collector.h"
#include "core/channel.h"
#include "core/decision_cache.h"
#include "core/exec_env.h"
#include "core/pipe_terminus.h"
#include "core/router.h"
#include "ilp/pipe_manager.h"

namespace interedge::core {

struct sn_config {
  peer_id id = 0;
  std::uint16_t edomain = 0;
  std::size_t cache_capacity = 4096;
  std::uint64_t cache_hash_seed = 0;
  // Packet tracing: sample 1 in 2^trace_sample_shift packets into the
  // per-packet trace ring (stage histograms are always on; see DESIGN §8).
  std::uint32_t trace_sample_shift = 8;
  // Cross-hop path tracing (ISSUE 5): ring slots for the per-shard path
  // span recorders. 0 disables span emission entirely (packets still carry
  // any trace context they arrived with — it is ordinary sealed metadata).
  std::size_t path_span_capacity = 1024;
  // Multi-core datapath. 0 = inline single-threaded SN (unchanged);
  // N > 0 spawns N worker shards fed by flow steering.
  std::size_t workers = 0;
  // Slots per shard for the ingress and egress rings. A full ingress ring
  // is backpressure: the packet is dropped and counted
  // (sn.shard.ingress_drops{shard=k}), never silently lost. Each shard's
  // decision cache holds cache_capacity / workers entries (floor 64),
  // keeping the aggregate working set comparable to the inline cache.
  std::size_t shard_ring_depth = 1024;
  // Egress ring slots per shard; 0 inherits shard_ring_depth.
  std::size_t egress_ring_depth = 0;
  // High-water mark for the worker-private egress spill deque. A stalled
  // control thread otherwise grows the spill without bound (every deferred
  // forward is an owned payload copy); past the cap, forwards are dropped
  // and counted (sn.shard.egress_spill_drops{shard=k}) — UDP egress is
  // lossy by contract, unbounded memory growth is not. 0 = unbounded.
  std::size_t egress_spill_max = 4096;

  // ---- robustness (DESIGN.md §10) ----
  // Pipe keepalives: 0 disables. When set, the SN arms pipe_manager
  // liveness at construction and drives liveness_tick() off its scheduler
  // every interval until stop_liveness(). The miss budget and reconnect
  // backoff are pipe_manager constants.
  nanoseconds keepalive_interval{0};
  // Liveness keepalive-jitter seed. 0 derives a node-unique default from
  // the SN id; deployments that plumb one root seed everywhere (scenario
  // suites) set it explicitly so the jitter stream is part of the seed.
  std::uint64_t liveness_jitter_seed = 0;
  // Slow-path degradation: deadline stamped on every slow-path request
  // (0 = none) and the in-flight high-water mark past which the terminus
  // sheds with a TTL'd default verdict (0 = legacy blocking behavior).
  nanoseconds slowpath_deadline{0};
  std::size_t slowpath_high_water = 0;
  nanoseconds shed_ttl = std::chrono::milliseconds(50);
};

class service_node final : public node_services {
 public:
  using send_datagram_fn = std::function<void(peer_id to, bytes datagram)>;
  using scheduler_fn = std::function<void(nanoseconds delay, std::function<void()> fn)>;

  service_node(sn_config config, const clock& clk, send_datagram_fn send_datagram,
               scheduler_fn scheduler, const router* route);
  ~service_node() override;

  // The SN's ingress (DESIGN.md "Read first"): datagrams arrive as
  // refcounted slab views straight from udp_endpoint::recv_batch_views,
  // mixed sources in arrival order. Data messages are decrypted in place
  // inside the slab (pipe_manager::on_datagram_batch_mut inline;
  // decrypt_batch_mut on the shards) and the terminus consumes
  // packet_views aliasing the slab — no per-packet payload copy anywhere on
  // the fast path. In parallel mode the slab reference itself rides the
  // shard ring, so the slab stays alive (and unrecycled) until the worker
  // is done with it. The views are consumed (moved from).
  void on_datagram_views(std::span<std::pair<peer_id, buf::pkt_view>> datagrams);

  // One datagram from a byte buffer (simulator node handler, tests): a
  // batch of one. The bytes are copied into a slab of the SN's own pool
  // and fed to on_datagram_views. A datagram larger than a slab is dropped
  // and counted in ilp.rx.rejected.
  void on_datagram(peer_id from, const_byte_span datagram);

  // Parallel-mode service: dispatches pending slow-path requests on this
  // (the control) thread and drains shard egress into the pipes. Safe and
  // a near no-op when workers == 0 (drains the inline terminus). Returns
  // the number of items serviced. Called automatically at the end of every
  // ingress batch; owners with idle periods call it from a timer.
  std::size_t poll();

  // Blocks (spinning + polling) until every steered packet has been
  // consumed, every slow-path exchange completed, every invalidation
  // applied and every forwarded packet sent — or until `timeout`. After a
  // true return, shard caches/stats may be inspected race-free.
  bool wait_idle(std::chrono::milliseconds timeout = std::chrono::milliseconds(1000));

  // node_services (what the execution environment sees).
  peer_id node_id() const override { return config_.id; }
  std::uint16_t edomain() const override { return config_.edomain; }
  const clock& node_clock() const override { return clock_; }
  void send(peer_id to, const ilp::ilp_header& header, bytes payload) override;
  void schedule(nanoseconds delay, std::function<void()> fn) override;
  std::optional<peer_id> next_hop(edge_addr dest) const override;
  decision_cache& cache() override { return cache_; }
  metrics_registry& metrics() override { return metrics_; }
  // Shard-aware invalidation: with workers, publishes on the invalidation
  // bus so every shard's private cache drops the entries; inline mode hits
  // the node cache directly (the node_services default).
  void invalidate_connection(ilp::service_id service, ilp::connection_id conn) override;
  void invalidate_service(ilp::service_id service) override;
  // Purges every cached forward naming `hop` — liveness calls this when a
  // peer goes down so established flows re-resolve on the slow path
  // instead of blackholing into the dead adjacency until LRU eviction.
  void invalidate_next_hop(peer_id hop);

  exec_env& env() { return *env_; }
  ilp::pipe_manager& pipes() { return pipes_; }
  pipe_terminus& terminus() { return *terminus_; }
  const terminus_stats& datapath_stats() const { return terminus_->stats(); }
  trace::tracer& packet_tracer() { return tracer_; }
  // The pool behind on_datagram's copies (outstanding slabs, exhaustion).
  const buf::buf_pool& ingress_pool() const { return ingress_pool_; }

  // ---- cross-hop path tracing (ISSUE 5) ----

  // The control-thread recorder (inline terminus, service dispatch, node
  // events). Shard termini own private recorders drained alongside it.
  trace::path_recorder& path_recorder() { return path_rec_; }

  // Appends every span buffered in the control and shard recorders to
  // `out`; returns how many were drained. Control-thread only (each ring
  // is SPSC with this thread as the consumer).
  std::size_t drain_path_spans(std::vector<trace::path_span>& out);

  // The node-local collector fed by export_trace_json() and the
  // observability push; mostly useful to tests and introspection tooling.
  trace::trace_collector& traces() { return collector_; }

  // Drains pending spans into the local collector and returns its JSON
  // path-trace dump (newest first, `limit` 0 = all retained traces).
  std::string export_trace_json(std::size_t limit = 0);

  // Observability push (edomain plane): every `interval` the node merges
  // its metric registries and drains its span recorders, handing both to
  // `sink` (domain_core's observability plane, a test, a file writer).
  // max_pushes == 0 runs until stop_observability_push().
  using observe_sink =
      std::function<void(const metrics_registry& merged, std::span<const trace::path_span> spans)>;
  void start_observability_push(nanoseconds interval, observe_sink sink,
                                std::uint64_t max_pushes = 0);
  void stop_observability_push() { observe_running_ = false; }

  // Multi-core introspection (parallel mode; see wait_idle for when the
  // worker-owned state is safe to read).
  std::size_t worker_count() const { return shards_.size(); }
  const flow_steerer* steerer() const { return steerer_.get(); }
  const cache_stats& shard_cache_stats(std::size_t shard) const;
  const terminus_stats& shard_terminus_stats(std::size_t shard) const;
  decision_cache& shard_cache(std::size_t shard);
  metrics_registry& shard_metrics(std::size_t shard);

  // Stats snapshot: every registered metric with per-second rates for the
  // monotone kinds, computed against the previous snapshot (the paper's
  // "operable at scale" requirement — ISSUE 2). In parallel mode the
  // control registry and every shard registry are merged into one view.
  std::string stats_snapshot();

  // Prometheus exposition of the same merged view.
  std::string export_prometheus();

  // Merges the control registry plus every shard registry into `out`
  // (call with a fresh registry; merging is additive).
  void merge_metrics_into(metrics_registry& out) const;

  // Periodic exposition over the node's scheduler. max_reports == 0 runs
  // until stop_stats_reporting(); a bound makes it usable under the
  // run-until-quiet simulator loop.
  void start_stats_reporting(nanoseconds interval, std::function<void(const std::string&)> sink,
                             std::uint64_t max_reports = 0);
  void stop_stats_reporting() { stats_running_ = false; }

  // Establishes a long-lived pipe (inter-edomain peering, §3.2).
  void peer_with(peer_id other) { pipes_.connect(other); }

  // Rekey schedule hook. In parallel mode the fresh receive contexts are
  // replicated to every shard before any packet sealed under them can be
  // steered (the replicas ride the FIFO ingress rings).
  void rotate_keys() {
    pipes_.rotate_all();
    emit_node_event(trace::kAnnoRekey, config_.id);
  }

  // Fault-tolerance: checkpoint covers service-module state and off-path
  // storage. The decision cache is deliberately NOT checkpointed — it is
  // soft state, and correctness never depends on it (Appendix B).
  bytes checkpoint() { return env_->checkpoint(); }
  void restore(const_byte_span snapshot) { env_->restore(snapshot); }

  // ---- fault-tolerant lifecycle (DESIGN.md §10) ----

  // Stops the recurring keepalive tick armed by keepalive_interval > 0
  // (lets deterministic tests drain the simulator event queue).
  void stop_liveness() { liveness_running_ = false; }

  // Per-service shed verdict (pass or drop) applied when the slow path
  // saturates; propagated to the inline terminus and every worker shard's.
  // Call before traffic flows (shard termini are worker-owned afterward).
  void set_shed_verdict(ilp::service_id service, const decision& d);

  std::uint64_t slowpath_expired() const { return slowpath_expired_; }

  // Full warm-state checkpoint: the exec_env envelope (module state +
  // off-path storage) plus the decision cache's warm entries (soft state,
  // but restoring it lets a standby take over without a cold-start miss
  // storm). In parallel mode the snapshot covers the control cache; shard
  // caches refill from traffic.
  bytes checkpoint_full();
  // Restores a checkpoint_full() snapshot into this (standby) SN. Throws
  // interedge::serial_error on malformed input.
  void restore_full(const_byte_span snapshot);

  // Checkpoint scheduler: every `interval`, takes checkpoint_full() and
  // hands it to `sink` (the failover store). max_checkpoints == 0 runs
  // until stop_checkpointing(); a bound keeps the simulator's event queue
  // drainable. Metrics: sn.checkpoint.taken / sn.checkpoint.bytes.
  void start_checkpointing(nanoseconds interval, std::function<void(bytes)> sink,
                           std::uint64_t max_checkpoints = 0);
  void stop_checkpointing() { checkpoint_running_ = false; }

  // ---- SLO health plane (ISSUE 7, DESIGN.md §13) ----

  struct health_config {
    nanoseconds interval = std::chrono::milliseconds(100);
    // Sliding-window store fed from the merged registry every tick.
    timeseries_store::config series;
    // Burn-rate policy + per-service targets evaluated every tick.
    slo::burn_windows windows;
    std::vector<slo::slo_target> targets;
    // Health ticks a shard may sit with pending work and an unmoving
    // heartbeat before the watchdog flags it stalled.
    std::uint32_t watchdog_grace = 2;
    // Structured alert fan-out (every SLO state transition).
    std::function<void(const slo::slo_alert&)> alert_sink;
    // Receives the frozen black-box JSON dump, once per freeze.
    std::function<void(const std::string& json)> blackbox_sink;
  };

  // Arms the health tick: per-shard watchdog + saturation gauges, merged
  // snapshot into the timeseries ring, SLO evaluation, black-box triggers.
  // max_ticks == 0 runs until stop_health_plane() (bound it under the
  // run-until-quiet simulator loop, like every other recurring tick).
  void start_health_plane(health_config cfg, std::uint64_t max_ticks = 0);
  void stop_health_plane() { health_running_ = false; }

  // Health-plane introspection (null/zero before start_health_plane).
  const timeseries_store* health_series() const { return health_ts_.get(); }
  const slo::slo_monitor* health_slos() const { return health_slo_.get(); }
  std::uint64_t watchdog_stalls() const { return watchdog_stalls_; }

  // The black-box flight recorder (the recorder's default 1024 slots;
  // never null).
  flight_recorder* blackbox() { return &blackbox_; }
  // Postmortem dump: the flight recorder's JSON.
  std::string dump_blackbox_json() const { return blackbox_.dump_json(); }

  // Fault-injection hook (tests, chaos drills): while on, shard
  // `shard`'s worker spins without advancing its heartbeat or consuming
  // work — exactly the live-lock shape the watchdog exists to catch.
  void inject_worker_stall(std::size_t shard, bool on);

  // Fault-injection hook: while on, drain_egress() leaves forwards in the
  // shard egress rings — the stalled-control-thread shape that engages the
  // workers' bounded spill (egress_spill_max).
  void pause_egress_drain(bool on) { egress_paused_.store(on, std::memory_order_release); }

 private:
  // One unit over a shard's ingress ring: a steered data datagram (full
  // wire bytes, kind byte included) as a refcounted slab view — the slab
  // recycles when the worker drops the last reference — or a receive-key
  // update for one peer. Updates ride the same FIFO ring as data, so a
  // replica is always installed before any packet that needs it is
  // decrypted.
  struct shard_msg {
    peer_id from = 0;
    buf::pkt_view view;
    std::unique_ptr<ilp::pipe_rx> rx_update;
  };

  struct worker_shard {
    worker_shard(std::size_t index, const sn_config& cfg, std::size_t cache_cap,
                 const clock* clk);

    std::size_t index;
    decision_cache cache;     // private: only this shard's thread touches it
    metrics_registry reg;     // merged into the global view on exposition
    trace::tracer tracer;
    trace::path_recorder path_rec;  // worker produces, control drains (SPSC)
    spsc_ring<shard_msg> ingress;  // control -> worker
    spsc_ring<outbound> egress;    // worker -> control (forwards)
    // Worker-private spill for a momentarily full egress ring: the worker
    // never blocks, so the control thread can never deadlock against it.
    std::deque<outbound> egress_overflow;
    std::unique_ptr<pipe_terminus> terminus;
    std::map<peer_id, ilp::pipe_rx> replicas;

    // Shard-registry handles + delta baselines, worker-thread only.
    counter* m_rejected = nullptr;    // ilp.rx.rejected (replica auth failures)
    counter* m_no_replica = nullptr;  // data raced ahead of its key update
    counter* m_hits = nullptr;
    counter* m_misses = nullptr;
    counter* m_inserts = nullptr;
    counter* m_evictions = nullptr;
    counter* m_invalidations = nullptr;
    counter* m_expired = nullptr;  // sn.cache.expired (TTL lapses)
    counter* m_spill_drops = nullptr;  // sn.shard.egress_spill_drops
    cache_stats last_cache{};

    // Cross-thread accounting for wait_idle: pushed is written by the
    // control thread, the rest by the worker (release), read by control
    // (acquire) — the acquire reads are also the happens-before edges that
    // make post-idle inspection of worker-owned state race-free.
    alignas(64) std::atomic<std::uint64_t> pushed{0};
    alignas(64) std::atomic<std::uint64_t> consumed{0};
    alignas(64) std::atomic<std::uint64_t> inflight{0};
    alignas(64) std::atomic<std::uint64_t> spill{0};
    // Liveness sequence: bumped once per worker-loop iteration; the health
    // tick samples it to tell "stalled with pending work" from "parked
    // idle" (DESIGN.md §13). stall is the fault-injection hook — while
    // set, the loop spins without advancing the heartbeat.
    alignas(64) std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<bool> stall{false};

    std::atomic<bool> stop{false};
    std::atomic<bool> parked{false};
    std::mutex doorbell_mu;
    std::condition_variable doorbell;
    std::thread thread;

    // Worker-loop scratch, reused across iterations.
    std::vector<shard_msg> batch_scratch;
    std::vector<byte_span> mut_body_scratch;
    std::vector<std::optional<ilp::opened_packet>> opened_scratch;
    std::vector<packet_view> view_pkt_scratch;
  };

  slowpath_response handle_slowpath(const slowpath_request& req);
  // Emits a trace_id == 0 node event span (peer-down, failover, rekey) the
  // collector time-correlates with traces crossing this node. No-op with
  // path tracing disabled.
  void emit_node_event(std::uint16_t annotations, std::uint64_t correlate);
  void schedule_observe_tick(nanoseconds interval, std::shared_ptr<observe_sink> sink,
                             std::uint64_t remaining);
  void schedule_stats_tick(nanoseconds interval,
                           std::shared_ptr<std::function<void(const std::string&)>> sink,
                           std::uint64_t remaining);
  void schedule_liveness_tick();
  void schedule_checkpoint_tick(nanoseconds interval,
                                std::shared_ptr<std::function<void(bytes)>> sink,
                                std::uint64_t remaining);
  void schedule_health_tick(std::uint64_t remaining);
  void health_tick();
  // Point-in-time saturation/loss gauges (ring depths, slow-path lag,
  // tracer drop accounting) refreshed before any snapshot leaves the node.
  void refresh_health_gauges();

  // Parallel-mode plumbing.
  void start_workers();
  void worker_main(std::size_t shard);
  std::size_t worker_drain_aux(worker_shard& sh);  // bus + egress spill (backpressure-safe)
  void worker_flush_telemetry(worker_shard& sh);
  void wake_shard(std::size_t shard);
  void steer_views(std::span<std::pair<peer_id, buf::pkt_view>> datagrams);
  void steer_data_run_views(peer_id from, std::span<std::pair<peer_id, buf::pkt_view>> run);
  void push_rx_update(peer_id peer, const ilp::pipe& p);
  std::size_t drain_egress();

  sn_config config_;
  const clock& clock_;
  send_datagram_fn send_datagram_;
  scheduler_fn scheduler_;
  const router* router_;

  decision_cache cache_;
  metrics_registry metrics_;
  trace::tracer tracer_;
  trace::path_recorder path_rec_;
  trace::trace_collector collector_;
  stats_reporter stats_reporter_;
  bool stats_running_ = false;
  bool have_snapshot_ = false;
  bool liveness_running_ = false;
  bool checkpoint_running_ = false;
  bool observe_running_ = false;
  bool health_running_ = false;
  std::uint64_t slowpath_expired_ = 0;
  counter* m_slowpath_expired_ = nullptr;
  counter* m_checkpoint_taken_ = nullptr;
  counter* m_checkpoint_bytes_ = nullptr;
  time_point last_snapshot_{};
  std::unique_ptr<exec_env> env_;
  std::unique_ptr<inline_channel> channel_;
  std::unique_ptr<pipe_terminus> terminus_;
  ilp::pipe_manager pipes_;
  // Slabs for on_datagram's copy: one for the packet being handled on this
  // thread plus, per shard, a full ingress ring and the batch its worker
  // holds, so a full ring stays the only way steering drops a packet.
  // Declared before shards_, whose rings may still hold views when the SN
  // is destroyed.
  buf::buf_pool ingress_pool_;

  // Multi-core datapath state (unset when config_.workers == 0; none of it
  // is touched on the inline path).
  std::unique_ptr<flow_steerer> steerer_;
  std::unique_ptr<cache_invalidation_bus> bus_;
  std::unique_ptr<slowpath_hub> hub_;
  std::vector<std::unique_ptr<worker_shard>> shards_;
  std::vector<counter*> m_steered_;        // sn.steer.pkts{shard=k}
  std::vector<counter*> m_ingress_drops_;  // sn.shard.ingress_drops{shard=k}
  std::atomic<bool> egress_paused_{false};

  // ---- SLO health plane state (ISSUE 7) ----
  flight_recorder blackbox_{flight_recorder::config{}};
  std::unique_ptr<timeseries_store> health_ts_;
  std::unique_ptr<slo::slo_monitor> health_slo_;
  health_config health_cfg_;
  // Per-shard watchdog bookkeeping (control thread only).
  std::vector<std::uint64_t> wd_last_heartbeat_;
  std::vector<std::uint32_t> wd_stalled_ticks_;
  std::vector<bool> wd_flagged_;
  std::uint64_t watchdog_stalls_ = 0;
  std::uint64_t last_shed_total_ = 0;  // shed-watermark trigger edge detector
  std::vector<slo::slo_alert> health_alert_scratch_;

  // Batch-path scratch, reused across calls.
  std::vector<trace::path_span> span_drain_scratch_;
  std::vector<packet_view> view_batch_scratch_;
  std::vector<const_byte_span> span_scratch_;
  std::vector<byte_span> mut_span_scratch_;
  std::vector<ilp::flow_peek> peek_scratch_;
  std::vector<outbound> egress_scratch_;  // drain_egress's popped outbounds
};

// Bridges a module_result into the channel response format. Shared with the
// bench harness, which runs exec_env behind threaded channels.
slowpath_response to_response(std::uint64_t token, module_result result);

}  // namespace interedge::core
