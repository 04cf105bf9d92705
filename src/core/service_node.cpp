#include "core/service_node.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.h"
#include "common/serial.h"
#include "ilp/pipe.h"

namespace interedge::core {
namespace {

constexpr std::size_t kWorkerBatch = 32;

// The ingress pool's slabs: one for the packet on_datagram is handling on
// the control thread plus, per shard, a full ingress ring and the batch
// its worker has popped. The ring holds shard_ring_depth rounded up to a
// power of two (spsc_ring's sizing rule).
buf::pool_config ingress_pool_config(const sn_config& cfg) {
  const std::size_t ring_slots = std::bit_ceil(std::max<std::size_t>(cfg.shard_ring_depth, 1));
  return buf::pool_config{.slab_count = 1 + cfg.workers * (ring_slots + kWorkerBatch)};
}

inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#else
  asm volatile("" ::: "memory");
#endif
}

}  // namespace

slowpath_response to_response(std::uint64_t token, module_result result) {
  slowpath_response resp;
  resp.token = token;
  resp.verdict = result.verdict;
  resp.cache_inserts = result.cache_inserts;
  resp.sends = std::move(result.sends);
  return resp;
}

service_node::worker_shard::worker_shard(std::size_t idx, const sn_config& cfg,
                                         std::size_t cache_cap, const clock* clk)
    : index(idx),
      cache(cache_cap, cfg.cache_hash_seed),
      tracer(reg, trace::tracer::config{.hop = cfg.id, .sample_shift = cfg.trace_sample_shift}),
      path_rec(trace::path_recorder::config{.node = cfg.id,
                                            .sample_shift = cfg.trace_sample_shift,
                                            .capacity = cfg.path_span_capacity,
                                            .clk = clk}),
      ingress(cfg.shard_ring_depth),
      egress(cfg.egress_ring_depth != 0 ? cfg.egress_ring_depth : cfg.shard_ring_depth) {
  m_rejected = &reg.get_counter("ilp.rx.rejected");
  m_no_replica = &reg.get_counter("sn.shard.no_replica");
  m_hits = &reg.get_counter("sn.cache.hits");
  m_misses = &reg.get_counter("sn.cache.misses");
  m_inserts = &reg.get_counter("sn.cache.inserts");
  m_evictions = &reg.get_counter("sn.cache.evictions");
  m_invalidations = &reg.get_counter("sn.cache.invalidations");
  m_expired = &reg.get_counter("sn.cache.expired");
  m_spill_drops = &reg.get_counter("sn.shard.egress_spill_drops");
}

service_node::service_node(sn_config config, const clock& clk, send_datagram_fn send_datagram,
                           scheduler_fn scheduler, const router* route)
    : config_(config),
      clock_(clk),
      send_datagram_(std::move(send_datagram)),
      scheduler_(std::move(scheduler)),
      router_(route),
      cache_(config.cache_capacity, config.cache_hash_seed),
      tracer_(metrics_,
              trace::tracer::config{.hop = config.id, .sample_shift = config.trace_sample_shift}),
      path_rec_(trace::path_recorder::config{.node = config.id,
                                             .sample_shift = config.trace_sample_shift,
                                             .capacity = config.path_span_capacity,
                                             .clk = &clk}),
      pipes_(
          config.id,
          [this](peer_id to, bytes datagram) { send_datagram_(to, std::move(datagram)); },
          [this](peer_id from, const ilp::ilp_header& header, bytes payload) {
            // Only the sharded steer's peek-failure fallback opens one
            // packet at a time; it reaches the terminus as a batch of one.
            packet_view one{from, header, payload};
            terminus_->handle_batch(std::span(&one, 1));
          }),
      ingress_pool_(ingress_pool_config(config)) {
  env_ = std::make_unique<exec_env>(*this);
  channel_ = std::make_unique<inline_channel>(
      [this](slowpath_request req) { return handle_slowpath(req); });
  terminus_ = std::make_unique<pipe_terminus>(
      cache_, *channel_,
      [this](peer_id to, const ilp::ilp_header& header, const_byte_span payload) {
        // The egress queue keeps the terminus' payload view (which may
        // alias an ingress slab) — no owned copy on the forward path — and
        // seals the whole burst in one multi-key pass at its end.
        pipes_.queue_span(to, header, payload);
      },
      [this] { pipes_.flush(); });
  terminus_->enable_telemetry(metrics_, &tracer_);
  if (config_.path_span_capacity > 0) terminus_->enable_path_tracing(&path_rec_);
  pipes_.set_metrics(metrics_);
  // Liveness transitions become node event spans the collector correlates
  // with in-flight traces (a failover mid-trace shows up annotated, not as
  // a dangling path) — and black-box triggers, so the flight recorder
  // freezes with the pre-fault tail intact.
  pipes_.set_peer_status_hook([this](peer_id peer, bool up) {
    if (!up) {
      emit_node_event(trace::kAnnoPeerDown, peer);
      blackbox_.trigger(kTrigPeerDown, path_rec_.now(), peer);
      // A dead adjacency invalidates every cached forward that names it:
      // otherwise established flows blackhole until LRU eviction while
      // the slow path would happily re-resolve around the failure.
      invalidate_next_hop(peer);
    }
  });
  m_slowpath_expired_ = &metrics_.get_counter("sn.slowpath.expired");
  m_checkpoint_taken_ = &metrics_.get_counter("sn.checkpoint.taken");
  m_checkpoint_bytes_ = &metrics_.get_counter("sn.checkpoint.bytes");
  // TTL'd entries (shed verdicts, degraded-service defaults) age out
  // against the node clock.
  cache_.set_clock(&clock_);
  {
    slowpath_policy pol;
    pol.clk = &clock_;
    pol.deadline = config_.slowpath_deadline;
    pol.high_water = config_.slowpath_high_water;
    pol.shed_ttl = config_.shed_ttl;
    terminus_->set_slowpath_policy(pol);
  }
  if (config_.keepalive_interval.count() > 0) {
    // Node-unique jitter seed: peers of one recovered SN desynchronize.
    // An explicitly configured seed wins (root-seed plumbing).
    pipes_.enable_liveness(clock_, config_.liveness_jitter_seed != 0
                                       ? config_.liveness_jitter_seed
                                       : config_.id * 0x9e3779b97f4a7c15ull + 1);
    liveness_running_ = true;
    schedule_liveness_tick();
  }
  pipes_.set_batch_deliver([this](peer_id from, std::span<ilp::opened_packet> pkts) {
    // Zero-copy dispatch: the terminus consumes views aliasing the opened
    // payloads inside their ingress slabs. Only slow-path detours copy into
    // owned packets; the fast path never duplicates a payload byte.
    view_batch_scratch_.clear();
    view_batch_scratch_.reserve(pkts.size());
    for (ilp::opened_packet& p : pkts) {
      view_batch_scratch_.push_back(packet_view{from, std::move(p.header), p.payload});
    }
    terminus_->handle_batch(std::span<packet_view>(view_batch_scratch_));
  });
  if (config_.workers > 0) start_workers();
}

service_node::~service_node() {
  for (auto& sh : shards_) sh->stop.store(true, std::memory_order_release);
  for (auto& sh : shards_) {
    {
      std::lock_guard lk(sh->doorbell_mu);
      sh->doorbell.notify_one();
    }
    if (sh->thread.joinable()) sh->thread.join();
  }
}

// ---- multi-core datapath (DESIGN.md §9) ------------------------------

void service_node::start_workers() {
  const std::size_t n = config_.workers;
  const std::size_t cache_cap = std::max<std::size_t>(std::size_t{64}, config_.cache_capacity / n);
  const std::size_t spill_max = config_.egress_spill_max;
  steerer_ = std::make_unique<flow_steerer>(config_.cache_hash_seed, n);
  bus_ = std::make_unique<cache_invalidation_bus>(n);
  hub_ = std::make_unique<slowpath_hub>(
      [this](slowpath_request req) { return handle_slowpath(req); }, n, 1024,
      [this](std::size_t s) { wake_shard(s); });
  // Requests that age out while queued in the hub rings expire there (the
  // handler-side check in handle_slowpath covers the inline mode).
  hub_->set_deadline_clock(&clock_);
  hub_->set_expired_counter(m_slowpath_expired_);
  shards_.reserve(n);
  m_steered_.reserve(n);
  m_ingress_drops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<worker_shard>(i, config_, cache_cap, &clock_));
    worker_shard& sh = *shards_[i];
    sh.terminus = std::make_unique<pipe_terminus>(
        sh.cache, hub_->endpoint(i),
        [&sh, spill_max](peer_id to, const ilp::ilp_header& header, const_byte_span payload) {
          // Never block the worker: a momentarily full egress ring spills
          // into the worker-private overflow, drained next iteration. The
          // spill is bounded (sn_config::egress_spill_max): past the cap
          // the forward is dropped and counted BEFORE paying the payload
          // copy — a stalled control thread costs packets (UDP is lossy by
          // contract), not unbounded memory.
          const bool ring_ok = sh.egress_overflow.empty() &&
                               sh.egress.size_approx() < sh.egress.capacity();
          if (!ring_ok && spill_max != 0 && sh.egress_overflow.size() >= spill_max) {
            sh.m_spill_drops->add();
            return;
          }
          outbound o;
          o.to = to;
          o.header = header;
          // The egress ring outlives the batch (and the slab the span may
          // alias), so the deferred send takes an owned copy here — the one
          // copy the sharded forward path still pays (DESIGN.md §12).
          o.payload.assign(payload.begin(), payload.end());
          if (ring_ok) {
            sh.egress.try_push(std::move(o));
          } else {
            sh.egress_overflow.push_back(std::move(o));
            sh.spill.store(sh.egress_overflow.size(), std::memory_order_release);
          }
        });
    sh.terminus->set_token_seed(slowpath_hub::token_seed(i));
    sh.terminus->enable_telemetry(sh.reg, &sh.tracer);
    if (config_.path_span_capacity > 0) sh.terminus->enable_path_tracing(&sh.path_rec);
    sh.cache.set_clock(&clock_);
    {
      slowpath_policy pol;
      pol.clk = &clock_;
      pol.deadline = config_.slowpath_deadline;
      pol.high_water = config_.slowpath_high_water;
      pol.shed_ttl = config_.shed_ttl;
      sh.terminus->set_slowpath_policy(pol);
    }
    // While the shard waits on a full slow-path ring it keeps applying
    // invalidations and flushing egress spill — the control thread's
    // progress (which empties that ring) can depend on both.
    sh.terminus->set_backpressure_hook([this, i] { worker_drain_aux(*shards_[i]); });
    m_steered_.push_back(&metrics_.get_counter("sn.steer.pkts", {{"shard", std::to_string(i)}}));
    m_ingress_drops_.push_back(
        &metrics_.get_counter("sn.shard.ingress_drops", {{"shard", std::to_string(i)}}));
  }
  // Receive-key replicas ride the FIFO ingress rings, so a replica is
  // always installed before any data sealed under those keys reaches the
  // shard (establish() fires the hook before flushing queued sends).
  pipes_.set_rx_keys_hook([this](peer_id peer, const ilp::pipe& p) { push_rx_update(peer, p); });
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
}

void service_node::wake_shard(std::size_t shard) {
  worker_shard& sh = *shards_[shard];
  if (sh.parked.load(std::memory_order_acquire)) {
    std::lock_guard lk(sh.doorbell_mu);
    sh.doorbell.notify_one();
  }
}

void service_node::push_rx_update(peer_id peer, const ilp::pipe& p) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    worker_shard& sh = *shards_[i];
    shard_msg msg;
    msg.from = peer;
    msg.rx_update = std::make_unique<ilp::pipe_rx>(p.rx_replica());
    // Key updates are never dropped: wait out a full ring, servicing the
    // hub and egress meanwhile so the worker can always make progress.
    while (sh.ingress.size_approx() >= sh.ingress.capacity()) {
      wake_shard(i);
      poll();
      spin_pause();
    }
    sh.ingress.try_push(std::move(msg));
    sh.pushed.fetch_add(1, std::memory_order_release);
    wake_shard(i);
  }
}

void service_node::steer_views(std::span<std::pair<peer_id, buf::pkt_view>> datagrams) {
  trace::scoped_tracer st(&tracer_);
  std::size_t i = 0;
  while (i < datagrams.size()) {
    const peer_id from = datagrams[i].first;
    // Maximal same-peer run of data messages; anything else (handshakes,
    // unknown kinds, empties) flushes the run and is handled inline.
    std::size_t j = i;
    while (j < datagrams.size() && datagrams[j].first == from &&
           !datagrams[j].second.empty() &&
           static_cast<ilp::msg_kind>(datagrams[j].second.span()[0]) == ilp::msg_kind::data) {
      ++j;
    }
    if (j > i) {
      steer_data_run_views(from, datagrams.subspan(i, j - i));
      i = j;
      continue;
    }
    // Handshakes / unknown kinds / empties run inline off the slab view;
    // the slab recycles when the caller clears its batch.
    pipes_.on_datagram(from, datagrams[i].second.span());
    ++i;
  }
  poll();
}

void service_node::steer_data_run_views(peer_id from,
                                        std::span<std::pair<peer_id, buf::pkt_view>> run) {
  ilp::pipe* p = pipes_.pipe_for(from);
  if (p == nullptr) {
    // Data before any pipe: the pipe manager counts and logs the drop.
    for (auto& [peer, view] : run) pipes_.on_datagram(peer, view.span());
    return;
  }
  span_scratch_.clear();
  for (auto& [peer, view] : run) {
    span_scratch_.push_back(view.span().subspan(1));
  }
  p->peek_flow_batch(span_scratch_, peek_scratch_);
  for (std::size_t k = 0; k < run.size(); ++k) {
    if (!peek_scratch_[k].ok) {
      // Malformed framing or unknown SPI: the inline open makes — and
      // counts — the reject decision, exactly as the single-threaded path
      // would. (A tampered packet that peeks fine merely mis-steers; the
      // shard's authenticated open still rejects it.)
      pipes_.on_datagram(from, run[k].second.span());
      continue;
    }
    const cache_key key{from, peek_scratch_[k].service, peek_scratch_[k].connection};
    const std::size_t s = steerer_->shard_of(key);
    worker_shard& sh = *shards_[s];
    if (sh.ingress.size_approx() >= sh.ingress.capacity()) {
      // Ring-full backpressure: drop, counted per shard, never silent.
      m_ingress_drops_[s]->add();
      run[k].second.reset();  // drop the slab reference now, not at batch end
      continue;
    }
    // The slab reference itself crosses the ring: the slab stays pinned
    // until the worker finishes the batch and drops the view.
    shard_msg msg;
    msg.from = from;
    msg.view = std::move(run[k].second);
    sh.ingress.try_push(std::move(msg));
    sh.pushed.fetch_add(1, std::memory_order_release);
    m_steered_[s]->add();
    wake_shard(s);
  }
}

std::size_t service_node::drain_egress() {
  if (egress_paused_.load(std::memory_order_acquire)) return 0;
  std::size_t n = 0;
  for (auto& shp : shards_) {
    worker_shard& sh = *shp;
    // Up to kWorkerBatch outbounds at a time: they stay alive in the
    // reused vector while the egress queue holds views of their payloads,
    // and the flush seals them in one multi-key pass.
    egress_scratch_.reserve(kWorkerBatch);
    for (;;) {
      egress_scratch_.clear();
      while (egress_scratch_.size() < kWorkerBatch) {
        auto o = sh.egress.try_pop();
        if (!o) break;
        egress_scratch_.push_back(std::move(*o));
      }
      if (egress_scratch_.empty()) break;
      for (const outbound& o : egress_scratch_) pipes_.queue_span(o.to, o.header, o.payload);
      pipes_.flush();
      n += egress_scratch_.size();
    }
    if (sh.spill.load(std::memory_order_acquire) > 0) wake_shard(sh.index);
  }
  return n;
}

std::size_t service_node::poll() {
  if (shards_.empty()) {
    const std::size_t n = terminus_->pump();
    if (n > 0) terminus_->flush_telemetry();
    return n;
  }
  std::size_t n = hub_->pump();
  n += drain_egress();
  return n;
}

bool service_node::wait_idle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  if (shards_.empty()) {
    for (;;) {
      if (terminus_->pump() > 0) terminus_->flush_telemetry();
      if (!terminus_->busy()) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
    }
  }
  int settled = 0;
  for (;;) {
    poll();
    bool idle = hub_->idle() && bus_->quiesced();
    if (idle) {
      for (auto& shp : shards_) {
        worker_shard& sh = *shp;
        // Read order matters: consumed (acquire) first — its release pairs
        // with everything the worker published before it, so the inflight /
        // spill / ring reads that follow cannot miss derived work.
        if (sh.consumed.load(std::memory_order_acquire) !=
                sh.pushed.load(std::memory_order_acquire) ||
            sh.inflight.load(std::memory_order_acquire) != 0 ||
            sh.spill.load(std::memory_order_acquire) != 0 || !sh.ingress.empty() ||
            !sh.egress.empty()) {
          idle = false;
          break;
        }
      }
    }
    if (idle) {
      // Two consecutive clean sweeps guard the remaining in-transition
      // windows (e.g. a worker between popping a response and publishing).
      if (++settled >= 2) return true;
    } else {
      settled = 0;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
}

std::size_t service_node::worker_drain_aux(worker_shard& sh) {
  std::size_t n = bus_ ? bus_->drain(sh.index, sh.cache) : 0;
  while (!sh.egress_overflow.empty() && sh.egress.size_approx() < sh.egress.capacity()) {
    sh.egress.try_push(std::move(sh.egress_overflow.front()));
    sh.egress_overflow.pop_front();
    ++n;
  }
  sh.spill.store(sh.egress_overflow.size(), std::memory_order_release);
  return n;
}

void service_node::worker_flush_telemetry(worker_shard& sh) {
  // Verdicts the loop's bare pump() applied since the last handle_batch
  // (slow-path completions) carry their own stats movement.
  sh.terminus->flush_telemetry();
  const cache_stats& cs = sh.cache.stats();
  if (cs.hits != sh.last_cache.hits) sh.m_hits->add(cs.hits - sh.last_cache.hits);
  if (cs.misses != sh.last_cache.misses) sh.m_misses->add(cs.misses - sh.last_cache.misses);
  if (cs.inserts != sh.last_cache.inserts) sh.m_inserts->add(cs.inserts - sh.last_cache.inserts);
  if (cs.evictions != sh.last_cache.evictions) {
    sh.m_evictions->add(cs.evictions - sh.last_cache.evictions);
  }
  if (cs.invalidations != sh.last_cache.invalidations) {
    sh.m_invalidations->add(cs.invalidations - sh.last_cache.invalidations);
  }
  if (cs.expired != sh.last_cache.expired) sh.m_expired->add(cs.expired - sh.last_cache.expired);
  sh.last_cache = cs;
}

void service_node::worker_main(std::size_t shard) {
  worker_shard& sh = *shards_[shard];
  trace::scoped_tracer st(&sh.tracer);
  std::uint32_t idle_spins = 0;
  while (!sh.stop.load(std::memory_order_acquire)) {
    // Fault-injection stall: spin without advancing the heartbeat or
    // consuming work — the live-lock shape the watchdog detects.
    if (sh.stall.load(std::memory_order_acquire)) {
      spin_pause();
      continue;
    }
    sh.heartbeat.fetch_add(1, std::memory_order_relaxed);
    bool busy = worker_drain_aux(sh) > 0;

    sh.batch_scratch.clear();
    const std::size_t n = sh.ingress.try_pop_batch(sh.batch_scratch, kWorkerBatch);
    if (n > 0) {
      busy = true;
      auto& batch = sh.batch_scratch;
      std::size_t i = 0;
      while (i < batch.size()) {
        shard_msg& m = batch[i];
        if (m.rx_update) {
          sh.replicas.insert_or_assign(m.from, std::move(*m.rx_update));
          ++i;
          continue;
        }
        // Same-peer run (no interleaved key update): one batched decrypt in
        // place inside the slabs, one terminus batch of packet_views
        // aliasing them.
        const peer_id from = m.from;
        std::size_t j = i;
        sh.mut_body_scratch.clear();
        while (j < batch.size() && batch[j].from == from && !batch[j].rx_update) {
          sh.mut_body_scratch.push_back(batch[j].view.mutable_span().subspan(1));
          ++j;
        }
        const std::size_t run_len = j - i;
        auto rit = sh.replicas.find(from);
        if (rit == sh.replicas.end()) {
          // Cannot happen via the steering path (the replica rides the
          // same FIFO ring, ahead of the data) — counted, not asserted.
          sh.m_no_replica->add(run_len);
          i = j;
          continue;
        }
        const std::size_t opened =
            rit->second.decrypt_batch_mut(sh.mut_body_scratch, sh.opened_scratch);
        if (opened < run_len) {
          sh.m_rejected->add(run_len - opened);
        }
        sh.view_pkt_scratch.clear();
        for (auto& op : sh.opened_scratch) {
          if (op) {
            sh.view_pkt_scratch.push_back(packet_view{from, std::move(op->header), op->payload});
          }
        }
        if (!sh.view_pkt_scratch.empty()) {
          sh.terminus->handle_batch(std::span<packet_view>(sh.view_pkt_scratch));
        }
        i = j;
      }
      // Drop the batch now (not at the top of the next iteration) so any
      // slab references it pinned recycle immediately.
      batch.clear();
    }

    if (sh.terminus->pump() > 0) busy = true;
    worker_drain_aux(sh);
    worker_flush_telemetry(sh);
    // inflight before consumed: wait_idle's consumed acquire then sees the
    // in-flight count covering everything this iteration submitted.
    sh.inflight.store(sh.terminus->in_flight(), std::memory_order_release);
    if (n > 0) sh.consumed.fetch_add(n, std::memory_order_release);

    if (busy) {
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < 1024) {
      spin_pause();
      continue;
    }
    std::unique_lock lk(sh.doorbell_mu);
    sh.parked.store(true, std::memory_order_release);
    sh.doorbell.wait_for(lk, std::chrono::milliseconds(1), [&] {
      return sh.stop.load(std::memory_order_acquire) || !sh.ingress.empty();
    });
    sh.parked.store(false, std::memory_order_release);
    idle_spins = 0;
  }
}

void service_node::invalidate_connection(ilp::service_id service, ilp::connection_id conn) {
  if (shards_.empty()) {
    cache_.erase_connection(service, conn);
    return;
  }
  bus_->publish(cache_command{cache_op::erase_connection, service, conn, 0});
  for (std::size_t i = 0; i < shards_.size(); ++i) wake_shard(i);
}

void service_node::invalidate_service(ilp::service_id service) {
  if (shards_.empty()) {
    cache_.erase_service(service);
    return;
  }
  bus_->publish(cache_command{cache_op::erase_service, service, 0, 0});
  for (std::size_t i = 0; i < shards_.size(); ++i) wake_shard(i);
}

void service_node::invalidate_next_hop(peer_id hop) {
  if (shards_.empty()) {
    cache_.erase_forwards_to(hop);
    return;
  }
  bus_->publish(cache_command{cache_op::erase_next_hop, 0, 0, hop});
  for (std::size_t i = 0; i < shards_.size(); ++i) wake_shard(i);
}

const cache_stats& service_node::shard_cache_stats(std::size_t shard) const {
  return shards_[shard]->cache.stats();
}

const terminus_stats& service_node::shard_terminus_stats(std::size_t shard) const {
  return shards_[shard]->terminus->stats();
}

decision_cache& service_node::shard_cache(std::size_t shard) { return shards_[shard]->cache; }

metrics_registry& service_node::shard_metrics(std::size_t shard) { return shards_[shard]->reg; }

// ---- ingress entry points --------------------------------------------

void service_node::on_datagram_views(std::span<std::pair<peer_id, buf::pkt_view>> datagrams) {
  if (!shards_.empty()) {
    steer_views(datagrams);
    return;
  }
  trace::scoped_tracer st(&tracer_);
  // Same-peer runs through the mutable batched path: data messages are
  // decrypted in place inside their slabs, so the whole inline fast path
  // (decrypt → terminus → forward) runs without copying a payload.
  std::size_t i = 0;
  while (i < datagrams.size()) {
    const peer_id from = datagrams[i].first;
    std::size_t j = i;
    mut_span_scratch_.clear();
    while (j < datagrams.size() && datagrams[j].first == from) {
      mut_span_scratch_.push_back(datagrams[j].second.mutable_span());
      ++j;
    }
    pipes_.on_datagram_batch_mut(from, mut_span_scratch_);
    i = j;
  }
}

void service_node::on_datagram(peer_id from, const_byte_span datagram) {
  if (datagram.size() > ingress_pool_.slab_size()) {
    // Where a truncated socket read ends up too.
    metrics_.get_counter("ilp.rx.rejected").add();
    IE_LOG(warn) << "service_node" << kv("node", config_.id) << kv("peer", from)
                 << kv("drop", "oversize") << kv("bytes", datagram.size());
    return;
  }
  buf::slab_ref slab = ingress_pool_.try_alloc();
  if (!slab) {
    // Counted by the pool (exhausted); sized so that this does not happen.
    IE_LOG(warn) << "service_node" << kv("node", config_.id) << kv("peer", from)
                 << kv("drop", "ingress-pool-empty");
    return;
  }
  std::copy(datagram.begin(), datagram.end(), slab.data());
  std::pair<peer_id, buf::pkt_view> one{from, buf::pkt_view(std::move(slab), 0, datagram.size())};
  on_datagram_views(std::span(&one, 1));
}

// ---- node services / stats -------------------------------------------

void service_node::send(peer_id to, const ilp::ilp_header& header, bytes payload) {
  pipes_.send(to, header, std::move(payload));
}

void service_node::schedule(nanoseconds delay, std::function<void()> fn) {
  scheduler_(delay, std::move(fn));
}

std::optional<peer_id> service_node::next_hop(edge_addr dest) const {
  if (!router_) return std::nullopt;
  return router_->next_hop(dest);
}

void service_node::merge_metrics_into(metrics_registry& out) const {
  out.merge_from(metrics_);
  for (const auto& sh : shards_) out.merge_from(sh->reg);
}

std::string service_node::stats_snapshot() {
  const time_point now = clock_.now();
  double elapsed = 0;
  if (have_snapshot_) {
    elapsed = static_cast<double>((now - last_snapshot_).count()) / 1e9;
  }
  last_snapshot_ = now;
  have_snapshot_ = true;
  if (shards_.empty()) return stats_reporter_.delta_report(metrics_, elapsed);
  // Merge control + shard registries into a fresh view; the reporter keys
  // deltas on metric identity, so the temporary registry is fine.
  metrics_registry merged;
  merge_metrics_into(merged);
  return stats_reporter_.delta_report(merged, elapsed);
}

std::string service_node::export_prometheus() {
  if (shards_.empty()) return metrics_.export_prometheus();
  metrics_registry merged;
  merge_metrics_into(merged);
  return merged.export_prometheus();
}

void service_node::start_stats_reporting(nanoseconds interval,
                                         std::function<void(const std::string&)> sink,
                                         std::uint64_t max_reports) {
  stats_running_ = true;
  schedule_stats_tick(
      interval, std::make_shared<std::function<void(const std::string&)>>(std::move(sink)),
      max_reports);
}

void service_node::schedule_stats_tick(
    nanoseconds interval, std::shared_ptr<std::function<void(const std::string&)>> sink,
    std::uint64_t remaining) {
  scheduler_(interval, [this, interval, sink, remaining] {
    if (!stats_running_) return;
    (*sink)(stats_snapshot());
    if (remaining == 1) {
      stats_running_ = false;
      return;
    }
    schedule_stats_tick(interval, sink, remaining == 0 ? 0 : remaining - 1);
  });
}

slowpath_response service_node::handle_slowpath(const slowpath_request& req) {
  // Deadline gate: a request that aged past its budget (e.g. behind a
  // slow module) is dropped rather than dispatched — its sender has long
  // since shed or moved on, and stale verdicts must not be installed.
  if (req.deadline_ns != 0 &&
      static_cast<std::uint64_t>(clock_.now().time_since_epoch().count()) > req.deadline_ns) {
    ++slowpath_expired_;
    m_slowpath_expired_->add();
    IE_LOG(debug) << "service_node" << kv("node", config_.id) << kv("drop", "deadline-expired");
    slowpath_response resp = to_response(req.token, module_result::drop());
    resp.annotations |= trace::kAnnoDeadlineExpired;
    return resp;
  }
  const packet& pkt = *req.pkt;
  // Service-dispatch span for traced packets: the time a module spent on
  // this request, distinct from the hop_slow span (which also covers ring
  // queueing). Parented on the upstream span — the hop_slow span id is not
  // allocated until the terminus completes the response.
  std::uint64_t svc_start = 0;
  trace::trace_context tc{};
  if (config_.path_span_capacity > 0) {
    if (auto t = pkt.header.trace_ctx(); t && t->sampled()) {
      tc = *t;
      svc_start = path_rec_.now();
    }
  }
  slowpath_response resp = to_response(req.token, env_->dispatch(pkt));
  if (svc_start != 0) {
    path_rec_.emit(trace::path_span{
        .trace_id = tc.trace_id,
        .span_id = path_rec_.next_span_id(),
        .parent_span = tc.parent_span,
        .node = config_.id,
        .connection = pkt.header.connection,
        .service = pkt.header.service,
        .hop_count = tc.hop_count,
        .kind = trace::span_kind::service,
        .verdict = resp.verdict.kind == decision::verdict::forward    ? trace::kVerdictForward
                   : resp.verdict.kind == decision::verdict::drop     ? trace::kVerdictDrop
                                                                      : trace::kVerdictDeliver,
        .annotations = resp.annotations,
        .start_ns = svc_start,
        .duration_ns = path_rec_.now() - svc_start,
    });
  }
  return resp;
}

void service_node::emit_node_event(std::uint16_t annotations, std::uint64_t correlate) {
  blackbox_.record(fr_event{.time_ns = path_rec_.now(),
                            .kind = fr_kind::lifecycle,
                            .code = annotations,
                            .a = correlate});
  if (config_.path_span_capacity == 0) return;
  const std::uint64_t now = path_rec_.now();
  path_rec_.emit(trace::path_span{
      .trace_id = 0,  // node event: correlated by time, not trace id
      .span_id = path_rec_.next_span_id(),
      .parent_span = 0,
      .node = config_.id,
      .connection = correlate,
      .service = 0,
      .hop_count = 0,
      .kind = trace::span_kind::event,
      .verdict = trace::kVerdictNone,
      .annotations = annotations,
      .start_ns = now,
      .duration_ns = 0,
  });
}

std::size_t service_node::drain_path_spans(std::vector<trace::path_span>& out) {
  const std::size_t base = out.size();
  std::size_t total = 0;
  for (std::size_t n = path_rec_.drain(out); n > 0; n = path_rec_.drain(out)) total += n;
  for (auto& sh : shards_) {
    for (std::size_t n = sh->path_rec.drain(out); n > 0; n = sh->path_rec.drain(out)) total += n;
  }
  // The drain doubles as the black box's feed: every span passing through
  // the control thread lands in the ring, so a freeze dumps the recent
  // traced traffic alongside the lifecycle events (recorded at emission —
  // trace_id == 0 spans are skipped here to avoid double entry).
  if (!blackbox_.frozen()) {
    for (std::size_t k = base; k < out.size(); ++k) {
      const trace::path_span& s = out[k];
      if (s.trace_id == 0) continue;
      blackbox_.record(fr_event{
          .time_ns = s.start_ns,
          .kind = fr_kind::span,
          .code = (static_cast<std::uint32_t>(s.annotations) << 8) |
                  static_cast<std::uint8_t>(s.verdict),
          .a = s.trace_id,
          .b = s.service,
          .c = s.duration_ns,
      });
    }
  }
  return total;
}

std::string service_node::export_trace_json(std::size_t limit) {
  span_drain_scratch_.clear();
  drain_path_spans(span_drain_scratch_);
  collector_.ingest(std::span<const trace::path_span>(span_drain_scratch_));
  return collector_.export_json(limit);
}

void service_node::start_observability_push(nanoseconds interval, observe_sink sink,
                                            std::uint64_t max_pushes) {
  observe_running_ = true;
  schedule_observe_tick(interval, std::make_shared<observe_sink>(std::move(sink)), max_pushes);
}

void service_node::schedule_observe_tick(nanoseconds interval, std::shared_ptr<observe_sink> sink,
                                         std::uint64_t remaining) {
  scheduler_(interval, [this, interval, sink, remaining] {
    if (!observe_running_) return;
    // Saturation/loss gauges refresh before the merge so every pushed
    // snapshot carries current ring depths and trace-drop accounting.
    refresh_health_gauges();
    metrics_registry merged;
    merge_metrics_into(merged);
    span_drain_scratch_.clear();
    drain_path_spans(span_drain_scratch_);
    const std::span<const trace::path_span> spans(span_drain_scratch_);
    collector_.ingest(spans);  // the local dump stays current too
    (*sink)(merged, spans);
    if (remaining == 1) {
      observe_running_ = false;
      return;
    }
    schedule_observe_tick(interval, sink, remaining == 0 ? 0 : remaining - 1);
  });
}

// ---- fault-tolerant lifecycle (DESIGN.md §10) -------------------------

void service_node::schedule_liveness_tick() {
  scheduler_(config_.keepalive_interval, [this] {
    if (!liveness_running_) return;
    pipes_.liveness_tick();
    poll();
    schedule_liveness_tick();
  });
}

void service_node::set_shed_verdict(ilp::service_id service, const decision& d) {
  terminus_->set_shed_verdict(service, d);
  for (auto& sh : shards_) sh->terminus->set_shed_verdict(service, d);
}

bytes service_node::checkpoint_full() {
  writer w;
  w.u8(1);  // full-checkpoint format version
  w.blob(env_->checkpoint());
  w.blob(cache_.snapshot(clock_.now()));
  return w.take();
}

void service_node::restore_full(const_byte_span snapshot) {
  reader r(snapshot);
  const std::uint8_t version = r.u8();
  if (version != 1) throw serial_error("service_node checkpoint: unknown version");
  env_->restore(r.blob());
  cache_.restore_warm(r.blob(), clock_.now());
  // A standby restoring a peer's state is a takeover: traces that cross
  // this node around now get the failover annotation folded in, and the
  // black box freezes with whatever led up to the handoff.
  emit_node_event(trace::kAnnoFailover, config_.id);
  blackbox_.trigger(kTrigFailover, path_rec_.now(), config_.id);
}

void service_node::start_checkpointing(nanoseconds interval, std::function<void(bytes)> sink,
                                       std::uint64_t max_checkpoints) {
  checkpoint_running_ = true;
  schedule_checkpoint_tick(
      interval, std::make_shared<std::function<void(bytes)>>(std::move(sink)), max_checkpoints);
}

void service_node::schedule_checkpoint_tick(nanoseconds interval,
                                            std::shared_ptr<std::function<void(bytes)>> sink,
                                            std::uint64_t remaining) {
  scheduler_(interval, [this, interval, sink, remaining] {
    if (!checkpoint_running_) return;
    bytes snap = checkpoint_full();
    m_checkpoint_taken_->add();
    m_checkpoint_bytes_->add(snap.size());
    (*sink)(std::move(snap));
    if (remaining == 1) {
      checkpoint_running_ = false;
      return;
    }
    schedule_checkpoint_tick(interval, sink, remaining == 0 ? 0 : remaining - 1);
  });
}

// ---- SLO health plane (ISSUE 7, DESIGN.md §13) ------------------------

void service_node::start_health_plane(health_config cfg, std::uint64_t max_ticks) {
  health_cfg_ = std::move(cfg);
  health_ts_ = std::make_unique<timeseries_store>(health_cfg_.series);
  health_slo_ = std::make_unique<slo::slo_monitor>(*health_ts_, health_cfg_.windows);
  for (const slo::slo_target& t : health_cfg_.targets) health_slo_->add_target(t);
  // Watchdog bookkeeping persists across plane restarts: a shard flagged
  // stalled before a restart must still un-flag (and clear its gauge) when
  // it recovers under the new plane.
  if (wd_last_heartbeat_.size() != shards_.size()) {
    wd_last_heartbeat_.assign(shards_.size(), 0);
    wd_stalled_ticks_.assign(shards_.size(), 0);
    wd_flagged_.assign(shards_.size(), false);
  }
  if (health_cfg_.blackbox_sink) {
    // The freeze hook runs on whichever thread fired the trigger; both the
    // dump and the sink must therefore be safe off the control thread
    // (dump_json reads the ring via the seqlock protocol — it is).
    blackbox_.set_freeze_hook([this](std::uint32_t) {
      // Re-read the sink at fire time: a later start_health_plane may have
      // replaced the config (possibly with no sink) while this hook stays.
      if (health_cfg_.blackbox_sink) health_cfg_.blackbox_sink(dump_blackbox_json());
    });
  }
  health_running_ = true;
  schedule_health_tick(max_ticks);
}

void service_node::schedule_health_tick(std::uint64_t remaining) {
  scheduler_(health_cfg_.interval, [this, remaining] {
    if (!health_running_) return;
    health_tick();
    if (remaining == 1) {
      health_running_ = false;
      return;
    }
    schedule_health_tick(remaining == 0 ? 0 : remaining - 1);
  });
}

void service_node::refresh_health_gauges() {
  std::uint64_t trace_dropped = tracer_.dropped_records();
  std::uint64_t spans_dropped = path_rec_.dropped();
  std::uint64_t in_flight = terminus_->in_flight();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    worker_shard& sh = *shards_[i];
    const label_list shard_label{{"shard", std::to_string(i)}};
    metrics_.get_gauge("sn.shard.ingress_depth", shard_label)
        .set(static_cast<std::int64_t>(sh.ingress.size_approx()));
    // Egress depth counts the spill too: a deep overflow deque is exactly
    // the slow-drain signal this gauge exists to surface.
    metrics_.get_gauge("sn.shard.egress_depth", shard_label)
        .set(static_cast<std::int64_t>(sh.egress.size_approx() +
                                       sh.spill.load(std::memory_order_acquire)));
    // Spill saturation in percent of the drop threshold: 100 means the
    // next deferred forward that misses the ring is dropped (the alertable
    // precursor to sn.shard.egress_spill_drops moving).
    if (config_.egress_spill_max != 0) {
      metrics_.get_gauge("sn.shard.egress_spill_saturation", shard_label)
          .set(static_cast<std::int64_t>(100 * sh.spill.load(std::memory_order_acquire) /
                                         config_.egress_spill_max));
    }
    in_flight += sh.inflight.load(std::memory_order_acquire);
    trace_dropped += sh.tracer.dropped_records();
    spans_dropped += sh.path_rec.dropped();
  }
  metrics_.get_gauge("sn.slowpath.in_flight_total").set(static_cast<std::int64_t>(in_flight));
  metrics_.get_gauge("sn.trace.dropped_records").set(static_cast<std::int64_t>(trace_dropped));
  metrics_.get_gauge("sn.path.spans_dropped").set(static_cast<std::int64_t>(spans_dropped));
}

void service_node::health_tick() {
  const time_point now = clock_.now();
  const std::uint64_t now_ns = static_cast<std::uint64_t>(now.time_since_epoch().count());

  // Watchdog: a shard with pending work whose heartbeat has not moved for
  // `watchdog_grace` consecutive ticks is stalled (a parked-idle shard has
  // no pending work, so it never false-positives).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    worker_shard& sh = *shards_[i];
    const std::uint64_t hb = sh.heartbeat.load(std::memory_order_acquire);
    const bool pending = sh.consumed.load(std::memory_order_acquire) !=
                             sh.pushed.load(std::memory_order_acquire) ||
                         !sh.ingress.empty();
    const label_list shard_label{{"shard", std::to_string(i)}};
    if (pending && hb == wd_last_heartbeat_[i]) {
      if (++wd_stalled_ticks_[i] >= health_cfg_.watchdog_grace && !wd_flagged_[i]) {
        wd_flagged_[i] = true;
        ++watchdog_stalls_;
        metrics_.get_counter("sn.watchdog.stall_events", shard_label).add();
        metrics_.get_gauge("sn.shard.stalled", shard_label).set(1);
        IE_LOG(warn) << "service_node" << kv("node", config_.id) << kv("stalled_shard", i)
                     << kv("heartbeat", hb);
        blackbox_.record(fr_event{.time_ns = now_ns, .kind = fr_kind::watchdog, .a = i, .b = hb});
        blackbox_.trigger(kTrigWatchdog, now_ns, i, hb);
      }
    } else {
      wd_stalled_ticks_[i] = 0;
      if (wd_flagged_[i]) {
        wd_flagged_[i] = false;
        metrics_.get_gauge("sn.shard.stalled", shard_label).set(0);
      }
    }
    wd_last_heartbeat_[i] = hb;
  }

  refresh_health_gauges();

  // Merged cumulative snapshot into the sliding-window ring; the SLO pass
  // reads the windows the tick just updated.
  metrics_registry merged;
  merge_metrics_into(merged);
  health_ts_->tick(merged, now);

  health_alert_scratch_.clear();
  health_slo_->evaluate(now, &health_alert_scratch_);
  for (const slo::slo_alert& a : health_alert_scratch_) {
    blackbox_.record(fr_event{.time_ns = a.at_ns,
                              .kind = fr_kind::alert,
                              .code = static_cast<std::uint32_t>(a.state),
                              .a = static_cast<std::uint64_t>(a.prev),
                              .b = static_cast<std::uint64_t>(a.burn_fast * 1000.0)});
    if (a.state == slo::slo_state::page) blackbox_.trigger(kTrigSloPage, a.at_ns);
    if (health_cfg_.alert_sink) health_cfg_.alert_sink(a);
  }
  health_slo_->expose(metrics_);

  // Shed-watermark trigger: shed verdicts applied since the last tick
  // freeze the box with the overload's lead-up in the ring.
  for (const metric_sample& s : merged.samples()) {
    if (s.key == "sn.slowpath.shed") {
      const auto shed_total = static_cast<std::uint64_t>(s.value);
      if (shed_total > last_shed_total_) {
        blackbox_.trigger(kTrigShed, now_ns, shed_total - last_shed_total_);
        last_shed_total_ = shed_total;
      }
      break;
    }
  }
}

void service_node::inject_worker_stall(std::size_t shard, bool on) {
  if (shard >= shards_.size()) return;
  shards_[shard]->stall.store(on, std::memory_order_release);
  wake_shard(shard);
}

}  // namespace interedge::core
