#include "core/pipe_terminus.h"

#include <stdexcept>

#include "common/logging.h"

namespace interedge::core {

namespace {

char verdict_char(decision::verdict v) {
  switch (v) {
    case decision::verdict::forward: return trace::kVerdictForward;
    case decision::verdict::deliver_local: return trace::kVerdictDeliver;
    case decision::verdict::drop: return trace::kVerdictDrop;
  }
  return trace::kVerdictNone;
}

}  // namespace

pipe_terminus::pipe_terminus(decision_cache& cache, slowpath_channel& channel, forward_fn forward,
                             burst_end_fn burst_end)
    : cache_(cache),
      channel_(channel),
      forward_(std::move(forward)),
      burst_end_(std::move(burst_end)) {}

void pipe_terminus::enable_telemetry(metrics_registry& reg, trace::tracer* tracer) {
  reg_ = &reg;
  tracer_ = tracer;
  m_fast_ = &reg.get_counter("sn.fastpath.pkts");
  m_slow_ = &reg.get_counter("sn.slowpath.pkts");
  m_forwarded_ = &reg.get_counter("sn.tx.forwarded");
  m_delivered_ = &reg.get_counter("sn.rx.delivered");
  m_dropped_ = &reg.get_counter("sn.drop.pkts");
  m_backpressure_ = &reg.get_counter("sn.slowpath.backpressure");
  m_shed_ = &reg.get_counter("sn.slowpath.shed");
  m_inflight_ = &reg.get_gauge("sn.slowpath.in_flight");
}

counter& pipe_terminus::service_rx_counter(ilp::service_id service) {
  const std::size_t slot = service < kServiceSlots ? service : 0;
  counter*& c = rx_by_service_[slot];
  if (c == nullptr) {
    c = &reg_->get_counter("sn.rx.pkts", {{"service", ilp::svc::name(service)}});
  }
  return *c;
}

void pipe_terminus::flush_telemetry() {
  if (reg_ == nullptr) return;
  // Watermark deltas rather than a caller-captured `before`: verdicts a
  // bare pump() applies between handle_batch() calls land above the
  // watermark and get picked up by whichever flush runs next.
  m_fast_->add(stats_.fast_path - flushed_.fast_path);
  m_slow_->add(stats_.slow_path - flushed_.slow_path);
  m_forwarded_->add(stats_.forwarded - flushed_.forwarded);
  m_delivered_->add(stats_.delivered - flushed_.delivered);
  m_dropped_->add(stats_.dropped - flushed_.dropped);
  m_backpressure_->add(stats_.backpressure - flushed_.backpressure);
  m_shed_->add(stats_.shed - flushed_.shed);
  m_inflight_->set(static_cast<std::int64_t>(in_flight_));
  flushed_ = stats_;
}

void pipe_terminus::shed_packet(peer_id l3_src, const ilp::ilp_header& header,
                                const_byte_span payload, bool sampled) {
  decision d = decision::drop_packet();  // fail closed unless policy says pass
  auto it = shed_verdicts_.find(header.service);
  if (it != shed_verdicts_.end()) d = it->second;
  d.ttl = policy_.shed_ttl;
  // The TTL'd entry absorbs the rest of the burst on the fast path; when
  // it expires the flow falls back to the (hopefully recovered) slow path.
  cache_.insert(cache_key{l3_src, header.service, header.connection}, d);
  ++stats_.shed;
  IE_LOG(debug) << "terminus" << kv("shed", ilp::svc::name(header.service))
                << kv("conn", header.connection)
                << kv("in_flight", in_flight_);
  apply_or_trace(d, header, payload, sampled, trace::kAnnoShed);
}

void pipe_terminus::apply_or_trace(const decision& d, const ilp::ilp_header& header,
                                   const_byte_span payload, bool sampled, std::uint16_t anno) {
  if (auto tc = sampled_ctx(header)) {
    apply_with_path(d, header, payload, *tc, anno, trace::span_kind::hop_fast,
                    path_rec_->now(), path_rec_->next_span_id());
    return;
  }
  apply_traced(d, header, payload, sampled);
}

void pipe_terminus::apply_with_path(const decision& d, const ilp::ilp_header& header,
                                    const_byte_span payload, const trace::trace_context& tc,
                                    std::uint16_t anno, trace::span_kind kind,
                                    std::uint64_t start_ns, std::uint64_t span_id) {
  if (d.kind == decision::verdict::forward) {
    // Forwarded copies carry the context on: next hop's spans parent to
    // this hop's span, one level deeper on the path.
    ilp::ilp_header fwd = header;
    trace::trace_context next = tc;
    next.hop_count = static_cast<std::uint8_t>(tc.hop_count + 1);
    next.parent_span = span_id;
    fwd.set_trace(next);
    for (peer_id hop : d.next_hops) {
      const std::uint64_t fstart = path_rec_->now();
      forward_(hop, fwd, payload);
      ++stats_.forwarded;
      path_rec_->emit(trace::path_span{
          .trace_id = tc.trace_id,
          .span_id = path_rec_->next_span_id(),
          .parent_span = span_id,
          .node = path_rec_->node(),
          .connection = header.connection,
          .service = header.service,
          .hop_count = tc.hop_count,
          .kind = trace::span_kind::forward,
          .verdict = trace::kVerdictForward,
          .annotations = 0,
          .start_ns = fstart,
          .duration_ns = path_rec_->now() - fstart,
      });
    }
  } else {
    apply(d, header, payload);
  }
  if (d.kind == decision::verdict::drop) anno |= trace::kAnnoDrop;
  path_rec_->emit(trace::path_span{
      .trace_id = tc.trace_id,
      .span_id = span_id,
      .parent_span = tc.parent_span,
      .node = path_rec_->node(),
      .connection = header.connection,
      .service = header.service,
      .hop_count = tc.hop_count,
      .kind = kind,
      .verdict = verdict_char(d.kind),
      .annotations = anno,
      .start_ns = start_ns,
      .duration_ns = path_rec_->now() - start_ns,
  });
}

bool pipe_terminus::submit_bounded(const slowpath_request& req, bool is_control) {
  std::size_t attempts = 0;
  while (!channel_.submit(req)) {
    ++stats_.backpressure;
    if (backpressure_hook_) backpressure_hook_();
    pump();
    if (!is_control && policy_.high_water > 0 && ++attempts >= policy_.submit_retries) {
      return false;
    }
  }
  return true;
}

void pipe_terminus::handle_batch(std::span<packet_view> pkts) {
  trace::span batch_span(trace::stage::ingress);
  // One atomic claims the whole batch's sampler sequence range; per packet
  // the sampling decision is then a mask compare on a register.
  std::uint64_t sample_base = 0;
  if (tracer_ != nullptr) sample_base = tracer_->sample_tick_batch(pkts.size());

  // Same-key run memo: bursts from one flow pay for one cache lookup.
  bool have_memo = false;
  cache_key memo_key{};
  decision memo_decision;
  bool submitted = false;

  // Per-service rx tally: same-service runs (the common case) fold into
  // one handle add at flush.
  ilp::service_id tally_service = 0;
  std::uint64_t tally_count = 0;
  auto tally_rx = [&](ilp::service_id service) {
    if (reg_ == nullptr) return;
    if (tally_count > 0 && service == tally_service) {
      ++tally_count;
      return;
    }
    if (tally_count > 0) service_rx_counter(tally_service).add(tally_count);
    tally_service = service;
    tally_count = 1;
  };

  std::uint64_t pkt_index = 0;
  for (packet_view& pkt : pkts) {
    ++stats_.received;
    tally_rx(pkt.header.service);
    const bool sampled =
        tracer_ != nullptr && tracer_->sample_hit(sample_base + pkt_index);
    ++pkt_index;
    // Control-plane packets always reach the service module: they mutate
    // service state and must not be short-circuited by a stale decision.
    const bool is_control = (pkt.header.flags & ilp::kFlagControl) != 0;
    if (!is_control) {
      const cache_key key{pkt.l3_src, pkt.header.service, pkt.header.connection};
      if (have_memo && key == memo_key) {
        ++stats_.fast_path;
        apply_or_trace(memo_decision, pkt.header, pkt.payload, sampled, 0);
        continue;
      }
      std::uint64_t lookup_start = 0;
      if (sampled) lookup_start = trace::now_ns();
      auto d = cache_.lookup(key);
      if (sampled) {
        const std::uint64_t dur = trace::now_ns() - lookup_start;
        tracer_->record_stage(trace::stage::cache, dur);
        tracer_->capture(trace::stage::cache, lookup_start, dur);
      }
      if (d) {
        ++stats_.fast_path;
        apply_or_trace(*d, pkt.header, pkt.payload, sampled, 0);
        memo_key = key;
        memo_decision = std::move(*d);
        have_memo = true;
        continue;
      }
    }

    if (!is_control && should_shed()) {
      shed_packet(pkt.l3_src, pkt.header, pkt.payload, sampled);
      // The shed verdict just became a cache entry; let same-flow
      // packets later in this batch hit it via the memo.
      memo_key = cache_key{pkt.l3_src, pkt.header.service, pkt.header.connection};
      memo_decision = decision::drop_packet();
      if (auto d = cache_.lookup(memo_key)) memo_decision = std::move(*d);
      have_memo = true;
      continue;
    }

    ++stats_.slow_path;
    // The slot outlives the batch, so the packet detouring there is copied
    // in. Services like caching need the payload; §4 fidelity note in
    // DESIGN.md.
    pending& p = claim_slot();
    p.pkt.l3_src = pkt.l3_src;
    p.pkt.header = std::move(pkt.header);
    p.pkt.payload.assign(pkt.payload.begin(), pkt.payload.end());
    const auto ptc = sampled_ctx(p.pkt.header);
    p.tc = ptc.value_or(trace::trace_context{});
    p.trace_start_ns = ptc ? path_rec_->now() : 0;
    if (!submit_bounded(slowpath_request{p.token, deadline_for_now(), &p.pkt}, is_control)) {
      // Channel stayed full through the retry budget: shed instead of
      // blocking the fast path behind a wedged slow path. The slot's
      // payload must leave before the slot can be re-claimed.
      shed_packet(p.pkt.l3_src, p.pkt.header, p.pkt.payload, sampled);
      end_burst();
      release_slot(p);
      continue;
    }
    submitted = true;
  }

  end_burst();
  // Drain the slow-path channel once per batch, not once per packet.
  if (submitted) {
    trace::span drain_span(trace::stage::slowpath);
    pump();
  }

  if (reg_ != nullptr) {
    if (tally_count > 0) service_rx_counter(tally_service).add(tally_count);
    flush_telemetry();
  }
}

pipe_terminus::pending& pipe_terminus::claim_slot() {
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() > kSlotMask) throw std::length_error("pipe_terminus: slow path full");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  claims_ = (claims_ + 1) & kClaimMask;
  if (claims_ == 0) claims_ = 1;  // a token is never 0, a free slot's mark
  pending& p = slots_[index];
  p.token = token_seed_ | (claims_ << kSlotBits) | index;
  ++in_flight_;
  return p;
}

void pipe_terminus::release_slot(pending& p) {
  free_slots_.push_back(static_cast<std::uint32_t>(p.token & kSlotMask));
  p.token = 0;
  --in_flight_;
}

std::size_t pipe_terminus::pump() {
  std::size_t applied = 0;
  while (auto resp = channel_.poll()) {
    complete(*resp);
    ++applied;
  }
  return applied;
}

void pipe_terminus::complete(slowpath_response& resp) {
  const std::uint64_t index = resp.token & kSlotMask;
  // An unknown token, or one whose slot has completed or moved on.
  if (resp.token == 0 || index >= slots_.size() || slots_[index].token != resp.token) return;
  pending& p = slots_[index];
  p.token = 0;  // from here a duplicate of this response is ignored
  --in_flight_;

  for (const auto& [key, value] : resp.cache_inserts) cache_.insert(key, value);

  if (p.trace_start_ns != 0 && path_rec_ != nullptr) {
    // The hop_slow span id is allocated up front so the service-generated
    // sends (cached-content responses) can parent to it.
    const std::uint64_t span_id = path_rec_->next_span_id();
    trace::trace_context child = p.tc;
    child.hop_count = static_cast<std::uint8_t>(p.tc.hop_count + 1);
    child.parent_span = span_id;
    for (outbound& o : resp.sends) {
      if (!o.header.trace_ctx()) o.header.set_trace(child);
      const std::uint64_t fstart = path_rec_->now();
      forward_(o.to, o.header, o.payload);
      ++stats_.forwarded;
      path_rec_->emit(trace::path_span{
          .trace_id = p.tc.trace_id,
          .span_id = path_rec_->next_span_id(),
          .parent_span = span_id,
          .node = path_rec_->node(),
          .connection = o.header.connection,
          .service = o.header.service,
          .hop_count = p.tc.hop_count,
          .kind = trace::span_kind::forward,
          .verdict = trace::kVerdictForward,
          .annotations = 0,
          .start_ns = fstart,
          .duration_ns = path_rec_->now() - fstart,
      });
    }
    apply_with_path(resp.verdict, p.pkt.header, p.pkt.payload, p.tc, resp.annotations,
                    trace::span_kind::hop_slow, p.trace_start_ns, span_id);
  } else {
    for (const outbound& o : resp.sends) {
      forward_(o.to, o.header, o.payload);
      ++stats_.forwarded;
    }
    apply(resp.verdict, p.pkt.header, p.pkt.payload);
  }
  end_burst();
  // Claimable again only now: its packet was in use until here.
  free_slots_.push_back(static_cast<std::uint32_t>(index));
}

void pipe_terminus::apply_traced(const decision& d, const ilp::ilp_header& header,
                                 const_byte_span payload, bool sampled) {
  if (!sampled) {
    apply(d, header, payload);
    return;
  }
  const std::uint64_t start = trace::now_ns();
  apply(d, header, payload);
  const std::uint64_t dur = trace::now_ns() - start;
  tracer_->record_stage(trace::stage::emit, dur);
  tracer_->capture(trace::stage::emit, start, dur, verdict_char(d.kind));
}

void pipe_terminus::apply(const decision& d, const ilp::ilp_header& header,
                          const_byte_span payload) {
  switch (d.kind) {
    case decision::verdict::forward:
      for (peer_id hop : d.next_hops) forward_(hop, header, payload);
      stats_.forwarded += d.next_hops.size();
      break;
    case decision::verdict::deliver_local:
      ++stats_.delivered;
      break;
    case decision::verdict::drop:
      ++stats_.dropped;
      // The counter (sn.drop.pkts, via flush_telemetry) and the log line move
      // together so no drop is ever silent.
      IE_LOG(debug) << "terminus" << kv("drop", "verdict")
                    << kv("service", ilp::svc::name(header.service))
                    << kv("conn", header.connection);
      break;
  }
}

}  // namespace interedge::core
