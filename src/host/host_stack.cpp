#include "host/host_stack.h"

#include "common/logging.h"
#include "common/serial.h"

namespace interedge::host {

void connection::send(bytes payload) {
  ilp::ilp_header header;
  header.service = service_;
  header.connection = id_;
  header.flags = ilp::kFlagFromHost;
  header.set_meta_u64(ilp::meta_key::dest_addr, remote_);
  header.set_meta_u64(ilp::meta_key::src_addr, stack_->addr());
  for (const auto& [key, value] : options_) header.set_meta_raw(key, value);
  stack_->send_packet(via_, header, std::move(payload));
}

void connection::set_option(ilp::meta_key key, std::uint64_t value) {
  writer w(8);
  w.u64(value);
  options_[static_cast<std::uint16_t>(key)] = w.take();
}

void connection::set_option_str(ilp::meta_key key, std::string_view value) {
  options_[static_cast<std::uint16_t>(key)] = to_bytes(value);
}

host_stack::host_stack(host_config config, const clock& clk, send_datagram_fn send,
                       scheduler_fn scheduler, const lookup::lookup_service* directory)
    : config_(config),
      clock_(clk),
      scheduler_(std::move(scheduler)),
      directory_(directory),
      pipes_(
          config.addr, [s = std::move(send)](peer_id to, bytes d) { s(to, std::move(d)); },
          [this](peer_id from, const ilp::ilp_header& header, bytes payload) {
            ++received_;
            // Terminal deliver span: closes the trace the origin opened.
            std::uint64_t trace_start = 0;
            trace::trace_context tc{};
            if (path_rec_ != nullptr) {
              if (auto t = header.trace_ctx(); t && t->sampled()) {
                tc = *t;
                trace_start = path_rec_->now();
              }
            }
            const bool is_control = (header.flags & ilp::kFlagControl) != 0;
            auto& handlers = is_control ? control_handlers_ : service_handlers_;
            auto it = handlers.find(header.service);
            if (it != handlers.end() && it->second) {
              it->second(header, std::move(payload));
            } else if (default_handler_) {
              default_handler_(header, std::move(payload));
            } else {
              IE_LOG(debug) << "host " << config_.addr << ": unhandled packet from " << from
                            << " service " << header.service;
            }
            if (trace_start != 0) {
              path_rec_->emit(trace::path_span{
                  .trace_id = tc.trace_id,
                  .span_id = path_rec_->next_span_id(),
                  .parent_span = tc.parent_span,
                  .node = config_.addr,
                  .connection = header.connection,
                  .service = header.service,
                  .hop_count = tc.hop_count,
                  .kind = trace::span_kind::deliver,
                  .verdict = trace::kVerdictDeliver,
                  .annotations = 0,
                  .start_ns = trace_start,
                  .duration_ns = path_rec_->now() - trace_start,
              });
            }
          }),
      conn_rng_(config.connection_seed != 0 ? config.connection_seed : config.addr * 0x9e3779b9ull + 1) {
  if (config_.path_span_capacity > 0) {
    path_rec_ = std::make_unique<trace::path_recorder>(
        trace::path_recorder::config{.node = config_.addr,
                                     .sample_shift = config_.trace_sample_shift,
                                     .capacity = config_.path_span_capacity,
                                     .clk = &clk});
  }
}

void host_stack::on_datagram(peer_id from, const_byte_span datagram) {
  pipes_.on_datagram(from, datagram);
}

peer_id host_stack::route_first_hop(edge_addr dest, peer_id override_sn) {
  if (override_sn != 0) return override_sn;
  // §3.2 Direct connectivity: if the peer shares our first-hop SN (the
  // "same subnet" signal available to us), talk to it directly over ILP.
  if (config_.allow_direct && directory_ != nullptr) {
    const auto record = directory_->find_host(dest);
    if (record) {
      for (peer_id sn : record->service_nodes) {
        if (sn == config_.first_hop_sn) {
          ++direct_sends_;
          return dest;
        }
      }
    }
  }
  return config_.first_hop_sn;
}

connection host_stack::open(edge_addr dest, ilp::service_id service, peer_id via_sn) {
  connection c;
  c.stack_ = this;
  c.id_ = conn_rng_.next();
  c.service_ = service;
  c.remote_ = dest;
  c.via_ = route_first_hop(dest, via_sn);
  return c;
}

void host_stack::send_to(edge_addr dest, ilp::service_id service, bytes payload) {
  connection c = open(dest, service);
  c.send(std::move(payload));
}

void host_stack::send_control(ilp::service_id service, const std::string& operation, bytes args,
                              std::optional<ilp::connection_id> conn) {
  send_control_to(config_.first_hop_sn, service, operation, std::move(args), conn);
}

void host_stack::send_control_to(peer_id sn, ilp::service_id service,
                                 const std::string& operation, bytes args,
                                 std::optional<ilp::connection_id> conn) {
  ilp::ilp_header header;
  header.service = service;
  header.connection = conn.value_or(conn_rng_.next());
  header.flags = ilp::kFlagControl | ilp::kFlagFromHost;
  header.set_meta_str(ilp::meta_key::control_op, operation);
  header.set_meta_u64(ilp::meta_key::src_addr, config_.addr);
  header.set_meta_u64(ilp::meta_key::reply_to, config_.addr);
  send_packet(sn, header, std::move(args));
}

void host_stack::set_service_handler(ilp::service_id service, receive_handler handler) {
  service_handlers_[service] = std::move(handler);
}

void host_stack::set_control_handler(ilp::service_id service, receive_handler handler) {
  control_handlers_[service] = std::move(handler);
}

bool host_stack::switch_to_fallback() {
  if (config_.fallback_sns.empty()) return false;
  config_.first_hop_sn = config_.fallback_sns.front();
  config_.fallback_sns.erase(config_.fallback_sns.begin());
  return true;
}

void host_stack::send_packet(peer_id via, ilp::ilp_header header, bytes payload) {
  ++sent_;
  // Origin of a path trace: the sampling decision is made exactly once,
  // here; the sampled bit rides the sealed context to every hop. A header
  // that already carries a context (a client relaying a traced packet) is
  // left alone — traces have one origin.
  if (path_rec_ != nullptr && !header.trace_ctx() && path_rec_->sample_tick()) {
    const std::uint64_t trace_id = path_rec_->new_trace_id();
    const std::uint64_t span_id = path_rec_->next_span_id();
    const std::uint64_t start = path_rec_->now();
    trace::trace_context ctx;
    ctx.trace_id = trace_id;
    ctx.parent_span = span_id;
    ctx.hop_count = 1;  // the first SN emits at hop 1; origin is hop 0
    ctx.flags = trace::kTraceCtxSampled;
    header.set_trace(ctx);
    pipes_.send(via, header, std::move(payload));
    arm_handshake_retry();
    path_rec_->emit(trace::path_span{
        .trace_id = trace_id,
        .span_id = span_id,
        .parent_span = 0,
        .node = config_.addr,
        .connection = header.connection,
        .service = header.service,
        .hop_count = 0,
        .kind = trace::span_kind::origin,
        .verdict = trace::kVerdictForward,
        .annotations = 0,
        .start_ns = start,
        .duration_ns = path_rec_->now() - start,
    });
    return;
  }
  pipes_.send(via, header, std::move(payload));
  arm_handshake_retry();
}

std::size_t host_stack::drain_path_spans(std::vector<trace::path_span>& out) {
  if (path_rec_ == nullptr) return 0;
  std::size_t total = 0;
  for (std::size_t n = path_rec_->drain(out); n > 0; n = path_rec_->drain(out)) total += n;
  return total;
}

void host_stack::arm_handshake_retry() {
  if (retry_armed_ || pipes_.pending_handshakes() == 0) return;
  retry_armed_ = true;
  scheduler_(std::chrono::milliseconds(kHandshakeRetryMs), [this] {
    retry_armed_ = false;
    if (pipes_.pending_handshakes() == 0) return;
    ++handshake_retries_;
    pipes_.retry_pending();
    arm_handshake_retry();
  });
}

}  // namespace interedge::host
