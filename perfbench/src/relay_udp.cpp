// relay_udp: host -> SN -> host over loopback UDP, wired as
// examples/udp_live.cpp wires it. Two host_stacks on legacy (mmsg)
// endpoints, one inline SN (workers = 0) on a udp_config-default endpoint
// draining recv_batch_views into on_datagram_views, with egress through
// pipes().set_send_gather -> send_gather and one flush_tx() per pass.
// 64 delivery-service connections, 64 B payloads, a closed loop of 64
// packets in flight, all driven from one thread.
#include <memory>
#include <sstream>

#include "core/service_node.h"
#include "harness.h"
#include "host/host_stack.h"
#include "net/udp_transport.h"
#include "scenario/workload.h"
#include "services/delivery.h"

namespace perfbench {
namespace {

using namespace interedge;

constexpr std::size_t kConns = 64;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kWindow = 64;
constexpr std::size_t kRing = 4096;  // send-time slots, >> window
constexpr std::uint64_t kLossTimeoutNs = 200'000'000;

struct relay_system {
  explicit relay_system(const net::udp_config& sn_cfg) : ep_sn(sn_cfg) {}

  real_clock clk;
  timer_queue timers;
  identity_router route;
  net::udp_endpoint ep_alice;
  net::udp_endpoint ep_bob;
  net::udp_endpoint ep_sn;
  std::unique_ptr<core::service_node> sn;
  std::unique_ptr<host::host_stack> alice;
  std::unique_ptr<host::host_stack> bob;
  std::vector<host::connection> conns;
};

class relay_udp final : public workload {
 public:
  explicit relay_udp(const options& o)
      : opts_(o),
        payload_seed_(scenario::derive_seed(o.seed, "relay_udp.payload")),
        conn_seed_(scenario::derive_seed(o.seed, "relay_udp.connections")) {
    sent_ts_.assign(kRing, 0);
    pending_.assign(kRing, 0);
  }

  std::string describe() const override {
    std::ostringstream s;
    const char* backend = "?";
    if (sys_) backend = sys_->ep_sn.backend() == net::udp_backend::uring ? "io_uring" : "mmsg";
    s << "sockets=3 loopback udp_backend(sn)=" << backend
      << " udp_backend(hosts)=mmsg sn={workers=0,cache_capacity=4096,profiler_hz=0,"
         "trace_sample_shift=8,path_span_capacity=1024,blackbox_capacity=1024}"
      << " conns=" << kConns << " payload=" << kPayload << "B window=" << kWindow;
    return s.str();
  }

  void teardown() override { sys_.reset(); }

  void build() override {
    sys_.reset();
    sys_ = std::make_unique<relay_system>(net::udp_config{});
    relay_system& s = *sys_;
    const peer_id id_alice = s.ep_alice.port();
    const peer_id id_bob = s.ep_bob.port();
    id_sn_ = s.ep_sn.port();
    s.ep_alice.add_peer(id_sn_, "127.0.0.1", s.ep_sn.port());
    s.ep_bob.add_peer(id_sn_, "127.0.0.1", s.ep_sn.port());
    s.ep_sn.add_peer(id_alice, "127.0.0.1", s.ep_alice.port());
    s.ep_sn.add_peer(id_bob, "127.0.0.1", s.ep_bob.port());

    s.sn = std::make_unique<core::service_node>(
        core::sn_config{.id = id_sn_, .edomain = 1}, s.clk,
        [&s](peer_id to, bytes d) { s.ep_sn.send(to, d); }, s.timers.scheduler(), &s.route);
    s.sn->env().deploy(maybe_timed(std::make_unique<services::delivery_service>(), opts_.trace,
                                   L_SVC_DELIVERY, &module_sends_));
    s.sn->pipes().set_send_gather(
        [&s](peer_id to, const_byte_span head, const_byte_span payload) {
          scoped_span sp(L_NET_TX);
          s.ep_sn.send_gather(to, head, payload);
        });

    s.alice = std::make_unique<host::host_stack>(
        host::host_config{.addr = id_alice, .first_hop_sn = id_sn_, .fallback_sns = {}, .connection_seed = conn_seed_},
        s.clk,
        [&s](peer_id to, bytes d) {
          scoped_span sp(L_NET_TX);
          s.ep_alice.send(to, d);
        },
        s.timers.scheduler(), nullptr);
    s.bob = std::make_unique<host::host_stack>(
        host::host_config{.addr = id_bob, .first_hop_sn = id_sn_, .fallback_sns = {}}, s.clk,
        [&s](peer_id to, bytes d) { s.ep_bob.send(to, d); }, s.timers.scheduler(), nullptr);
    s.bob->set_default_handler(
        [this](const ilp::ilp_header& h, bytes payload) { on_deliver(h, payload); });
    for (std::size_t i = 0; i < kConns; ++i) {
      s.conns.push_back(s.alice->open(id_bob, ilp::svc::delivery));
    }

    s.alice->pipes().connect(id_sn_);
    s.sn->peer_with(id_bob);
    pump_until(
        [&] {
          return s.alice->pipes().has_pipe(id_sn_) && s.bob->pipes().has_pipe(id_sn_) &&
                 s.sn->pipes().has_pipe(id_alice) && s.sn->pipes().has_pipe(id_bob);
        },
        [&] {
          pass();
          rx_into(s.ep_alice, *s.alice);
          s.timers.run_due();
        },
        5000, "relay_udp pipe handshakes");
    kernel_drops0_ = kernel_udp_drops();
  }

  void run(double seconds, phase_result& out) override {
    relay_system& s = *sys_;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t delivered0 = delivered_;
    const double cpu0 = process_cpu_s();
    out.rec.start(t0);
    rec_ = &out.rec;
    last_progress_ = t0;
    std::uint64_t now = t0;
    while (now < end) {
      while (outstanding_ < kWindow) send_one();
      pass();
      now = now_ns();
      check_stall(now);
    }
    out.wall_s = static_cast<double>(now - t0) * 1e-9;
    out.cpu_s = process_cpu_s() - cpu0;
    out.delivered = delivered_ - delivered0;
    out.rec.finish(now);
    rec_ = nullptr;
    // Drain: nothing new is sent; everything in flight arrives or times out.
    last_progress_ = now_ns();
    while (outstanding_ > 0) {
      pass();
      check_stall(now_ns());
    }
    s.ep_sn.tx_drain();
  }

  snapshot snap() override {
    relay_system& s = *sys_;
    snapshot r;
    r.fed = fed_;
    r.expected = fed_;
    r.delivered = delivered_;
    r.lost = lost_;
    const core::terminus_stats& ts = s.sn->datapath_stats();
    r.sn_received = ts.received;
    r.sn_slow = ts.slow_path;
    r.sn_dropped = ts.dropped;
    r.sn_shed = ts.shed;
    const core::cache_stats& cs = s.sn->cache().stats();
    r.cache_hits = cs.hits;
    r.cache_misses = cs.misses;
    r.cache_evictions = cs.evictions;
    r.ilp_rejected = s.sn->metrics().get_counter("ilp.rx.rejected").value();
    if (const ilp::pipe_stats* ps = s.bob->pipes().stats_for(id_sn_)) r.ilp_rejected += ps->rejected;
    r.net_rx_calls = rx_calls_;
    r.net_rx_empty = rx_empty_;
    r.net_rx_pkts = rx_pkts_;
    for (const net::udp_endpoint* ep : {&s.ep_alice, &s.ep_bob, &s.ep_sn}) {
      r.net_send_again += ep->send_again();
      r.net_drops += ep->dropped_unknown() + ep->rx_truncated() + ep->rx_errors();
      const buf::pool_stats ps = ep->pool_stats();
      r.pool_exhausted += ps.exhausted;
      r.pool_refills += ps.refills;
    }
    r.kernel_drops = kernel_udp_drops() - kernel_drops0_;
    r.handshake_retries = s.alice->handshake_retries() + s.bob->handshake_retries();
    r.module_sends = module_sends_;
    r.checked = delivered_;
    return r;
  }

  void ilp_probe(std::size_t n) override {
    ilp::ilp_header h;
    h.service = ilp::svc::delivery;
    h.flags = ilp::kFlagFromHost;
    h.set_meta_u64(ilp::meta_key::dest_addr, 2);
    h.set_meta_u64(ilp::meta_key::src_addr, 1);
    run_ilp_probe(h, kPayload, payload_seed_, n);
  }

 private:
  // One pass of the event loop: SN socket -> SN -> flush, then the
  // receiving host's socket -> host.
  void pass() {
    relay_system& s = *sys_;
    std::size_t n;
    {
      scoped_span sp(L_NET_RX);
      n = s.ep_sn.recv_batch_views(net::udp_endpoint::kBatchMax, sn_views_);
    }
    count_rx(n);
    if (n > 0) {
      scoped_span sp(L_CORE);
      s.sn->on_datagram_views(sn_views_);
    }
    sn_views_.clear();
    {
      scoped_span sp(L_NET_TX);
      s.ep_sn.flush_tx();
    }
    rx_into(s.ep_bob, *s.bob);
  }

  void rx_into(net::udp_endpoint& ep, host::host_stack& host) {
    std::size_t n;
    {
      scoped_span sp(L_NET_RX);
      n = ep.recv_batch_views(net::udp_endpoint::kBatchMax, host_views_);
    }
    count_rx(n);
    if (n > 0) {
      scoped_span sp(L_HOST_RX);
      host.on_datagram_views(host_views_);
    }
    host_views_.clear();
  }

  void count_rx(std::size_t n) {
    ++rx_calls_;
    rx_pkts_ += n;
    if (n == 0) ++rx_empty_;
  }

  void send_one() {
    const std::uint64_t seq = next_seq_++;
    const std::size_t flow = seq % kConns;
    bytes payload(kPayload);
    {
      scoped_span sp(L_GEN, static_cast<std::uint32_t>(seq));
      fill_payload(payload, payload_seed_, flow, seq);
    }
    pending_[seq % kRing] = seq + 1;
    ++outstanding_;
    ++fed_;
    scoped_span sp(L_HOST_TX, static_cast<std::uint32_t>(seq));
    sent_ts_[seq % kRing] = now_ns();
    sys_->conns[flow].send(std::move(payload));
  }

  // Receiving host's handler: every packet is checked.
  void on_deliver(const ilp::ilp_header& h, bytes& payload) {
    scoped_span sp(L_SINK);
    const std::uint64_t t = now_ns();
    if (opts_.flip_byte && !flipped_ && !payload.empty()) {
      payload[payload.size() - 1] ^= 0x01;
      flipped_ = true;
    }
    if (payload.size() != kPayload || !payload_intact(payload)) {
      fail("relay_udp: delivered payload is corrupt");
      return;
    }
    const std::uint64_t flow = payload_flow(payload);
    const std::uint64_t seq = payload_seq(payload);
    if (flow >= kConns || flow != seq % kConns || h.connection != sys_->conns[flow].id() ||
        h.service != ilp::svc::delivery) {
      fail("relay_udp: delivered header does not match its flow");
      return;
    }
    std::uint64_t& slot = pending_[seq % kRing];
    if (slot != seq + 1) {
      fail("relay_udp: duplicate or unexpected delivery");
      return;
    }
    slot = 0;
    --outstanding_;
    ++delivered_;
    last_progress_ = t;
    if (rec_ != nullptr) rec_->add(t, t - sent_ts_[seq % kRing]);
  }

  // A packet not delivered within the loss timeout is given up on, so the
  // closed loop keeps its window; the conservation check then needs a
  // counted drop for each one.
  void check_stall(std::uint64_t now) {
    if (outstanding_ == 0 || now - last_progress_ < kLossTimeoutNs) return;
    for (std::uint64_t& slot : pending_) {
      if (slot != 0) {
        slot = 0;
        ++lost_;
      }
    }
    outstanding_ = 0;
    last_progress_ = now;
  }

  options opts_;
  std::uint64_t payload_seed_;
  std::uint64_t conn_seed_;
  std::unique_ptr<relay_system> sys_;
  peer_id id_sn_ = 0;
  std::vector<std::pair<peer_id, buf::pkt_view>> sn_views_;
  std::vector<std::pair<peer_id, buf::pkt_view>> host_views_;
  std::vector<std::uint64_t> sent_ts_;
  std::vector<std::uint64_t> pending_;  // seq + 1 while in flight, else 0
  phase_recorder* rec_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t fed_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t last_progress_ = 0;
  std::uint64_t rx_calls_ = 0, rx_empty_ = 0, rx_pkts_ = 0;
  std::uint64_t module_sends_ = 0;
  std::uint64_t kernel_drops0_ = 0;
  bool flipped_ = false;
};

}  // namespace

std::unique_ptr<workload> make_relay_udp(const options& o) {
  return std::make_unique<relay_udp>(o);
}

}  // namespace perfbench
