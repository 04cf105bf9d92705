// The in-memory, SN-only workloads. Sender pipes (or, for pub/sub, a
// publisher host_stack) seal replay traffic during set-up; the timed loop
// copies each replay datagram into a slab of the benchmark's own pool and
// feeds batches of slab views to service_node::on_datagram_views. The SN's
// egress goes through pipes().set_send_gather to a sink that accounts for
// every delivery and opens a deterministic 1-in-kSampleEvery sample with
// the receiver's own pipe.
//
//   flow_churn     inline SN, 4 sender pipes, Zipf(0.9) over 262,144 flows
//                  against the 4096-entry decision cache, 64 B, batch 32
//   pubsub_fanout  inline SN, 1 publisher + 16 subscriber host pipes on one
//                  topic, 1 KiB publishes, 8 publishes (128 copies) a batch
//   relay_sharded  workers = 1 (control thread + one shard), 4 sender
//                  pipes x 256 connections, all cache hits after warm-up,
//                  64 B, batch 32, window 64
#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/buf_pool.h"
#include "core/service_node.h"
#include "edomain/domain_core.h"
#include "harness.h"
#include "host/host_stack.h"
#include "lookup/lookup_service.h"
#include "scenario/workload.h"
#include "services/clients/pubsub_client.h"
#include "services/common.h"
#include "services/delivery.h"
#include "services/pubsub.h"

namespace perfbench {
namespace {

using namespace interedge;

constexpr peer_id kSnId = 1;
constexpr peer_id kSenderBase = 101;
constexpr peer_id kSinkId = 200;
constexpr peer_id kPublisherId = 300;
constexpr peer_id kSubscriberBase = 301;
constexpr std::size_t kSampleEvery = 64;
constexpr std::uint64_t kStallNs = 200'000'000;
const char* const kTopic = "bench";

enum class kind { flow_churn, pubsub_fanout, relay_sharded };

struct params {
  kind k;
  const char* name;
  std::size_t workers;
  std::size_t senders;      // sender pipes (pub/sub: 1 publisher host)
  std::size_t flows;        // flow population
  std::size_t subscribers;  // pub/sub fan-out
  std::size_t payload;
  std::size_t batch;        // datagrams per on_datagram_views call
  std::size_t window;       // deliveries in flight
  std::size_t replay;       // replay arena length in datagrams
  std::size_t slab_size;
};

const params kFlowChurn{kind::flow_churn, "flow_churn", 0, 4, 262144, 0, 64, 32, 32, 65536, 256};
const params kPubsub{kind::pubsub_fanout, "pubsub_fanout", 0, 1, 1, 16, 1024, 8, 128, 1024, 2048};
const params kSharded{kind::relay_sharded, "relay_sharded", 1, 4, 1024, 0, 64, 32, 64, 8192, 256};

// One datagram of the replay arena.
struct replay_pkt {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  peer_id from = 0;
  std::uint64_t conn = 0;
};

// The system under test. Handshakes and control traffic are shuttled
// through two in-memory queues during set-up.
struct system_under_test {
  real_clock clk;
  timer_queue timers;
  identity_router route;
  lookup::lookup_service directory;
  edomain::domain_core domain{1, directory};
  std::vector<std::pair<peer_id, bytes>> to_sn;    // (from, datagram)
  std::vector<std::pair<peer_id, bytes>> from_sn;  // (to, datagram)
  // Where sender/publisher datagrams go: the SN queue, or the replay
  // capture while traffic is generated.
  std::function<void(peer_id from, bytes d)> sender_out;
  std::unique_ptr<core::service_node> sn;
  std::vector<std::unique_ptr<ilp::pipe_manager>> senders;
  std::unique_ptr<ilp::pipe_manager> sink;
  std::unique_ptr<host::host_stack> publisher;
  std::vector<std::unique_ptr<host::host_stack>> subscribers;
  std::vector<std::unique_ptr<services::pubsub_client>> clients;
};

class inmem final : public workload {
 public:
  inmem(const options& o, const params& p)
      : opts_(o),
        p_(p),
        payload_seed_(scenario::derive_seed(o.seed, std::string(p.name) + ".payload")),
        conn_seed_(scenario::derive_seed(o.seed, std::string(p.name) + ".connections")),
        pool_(buf::pool_config{.slab_size = p.slab_size,
                               .slab_count = p.window + 2 * p.batch,
                               .cache_batch = 32}),
        cache_(pool_) {
    fanout_ = p.k == kind::pubsub_fanout ? p.subscribers : 1;
    all_bits_ = p.k == kind::pubsub_fanout ? (1u << p.subscribers) - 1 : 1u;
    sent_ts_.assign(p.replay, 0);
    pending_.assign(p.replay, 0);
  }

  std::string describe() const override {
    std::ostringstream s;
    s << "sockets=0 in-memory udp_backend=unused sn={workers=" << p_.workers
      << ",cache_capacity=4096,profiler_hz=0,trace_sample_shift=8,path_span_capacity=1024,"
         "blackbox_capacity=1024,shard_ring_depth=1024}"
      << " senders=" << p_.senders << " flows=" << p_.flows;
    if (p_.k == kind::flow_churn) s << " zipf=0.9";
    if (p_.k == kind::pubsub_fanout) s << " subscribers=" << p_.subscribers;
    s << " payload=" << p_.payload << "B batch=" << p_.batch << " window=" << p_.window
      << " replay=" << p_.replay << " feeder_pool=" << pool_.slab_count() << "x"
      << pool_.slab_size() << "B";
    return s.str();
  }

  void teardown() override { sys_.reset(); }

  void build() override {
    sys_.reset();
    sys_ = std::make_unique<system_under_test>();
    system_under_test& s = *sys_;
    s.sender_out = [&s](peer_id from, bytes d) { s.to_sn.emplace_back(from, std::move(d)); };
    core::sn_config cfg{.id = kSnId, .edomain = 1};
    cfg.workers = p_.workers;
    s.sn = std::make_unique<core::service_node>(
        cfg, s.clk, [&s](peer_id to, bytes d) { s.from_sn.emplace_back(to, std::move(d)); },
        s.timers.scheduler(), &s.route);
    s.sn->pipes().set_send_gather(
        [this](peer_id to, const_byte_span head, const_byte_span payload) {
          on_egress(to, head, payload);
        });

    if (p_.k == kind::pubsub_fanout) {
      build_pubsub(s);
    } else {
      build_delivery(s);
    }
    pump_until([&] { return ready(); }, [&] { shuttle(); }, 5000, "in-memory set-up");
  }

  void generate() override {
    system_under_test& s = *sys_;
    arena_.clear();
    pkts_.clear();
    arena_.reserve(p_.replay * (p_.payload + 96));
    pkts_.reserve(p_.replay);
    s.sender_out = [&](peer_id from, bytes d) {
      replay_pkt r;
      r.off = static_cast<std::uint32_t>(arena_.size());
      r.len = static_cast<std::uint32_t>(d.size());
      r.from = from;
      r.conn = capture_conn_;
      arena_.insert(arena_.end(), d.begin(), d.end());
      pkts_.push_back(r);
    };
    bytes payload(p_.payload);
    if (p_.k == kind::pubsub_fanout) {
      services::pubsub_client pub(*s.publisher);
      for (std::size_t i = 0; i < p_.replay; ++i) {
        fill_payload(payload, payload_seed_, 0, i);
        pub.publish(kTopic, payload);
      }
    } else {
      scenario::zipf_sampler zipf(p_.flows, 0.9,
                                  scenario::derive_seed(opts_.seed, "flow_churn.popularity"));
      for (std::size_t i = 0; i < p_.replay; ++i) {
        std::size_t flow, sender;
        if (p_.k == kind::flow_churn) {
          flow = zipf.next();
          sender = flow % p_.senders;
        } else {
          // One sender per batch, its connections in turn.
          const std::size_t b = i / p_.batch;
          sender = b % p_.senders;
          const std::size_t per = p_.flows / p_.senders;
          flow = sender * per + ((b / p_.senders) * p_.batch + i % p_.batch) % per;
        }
        capture_conn_ = flow_conn(flow);
        fill_payload(payload, payload_seed_, flow, i);
        s.senders[sender]->send(kSnId, delivery_header(capture_conn_, sender), payload);
      }
    }
    s.sender_out = [&s](peer_id from, bytes d) { s.to_sn.emplace_back(from, std::move(d)); };
    if (pkts_.size() != p_.replay) throw std::runtime_error("replay generation lost datagrams");
  }

  void run(double seconds, phase_result& out) override {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t delivered0 = delivered_;
    const double cpu0 = process_cpu_s();
    out.rec.start(t0);
    rec_ = &out.rec;
    last_progress_ = t0;
    std::uint64_t now = t0;
    while (now < end) {
      if (outstanding_ + p_.batch * fanout_ <= p_.window) {
        feed_batch();
      } else {
        scoped_span sp(L_CORE_WAIT);
        sys_->sn->poll();
      }
      now = now_ns();
      check_stall(now);
    }
    out.wall_s = static_cast<double>(now - t0) * 1e-9;
    out.cpu_s = process_cpu_s() - cpu0;
    out.delivered = delivered_ - delivered0;
    out.rec.finish(now);
    rec_ = nullptr;
    drain();
  }

  snapshot snap() override {
    system_under_test& s = *sys_;
    snapshot r;
    r.fanout = fanout_;
    r.fed = fed_;
    r.expected = fed_ * fanout_;
    r.delivered = delivered_;
    r.lost = lost_;
    auto add_terminus = [&r](const core::terminus_stats& ts) {
      r.sn_received += ts.received;
      r.sn_slow += ts.slow_path;
      r.sn_dropped += ts.dropped;
      r.sn_shed += ts.shed;
    };
    auto add_cache = [&r](const core::cache_stats& cs) {
      r.cache_hits += cs.hits;
      r.cache_misses += cs.misses;
      r.cache_evictions += cs.evictions;
    };
    add_terminus(s.sn->datapath_stats());
    add_cache(s.sn->cache().stats());
    for (std::size_t k = 0; k < s.sn->worker_count(); ++k) {
      add_terminus(s.sn->shard_terminus_stats(k));
      add_cache(s.sn->shard_cache_stats(k));
    }
    metrics_registry merged;
    s.sn->merge_metrics_into(merged);
    r.ilp_rejected = merged.get_counter("ilp.rx.rejected").value();
    for (std::size_t k = 0; k < s.sn->worker_count(); ++k) {
      const std::string shard = std::to_string(k);
      r.shard_ingress_drops +=
          merged.get_counter("sn.shard.ingress_drops", {{"shard", shard}}).value();
    }
    r.shard_spill_drops = merged.get_counter("sn.shard.egress_spill_drops").value();
    if (s.sink) {
      if (const ilp::pipe_stats* ps = s.sink->stats_for(kSnId)) r.ilp_rejected += ps->rejected;
    }
    for (const auto& sub : s.subscribers) {
      if (const ilp::pipe_stats* ps = sub->pipes().stats_for(kSnId)) r.ilp_rejected += ps->rejected;
      r.handshake_retries += sub->handshake_retries();
    }
    if (s.publisher) r.handshake_retries += s.publisher->handshake_retries();
    const buf::pool_stats ps = pool_.stats();
    r.pool_exhausted = ps.exhausted;
    r.pool_refills = ps.refills;
    r.module_sends = module_sends_;
    r.checked = samples_;
    return r;
  }

  void ilp_probe(std::size_t n) override {
    if (p_.k == kind::pubsub_fanout) {
      ilp::ilp_header h;
      h.service = ilp::svc::pubsub;
      h.flags = ilp::kFlagFromHost;
      h.set_meta_u64(ilp::meta_key::src_addr, kPublisherId);
      services::set_skey_str(h, services::skey::group, kTopic);
      run_ilp_probe(h, p_.payload, payload_seed_, n);
    } else {
      run_ilp_probe(delivery_header(0, 0), p_.payload, payload_seed_, n);
    }
  }

 private:
  void build_delivery(system_under_test& s) {
    s.sn->env().deploy(maybe_timed(std::make_unique<services::delivery_service>(), opts_.trace,
                                   L_SVC_DELIVERY, &module_sends_));
    for (std::size_t i = 0; i < p_.senders; ++i) {
      const peer_id id = kSenderBase + i;
      s.senders.push_back(std::make_unique<ilp::pipe_manager>(
          id, [&s, id](peer_id, bytes d) { s.sender_out(id, std::move(d)); },
          [](peer_id, const ilp::ilp_header&, bytes) {}));
      s.senders.back()->connect(kSnId);
    }
    s.sink = std::make_unique<ilp::pipe_manager>(
        kSinkId, [&s](peer_id, bytes d) { s.to_sn.emplace_back(kSinkId, std::move(d)); },
        [this](peer_id, const ilp::ilp_header& h, bytes payload) {
          opened_ = true;
          opened_conn_ = h.connection;
          opened_ok_ = h.service == ilp::svc::delivery &&
                       h.meta_u64(ilp::meta_key::dest_addr) == kSinkId;
          opened_payload_ = std::move(payload);
        });
    s.sn->peer_with(kSinkId);
  }

  void build_pubsub(system_under_test& s) {
    s.domain.add_sn(kSnId);
    s.sn->env().deploy(maybe_timed(std::make_unique<services::pubsub_service>(s.domain, kSnId),
                                   opts_.trace, L_SVC_PUBSUB, &module_sends_));
    auto make_host = [&s](peer_id id) {
      return std::make_unique<host::host_stack>(
          host::host_config{.addr = id, .first_hop_sn = kSnId, .fallback_sns = {}}, s.clk,
          [&s, id](peer_id, bytes d) { s.sender_out(id, std::move(d)); }, s.timers.scheduler(),
          nullptr);
    };
    s.publisher = make_host(kPublisherId);
    s.publisher->pipes().connect(kSnId);
    for (std::size_t j = 0; j < p_.subscribers; ++j) {
      s.subscribers.push_back(make_host(kSubscriberBase + j));
      s.clients.push_back(std::make_unique<services::pubsub_client>(*s.subscribers.back()));
      s.clients.back()->subscribe(kTopic, [this](const std::string& topic, bytes payload) {
        opened_ = true;
        opened_ok_ = topic == kTopic;
        opened_payload_ = std::move(payload);
      });
    }
  }

  bool ready() const {
    const system_under_test& s = *sys_;
    // The SN's peers: every sender, plus the sink or every subscriber.
    if (s.sn->pipes().pipe_count() != p_.senders + std::max<std::size_t>(p_.subscribers, 1)) {
      return false;
    }
    for (const auto& snd : s.senders) {
      if (!snd->has_pipe(kSnId)) return false;
    }
    if (s.sink && !s.sink->has_pipe(kSnId)) return false;
    if (s.publisher && !s.publisher->pipes().has_pipe(kSnId)) return false;
    for (const auto& c : s.clients) {
      if (c->acks() != 1) return false;
    }
    return true;
  }

  // Set-up pump: moves queued datagrams both ways until nothing is left.
  void shuttle() {
    system_under_test& s = *sys_;
    std::vector<std::pair<peer_id, bytes>> moving;
    moving.swap(s.to_sn);
    for (const auto& [from, d] : moving) s.sn->on_datagram(from, d);
    if (p_.workers > 0) s.sn->wait_idle(std::chrono::milliseconds(1000));
    moving.clear();
    moving.swap(s.from_sn);
    for (const auto& [to, d] : moving) {
      if (to == kSinkId) {
        s.sink->on_datagram(kSnId, d);
      } else if (to >= kSenderBase && to < kSenderBase + s.senders.size()) {
        s.senders[to - kSenderBase]->on_datagram(kSnId, d);
      } else if (to == kPublisherId) {
        s.publisher->on_datagram(kSnId, d);
      } else if (to >= kSubscriberBase && to < kSubscriberBase + s.subscribers.size()) {
        s.subscribers[to - kSubscriberBase]->on_datagram(kSnId, d);
      }
    }
    s.timers.run_due();
  }

  std::uint64_t flow_conn(std::size_t flow) const { return mix64(conn_seed_ ^ flow) | 1; }

  ilp::ilp_header delivery_header(std::uint64_t conn, std::size_t sender) const {
    ilp::ilp_header h;
    h.service = ilp::svc::delivery;
    h.connection = conn;
    h.flags = ilp::kFlagFromHost;
    h.set_meta_u64(ilp::meta_key::dest_addr, kSinkId);
    h.set_meta_u64(ilp::meta_key::src_addr, kSenderBase + sender);
    return h;
  }

  void feed_batch() {
    const std::uint32_t batch_id = static_cast<std::uint32_t>(fed_ / p_.batch);
    {
      scoped_span sp(L_GEN, batch_id);
      for (std::size_t k = 0; k < p_.batch; ++k) {
        buf::slab_ref slab = cache_.try_alloc();
        if (!slab) break;  // counted by the pool; the window refills it
        const std::size_t idx = cursor_;
        const replay_pkt& r = pkts_[idx];
        if (pending_[idx] != 0) {
          fail("replay slot reused while its packet is still in flight");
          break;
        }
        std::memcpy(slab.data(), arena_.data() + r.off, r.len);
        views_.emplace_back(r.from, buf::pkt_view(std::move(slab), 0, r.len));
        pending_[idx] = all_bits_;
        cursor_ = (cursor_ + 1) % pkts_.size();
      }
      const std::uint64_t t = now_ns();
      for (std::size_t k = 0; k < views_.size(); ++k) {
        sent_ts_[(cursor_ + pkts_.size() - views_.size() + k) % pkts_.size()] = t;
      }
      outstanding_ += views_.size() * fanout_;
      fed_ += views_.size();
    }
    scoped_span sp(L_CORE, batch_id);
    sys_->sn->on_datagram_views(views_);
    views_.clear();
  }

  // SN egress (send_gather hook): one delivery per call.
  void on_egress(peer_id to, const_byte_span head, const_byte_span payload) {
    scoped_span sp(L_SINK);
    const std::uint64_t t = now_ns();
    if (payload.size() != p_.payload) {
      fail(std::string(p_.name) + ": egress payload has the wrong length");
      return;
    }
    const std::uint64_t idx = payload_seq(payload);
    std::uint32_t bit = 1;
    if (p_.k == kind::pubsub_fanout) {
      if (to < kSubscriberBase || to >= kSubscriberBase + p_.subscribers) {
        fail("pubsub_fanout: copy sent to a peer that is not a subscriber");
        return;
      }
      bit = 1u << (to - kSubscriberBase);
    } else if (to != kSinkId) {
      fail(std::string(p_.name) + ": packet forwarded to the wrong peer");
      return;
    }
    if (idx >= pending_.size() || (pending_[idx] & bit) == 0) {
      fail(std::string(p_.name) + ": duplicate or unexpected delivery");
      return;
    }
    if (idx % kSampleEvery == 0) check_sample(to, head, payload, idx);
    pending_[idx] &= ~bit;
    --outstanding_;
    ++delivered_;
    last_progress_ = t;
    if (rec_ != nullptr) rec_->add(t, t - sent_ts_[idx]);
  }

  // Opens a sampled delivery with the receiver's own pipe and compares
  // header and payload with what was sealed.
  void check_sample(peer_id to, const_byte_span head, const_byte_span payload, std::uint64_t idx) {
    glue_.assign(head.begin(), head.end());
    glue_.insert(glue_.end(), payload.begin(), payload.end());
    if (opts_.flip_byte && !flipped_) {
      glue_.back() ^= 0x01;
      flipped_ = true;
    }
    opened_ = false;
    if (p_.k == kind::pubsub_fanout) {
      sys_->subscribers[to - kSubscriberBase]->on_datagram(kSnId, glue_);
    } else {
      sys_->sink->on_datagram(kSnId, glue_);
    }
    const replay_pkt& r = pkts_[idx];
    const std::uint8_t* sealed_payload = arena_.data() + r.off + r.len - p_.payload;
    const bool payload_ok = opened_ && opened_payload_.size() == p_.payload &&
                            std::memcmp(opened_payload_.data(), sealed_payload, p_.payload) == 0 &&
                            payload_intact(opened_payload_);
    const bool header_ok = opened_ && opened_ok_ &&
                           (p_.k == kind::pubsub_fanout || opened_conn_ == r.conn);
    if (!payload_ok || !header_ok) {
      fail(std::string(p_.name) + ": sampled delivery differs from what was sealed");
    }
    ++samples_;
  }

  void check_stall(std::uint64_t now) {
    if (outstanding_ == 0 || now - last_progress_ < kStallNs) return;
    if (p_.workers > 0) {
      sys_->sn->wait_idle(std::chrono::milliseconds(1000));
      if (outstanding_ == 0) return;
    }
    for (std::uint32_t& bits : pending_) {
      lost_ += static_cast<std::uint64_t>(std::popcount(bits));
      bits = 0;
    }
    outstanding_ = 0;
    last_progress_ = now;
  }

  void drain() {
    last_progress_ = now_ns();
    while (outstanding_ > 0) {
      if (p_.workers > 0) {
        scoped_span sp(L_CORE_WAIT);
        sys_->sn->wait_idle(std::chrono::milliseconds(1000));
      } else {
        scoped_span sp(L_CORE_WAIT);
        sys_->sn->poll();
      }
      check_stall(now_ns());
    }
    if (p_.workers > 0) sys_->sn->wait_idle(std::chrono::milliseconds(1000));
  }

  options opts_;
  params p_;
  std::uint64_t payload_seed_;
  std::uint64_t conn_seed_;
  std::uint64_t fanout_ = 1;
  std::uint32_t all_bits_ = 1;
  buf::buf_pool pool_;
  buf::buf_pool::cache cache_;
  std::unique_ptr<system_under_test> sys_;
  std::vector<std::uint8_t> arena_;
  std::vector<replay_pkt> pkts_;
  std::uint64_t capture_conn_ = 0;
  std::vector<std::pair<peer_id, buf::pkt_view>> views_;
  std::vector<std::uint64_t> sent_ts_;
  std::vector<std::uint32_t> pending_;  // receivers still owed a copy
  std::size_t cursor_ = 0;
  phase_recorder* rec_ = nullptr;
  std::uint64_t outstanding_ = 0;
  std::uint64_t fed_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t last_progress_ = 0;
  std::uint64_t module_sends_ = 0;
  std::uint64_t samples_ = 0;
  bytes glue_;
  bool opened_ = false;
  bool opened_ok_ = false;
  std::uint64_t opened_conn_ = 0;
  bytes opened_payload_;
  bool flipped_ = false;
};

}  // namespace

std::unique_ptr<workload> make_flow_churn(const options& o) {
  return std::make_unique<inmem>(o, kFlowChurn);
}
std::unique_ptr<workload> make_pubsub_fanout(const options& o) {
  return std::make_unique<inmem>(o, kPubsub);
}
std::unique_ptr<workload> make_relay_sharded(const options& o) {
  return std::make_unique<inmem>(o, kSharded);
}

}  // namespace perfbench
