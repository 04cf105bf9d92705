#include "ilp/pipe_manager.h"

#include <bit>
#include <iterator>
#include <stdexcept>

#include "common/logging.h"
#include "common/serial.h"
#include "crypto/aead.h"
#include "crypto/random.h"

namespace interedge::ilp {
namespace {

crypto::x25519_keypair fresh_keypair() {
  crypto::x25519_key seed;
  crypto::random_bytes(seed);
  return crypto::x25519_keypair_from_seed(seed);
}

bytes handshake_message(msg_kind kind, std::uint32_t spi, const crypto::x25519_key& pub) {
  writer w(1 + 4 + 32);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(spi);
  w.raw(const_byte_span(pub.data(), pub.size()));
  return w.take();
}

}  // namespace

pipe_manager::pipe_manager(peer_id self, send_fn send, deliver_fn deliver)
    : self_(self), send_(std::move(send)), deliver_(std::move(deliver)) {}

void pipe_manager::set_metrics(metrics_registry& reg) {
  rejected_pkts_ = &reg.get_counter("ilp.rx.rejected");
  no_pipe_drops_ = &reg.get_counter("ilp.rx.no_pipe");
  peer_down_ = &reg.get_counter("sn.pipe.peer_down");
  keepalive_sent_ = &reg.get_counter("sn.pipe.keepalive_sent");
  keepalive_acked_ = &reg.get_counter("sn.pipe.keepalive_acked");
  reconnects_ = &reg.get_counter("sn.pipe.reconnects");
}

std::uint32_t pipe_manager::fresh_spi() {
  // SPI bases are 31-bit (the top bit is the PSP epoch bit). Mix in the
  // element id so SPIs from different elements rarely collide in logs.
  const std::uint32_t spi =
      (next_spi_++ ^ static_cast<std::uint32_t>(self_ * 2654435761u)) & 0x7fffffffu;
  return spi == 0 ? 1 : spi;
}

void pipe_manager::connect(peer_id peer) {
  if (pipes_.count(peer) || pending_.count(peer)) return;
  start_handshake(peer);
}

void pipe_manager::start_handshake(peer_id peer) {
  flush();
  pending_state state;
  state.keypair = fresh_keypair();
  state.local_spi = fresh_spi();
  send_(peer, handshake_message(msg_kind::handshake_init, state.local_spi, state.keypair.public_key));
  pending_.emplace(peer, std::move(state));
}

void pipe_manager::send(peer_id peer, const ilp_header& header, bytes payload) {
  flush();
  auto it = pipes_.find(peer);
  if (it != pipes_.end()) {
    send_(peer, it->second->seal(header, payload));
    return;
  }
  auto pending_it = pending_.find(peer);
  if (pending_it == pending_.end()) {
    start_handshake(peer);
    pending_it = pending_.find(peer);
  }
  pending_it->second.queued.emplace_back(header, std::move(payload));
}

void pipe_manager::queue_span(peer_id peer, const ilp_header& header, const_byte_span payload) {
  auto it = pipes_.find(peer);
  if (it == pipes_.end()) {
    // Cold path: the packet queues behind the handshake, so it needs to
    // own its payload.
    send(peer, header, bytes(payload.begin(), payload.end()));
    return;
  }
  if (queue_.capacity() == 0) {
    // First use: room for a burst of ILP-sized heads, so the storage does
    // not grow again with whatever burst sizes follow (the SN's bursts are
    // at most 32 packets; kQueueHeadRoom covers a header with a trace
    // context).
    queue_.reserve(kQueueBurst);
    queue_arena_.reserve(kQueueBurst * kQueueHeadRoom);
    seal_jobs_.reserve(kQueueBurst);
    seal_scratch_.reserve(kQueueBurst * crypto::aead_keystream_blocks(kQueueHeadRoom));
  }
  pipe& p = *it->second;
  queue_.push_back(queued_send{peer, &p, p.stage_head(header, payload.size(), queue_arena_),
                               payload});
}

void pipe_manager::flush() {
  if (queue_.empty()) return;
  // A send hook that re-enters the manager would flush a queue this call
  // is still handing out.
  if (flushing_) throw std::logic_error("pipe_manager::flush re-entered from a send hook");
  flushing_ = true;
  struct reset {
    pipe_manager& m;
    ~reset() {
      m.queue_.clear();
      m.queue_arena_.clear();
      m.flushing_ = false;
    }
  } on_exit{*this};

  seal_jobs_.clear();
  for (const queued_send& q : queue_) seal_jobs_.push_back(q.p->seal_job(q.head, queue_arena_));
  crypto::seal_batch(seal_jobs_, seal_scratch_);
  for (const queued_send& q : queue_) {
    const const_byte_span head = const_byte_span(queue_arena_).subspan(q.head.offset, q.head.size);
    if (send_gather_) {
      send_gather_(q.peer, head, q.payload);
      continue;
    }
    bytes datagram;  // no zero-copy hook: glue an owned datagram
    datagram.reserve(head.size() + q.payload.size());
    datagram.insert(datagram.end(), head.begin(), head.end());
    datagram.insert(datagram.end(), q.payload.begin(), q.payload.end());
    send_(q.peer, std::move(datagram));
  }
}

void pipe_manager::on_datagram(peer_id peer, const_byte_span datagram) {
  flush();
  if (datagram.empty()) {
    reject(peer, refusal::empty);
    return;
  }
  const auto kind = static_cast<msg_kind>(datagram[0]);
  const const_byte_span body = datagram.subspan(1);
  switch (kind) {
    case msg_kind::handshake_init:
      handle_init(peer, body);
      break;
    case msg_kind::handshake_resp:
      handle_resp(peer, body);
      break;
    case msg_kind::data:
      handle_data(peer, body);
      break;
    case msg_kind::keepalive:
      handle_keepalive(peer, body);
      break;
    case msg_kind::keepalive_ack:
      handle_keepalive_ack(peer, body);
      break;
    default:
      reject(peer, refusal::unknown_kind);
  }
}

void pipe_manager::reject(peer_id peer, refusal why, std::size_t n) {
  static constexpr const char* kRefusalNames[] = {
      "empty",
      "unknown-kind",
      "malformed-handshake-init",
      "malformed-handshake-resp",
      "auth-reject",
      "keepalive-auth-reject",
      "keepalive-ack-auth-reject",
  };
  static_assert(std::size(kRefusalNames) == static_cast<std::size_t>(refusal::count));
  if (rejected_pkts_) rejected_pkts_->add(n);
  std::uint64_t& total = refused_[static_cast<std::size_t>(why)];
  const std::uint64_t before = total;
  total += n;
  // Some power of two lies in (before, total].
  if (std::bit_floor(total) <= before) return;
  IE_LOG(warn) << "pipe_manager" << kv("self", self_) << kv("peer", peer)
               << kv("drop", kRefusalNames[static_cast<std::size_t>(why)]) << kv("pkts", n)
               << kv("total", total);
}

void pipe_manager::handle_init(peer_id peer, const_byte_span body) {
  try {
    reader r(body);
    const std::uint32_t remote_spi = r.u32();
    crypto::x25519_key remote_pub;
    const const_byte_span pub = r.raw(32);
    std::copy(pub.begin(), pub.end(), remote_pub.begin());

    // Duplicate of an init we already answered (our response was lost):
    // resend the identical response so the initiator can complete.
    auto memo_it = responder_memos_.find(peer);
    if (memo_it != responder_memos_.end() &&
        memo_it->second.init_body.size() == body.size() &&
        std::equal(body.begin(), body.end(), memo_it->second.init_body.begin())) {
      send_(peer, memo_it->second.response);
      return;
    }
    // A *different* init while a pipe exists means the peer restarted its
    // handshake state: fall through and re-establish.

    // Simultaneous-open tie-break: the element with the larger id yields
    // (acts as responder); the smaller id's init is the one answered.
    auto pending_it = pending_.find(peer);
    if (pending_it != pending_.end() && self_ < peer) {
      return;  // our init outranks theirs; they will answer it
    }

    std::vector<std::pair<ilp_header, bytes>> queued;
    if (pending_it != pending_.end()) {
      queued = std::move(pending_it->second.queued);
      pending_.erase(pending_it);
    }

    const crypto::x25519_keypair keypair = fresh_keypair();
    const std::uint32_t local_spi = fresh_spi();
    bytes response =
        handshake_message(msg_kind::handshake_resp, local_spi, keypair.public_key);
    send_(peer, response);
    responder_memos_[peer] =
        responder_memo{bytes(body.begin(), body.end()), std::move(response)};
    establish(peer, keypair.secret, remote_pub, local_spi, remote_spi, /*initiator=*/false,
              std::move(queued));
  } catch (const serial_error&) {
    reject(peer, refusal::malformed_handshake_init);
  }
}

void pipe_manager::handle_resp(peer_id peer, const_byte_span body) {
  auto pending_it = pending_.find(peer);
  if (pending_it == pending_.end()) return;  // stale or duplicate response
  try {
    reader r(body);
    const std::uint32_t remote_spi = r.u32();
    crypto::x25519_key remote_pub;
    const const_byte_span pub = r.raw(32);
    std::copy(pub.begin(), pub.end(), remote_pub.begin());

    pending_state state = std::move(pending_it->second);
    pending_.erase(pending_it);
    establish(peer, state.keypair.secret, remote_pub, state.local_spi, remote_spi,
              /*initiator=*/true, std::move(state.queued));
  } catch (const serial_error&) {
    reject(peer, refusal::malformed_handshake_resp);
  }
}

void pipe_manager::establish(peer_id peer, const crypto::x25519_key& secret_scalar,
                             const crypto::x25519_key& peer_public, std::uint32_t local_spi,
                             std::uint32_t remote_spi, bool initiator,
                             std::vector<std::pair<ilp_header, bytes>> queued) {
  flush();  // queued heads name the pipe this may replace
  const crypto::x25519_key shared = crypto::x25519(secret_scalar, peer_public);
  auto p = std::make_unique<pipe>(const_byte_span(shared.data(), shared.size()), local_spi,
                                  remote_spi, initiator);
  ++handshakes_completed_;
  // Overwrite any existing pipe: a re-handshake (peer restart) supersedes
  // the old keys.
  auto& slot = pipes_[peer];
  slot = std::move(p);
  // New receive keys exist before any data sealed with them can arrive;
  // the observer propagates them (e.g. to worker-shard replicas) first.
  if (rx_keys_) rx_keys_(peer, *slot);
  // A (re)established pipe resets the peer's liveness state: probing
  // resumes from a clean slate and any reconnect backoff is cancelled.
  // The handshake we just completed used fresh X25519 ephemerals, so a
  // re-establishment is by construction a full rekey.
  if (liveness_clock_) {
    liveness_state& st = liveness_[peer];
    const bool was_down = st.stats.down;
    st.stats.down = false;
    st.awaiting_ack = false;
    st.consecutive_misses = 0;
    st.backoff = nanoseconds{0};
    if (was_down) {
      IE_LOG(info) << "pipe_manager" << kv("self", self_) << kv("peer", peer)
                   << kv("liveness", "recovered");
    }
    if (peer_status_) peer_status_(peer, true);
  }
  for (auto& [header, payload] : queued) {
    send_(peer, slot->seal(header, payload));
  }
}

void pipe_manager::on_datagram_batch_mut(peer_id peer, std::span<const byte_span> datagrams) {
  flush();
  // Without a batch deliver path there is nothing to amortize — reuse the
  // single-datagram path.
  if (!deliver_batch_) {
    for (const byte_span& d : datagrams) on_datagram(peer, d);
    return;
  }
  run_mut_scratch_.clear();
  auto end_run = [&] {
    if (!run_mut_scratch_.empty()) {
      flush_data_run_mut(peer, run_mut_scratch_);
      run_mut_scratch_.clear();
    }
  };
  for (const byte_span& datagram : datagrams) {
    if (!datagram.empty() && static_cast<msg_kind>(datagram[0]) == msg_kind::data) {
      run_mut_scratch_.push_back(datagram.subspan(1));
      continue;
    }
    // Handshake, keepalive or refused datagram: preserve arrival order
    // relative to the data packets around it, then handle inline.
    end_run();
    on_datagram(peer, datagram);
  }
  end_run();
}

// Decrypts one data run in place, counts its rejects and hands the opened
// packets to the batch deliverer.
void pipe_manager::flush_data_run_mut(peer_id peer, std::span<const byte_span> bodies) {
  auto it = pipes_.find(peer);
  if (it == pipes_.end()) {
    if (no_pipe_drops_) no_pipe_drops_->add(bodies.size());
    IE_LOG(debug) << "pipe_manager" << kv("self", self_) << kv("peer", peer)
                  << kv("drop", "data-before-pipe") << kv("pkts", bodies.size());
    return;
  }
  const std::size_t opened = it->second->decrypt_batch_mut(bodies, opened_scratch_);
  if (opened < bodies.size()) reject(peer, refusal::auth, bodies.size() - opened);
  batch_scratch_.clear();
  for (auto& o : opened_scratch_) {
    if (o) batch_scratch_.push_back(std::move(*o));
  }
  if (!batch_scratch_.empty()) {
    note_peer_alive(peer);  // authenticated traffic counts as liveness
    deliver_batch_(peer, batch_scratch_);
  }
}

void pipe_manager::handle_data(peer_id peer, const_byte_span body) {
  auto it = pipes_.find(peer);
  if (it == pipes_.end()) {
    if (no_pipe_drops_) no_pipe_drops_->add();
    IE_LOG(debug) << "pipe_manager" << kv("self", self_) << kv("peer", peer)
                  << kv("drop", "data-before-pipe");
    return;
  }
  auto opened = it->second->open(body);
  if (!opened) {
    reject(peer, refusal::auth);
    return;
  }
  note_peer_alive(peer);  // authenticated traffic counts as liveness
  deliver_(peer, opened->first, std::move(opened->second));
}

// ---- liveness ----------------------------------------------------------

void pipe_manager::enable_liveness(const clock& clk, std::uint64_t jitter_seed) {
  liveness_clock_ = &clk;
  jitter_rng_.emplace(jitter_seed);
  // Pipes established before liveness was armed get tracked from now on;
  // establish() only creates entries once liveness_clock_ is set.
  for (const auto& [peer, p] : pipes_) liveness_.try_emplace(peer);
}

const liveness_stats* pipe_manager::liveness_for(peer_id peer) const {
  auto it = liveness_.find(peer);
  return it == liveness_.end() ? nullptr : &it->second.stats;
}

void pipe_manager::note_peer_alive(peer_id peer) {
  if (!liveness_clock_) return;
  auto it = liveness_.find(peer);
  if (it == liveness_.end()) return;
  it->second.awaiting_ack = false;
  it->second.consecutive_misses = 0;
}

void pipe_manager::send_probe(peer_id peer, pipe& p, liveness_state& st) {
  // A probe is a normal sealed data message with the kind byte rewritten:
  // the receiver authenticates it with pipe::open(), so probes inherit the
  // pipe's anti-forgery and epoch handling with zero new crypto surface.
  ilp_header h;
  h.service = 0;  // below the standardized range: never a service packet
  h.connection = ++st.probe_seq;
  h.set_meta_u64(meta_key::service_data,
                 static_cast<std::uint64_t>(
                     liveness_clock_->now().time_since_epoch().count()));
  bytes msg = p.seal(h, {});
  msg[0] = static_cast<std::uint8_t>(msg_kind::keepalive);
  st.awaiting_ack = true;
  ++st.stats.probes_sent;
  if (keepalive_sent_) keepalive_sent_->add();
  send_(peer, std::move(msg));
}

void pipe_manager::handle_keepalive(peer_id peer, const_byte_span body) {
  auto it = pipes_.find(peer);
  if (it == pipes_.end()) {
    if (no_pipe_drops_) no_pipe_drops_->add();
    return;
  }
  auto opened = it->second->open(body);
  if (!opened) {
    reject(peer, refusal::keepalive_auth);
    return;
  }
  note_peer_alive(peer);
  // Echo the probe header (sequence + sender timestamp) back under our own
  // tx key so the prober can authenticate the ack and compute RTT.
  bytes ack = it->second->seal(opened->first, {});
  ack[0] = static_cast<std::uint8_t>(msg_kind::keepalive_ack);
  send_(peer, std::move(ack));
}

void pipe_manager::handle_keepalive_ack(peer_id peer, const_byte_span body) {
  auto it = pipes_.find(peer);
  if (it == pipes_.end()) {
    if (no_pipe_drops_) no_pipe_drops_->add();
    return;
  }
  auto opened = it->second->open(body);
  if (!opened) {
    reject(peer, refusal::keepalive_ack_auth);
    return;
  }
  note_peer_alive(peer);
  auto lv = liveness_.find(peer);
  if (lv == liveness_.end()) return;
  ++lv->second.stats.acks_received;
  if (keepalive_acked_) keepalive_acked_->add();
  if (liveness_clock_) {
    if (auto sent_ns = opened->first.meta_u64(meta_key::service_data)) {
      const std::int64_t now_ns = liveness_clock_->now().time_since_epoch().count();
      const std::int64_t rtt = now_ns - static_cast<std::int64_t>(*sent_ns);
      if (rtt >= 0) {
        std::uint64_t& ewma = lv->second.stats.rtt_ns;
        ewma = ewma == 0 ? static_cast<std::uint64_t>(rtt)
                         : (ewma * 7 + static_cast<std::uint64_t>(rtt)) / 8;
      }
    }
  }
}

void pipe_manager::declare_down(peer_id peer, liveness_state& st, time_point now) {
  flush();  // queued heads name the pipe torn down below
  st.stats.down = true;
  ++st.stats.times_down;
  st.awaiting_ack = false;
  st.consecutive_misses = 0;
  // Tear the pipe (and the responder memo) down: stale keys must not
  // accept traffic from whatever comes back claiming to be this peer, and
  // the reconnect handshake below rekeys from scratch.
  pipes_.erase(peer);
  responder_memos_.erase(peer);
  pending_.erase(peer);
  if (peer_down_) peer_down_->add();
  IE_LOG(warn) << "pipe_manager" << kv("self", self_) << kv("peer", peer)
               << kv("liveness", "peer-down") << kv("missed", st.stats.missed);
  if (peer_status_) peer_status_(peer, false);
  st.backoff = kReconnectBackoff;
  attempt_reconnect(peer, st, now);
}

void pipe_manager::attempt_reconnect(peer_id peer, liveness_state& st, time_point now) {
  ++st.stats.reconnect_attempts;
  if (reconnects_) reconnects_->add();
  auto pending_it = pending_.find(peer);
  if (pending_it != pending_.end()) {
    // Re-send the outstanding init (responders are stateless until they
    // answer, so duplicates are harmless).
    send_(peer, handshake_message(msg_kind::handshake_init, pending_it->second.local_spi,
                                  pending_it->second.keypair.public_key));
  } else {
    start_handshake(peer);
  }
  // Exponential backoff with additive jitter so a fleet of peers probing a
  // recovered node doesn't synchronize its retries.
  nanoseconds jitter{0};
  if (jitter_rng_ && st.backoff.count() > 0) {
    jitter = nanoseconds(static_cast<std::int64_t>(
        jitter_rng_->below(static_cast<std::uint64_t>(st.backoff.count() / 4) + 1)));
  }
  st.next_attempt = now + st.backoff + jitter;
  st.backoff = std::min(st.backoff * 2, kReconnectBackoffMax);
}

void pipe_manager::liveness_tick() {
  if (!liveness_clock_) return;
  flush();
  const time_point now = liveness_clock_->now();
  for (auto& [peer, st] : liveness_) {
    if (st.stats.down) {
      if (now >= st.next_attempt) attempt_reconnect(peer, st, now);
      continue;
    }
    auto it = pipes_.find(peer);
    if (it == pipes_.end()) continue;  // handshake in flight; not probed yet
    if (st.awaiting_ack) {
      ++st.stats.missed;
      ++st.consecutive_misses;
      if (st.consecutive_misses >= kMissBudget) {
        declare_down(peer, st, now);
        continue;
      }
    }
    send_probe(peer, *it->second, st);
  }
}

bool pipe_manager::has_pipe(peer_id peer) const { return pipes_.count(peer) > 0; }

void pipe_manager::retry_pending() {
  flush();
  for (auto& [peer, state] : pending_) {
    send_(peer,
          handshake_message(msg_kind::handshake_init, state.local_spi, state.keypair.public_key));
  }
}

void pipe_manager::rotate_all() {
  flush();
  for (auto& [peer, p] : pipes_) {
    p->rotate_tx();
    p->rotate_rx();
    if (rx_keys_) rx_keys_(peer, *p);
  }
}

ilp::pipe* pipe_manager::pipe_for(peer_id peer) {
  auto it = pipes_.find(peer);
  return it == pipes_.end() ? nullptr : it->second.get();
}

const pipe_stats* pipe_manager::stats_for(peer_id peer) const {
  auto it = pipes_.find(peer);
  return it == pipes_.end() ? nullptr : &it->second->stats();
}

}  // namespace interedge::ilp
