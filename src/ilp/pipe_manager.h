// Pipe manager: owns all ILP pipes of one InterEdge element (a host stack
// or a service node) and runs the establishment handshake.
//
// Handshake: single round trip. Each side contributes an ephemeral X25519
// key and an SPI base; the shared secret plus direction labels yield the
// two directional PSP master keys ("created when the sender and the
// receiver first connect with each other" — §4). Once a pipe exists, data
// packets carry zero handshake overhead.
//
// Transport-agnostic: the owner supplies a send function and feeds received
// datagrams in via on_datagram(), so the same code runs over the simulator,
// a real socket, or a benchmark loop.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "crypto/x25519.h"
#include "ilp/pipe.h"

namespace interedge::ilp {

struct liveness_stats {
  std::uint64_t probes_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t missed = 0;  // total probe intervals with no ack
  std::uint64_t rtt_ns = 0;  // EWMA over acked probes
  std::uint64_t times_down = 0;
  std::uint64_t reconnect_attempts = 0;
  bool down = false;
};

class pipe_manager {
 public:
  using send_fn = std::function<void(peer_id peer, bytes datagram)>;
  using deliver_fn = std::function<void(peer_id peer, const ilp_header&, bytes payload)>;
  // Batch delivery: every data packet of one ingress batch in one call.
  // Packets are mutable so the receiver can move the headers out; payload
  // spans alias the datagram buffers passed to on_datagram_batch_mut.
  using deliver_batch_fn = std::function<void(peer_id peer, std::span<opened_packet> packets)>;

  // Zero-copy egress hook (optional): the sealed message head and the
  // payload stay separate buffers, to be glued by scatter-gather I/O
  // (udp_endpoint::send_gather). Both spans are valid only for the
  // duration of the call. Without it, flush() glues each datagram and
  // hands it to the owning send_fn.
  using send_gather_fn =
      std::function<void(peer_id peer, const_byte_span head, const_byte_span payload)>;

  pipe_manager(peer_id self, send_fn send, deliver_fn deliver);

  // Sends over the pipe to `peer`, establishing it first if needed
  // (packets queue behind the handshake).
  void send(peer_id peer, const ilp_header& header, bytes payload);

  // Egress queue: queue_span encodes the header into the queue's arena at
  // once (the header object may die after the call) and keeps `payload`
  // as a view, which must stay valid until the next flush(). flush() seals
  // every queued head in one multi-key crypto::seal_batch, then hands each
  // (head, payload) to the gather hook in queue order. Every other entry
  // point (send, handshakes, keepalives and acks, establishment, rotation,
  // liveness and every on_datagram*) flushes first, so datagrams leave in
  // exactly the order they were sent or queued, and no queued pipe outlives
  // a re-handshake, rotation or teardown. A peer without a pipe takes the
  // cold path: an owned copy queued behind the handshake. The queue's
  // storage grows on first use and is reused.
  void queue_span(peer_id peer, const ilp_header& header, const_byte_span payload);
  void flush();

  // Zero-copy send: queue_span + flush.
  void send_span(peer_id peer, const ilp_header& header, const_byte_span payload) {
    queue_span(peer, header, payload);
    flush();
  }

  void set_send_gather(send_gather_fn f) { send_gather_ = std::move(f); }

  // Feeds a received datagram (handshake or data) into the manager. Every
  // datagram it refuses — empty, an unknown kind, a malformed handshake,
  // data that fails to open — is counted in ilp.rx.rejected (data from a
  // peer without a pipe in ilp.rx.no_pipe) and logged.
  void on_datagram(peer_id peer, const_byte_span datagram);

  // Batch ingress over MUTABLE datagram buffers (pool slabs): a burst from
  // one peer. Runs of data messages are decrypted in place via
  // pipe::decrypt_batch_mut and handed to the batch deliver callback in
  // one call (falling back to per-packet deliver when none is set) — the
  // delivered packets' headers were decrypted over their own ciphertext
  // and payload spans alias the slabs, which must stay live (and unmoved)
  // until the callback returns. Every other datagram goes through
  // on_datagram inline, in arrival order.
  void on_datagram_batch_mut(peer_id peer, std::span<const byte_span> datagrams);

  // Installs the batch delivery path used by on_datagram_batch_mut.
  void set_batch_deliver(deliver_batch_fn deliver_batch) {
    deliver_batch_ = std::move(deliver_batch);
  }

  // Observer fired whenever a peer's receive keys change: pipe established
  // (or re-established after a peer restart) and rx epoch rotation. The
  // sharded datapath uses this to push fresh pipe_rx replicas to worker
  // shards; the hook runs on the owner's thread, before any packet that
  // needs the new keys can be processed.
  using rx_keys_fn = std::function<void(peer_id peer, const pipe& p)>;
  void set_rx_keys_hook(rx_keys_fn hook) { rx_keys_ = std::move(hook); }

  // The established pipe for `peer`, if any — steering peeks and replica
  // snapshots; owner-thread only.
  pipe* pipe_for(peer_id peer);

  // Resolves drop/error counters once so rejected datagrams are counted
  // and logged in the same place — ingress drops are never silent.
  void set_metrics(metrics_registry& reg);

  // Proactively establishes a pipe (used for the long-lived inter-edomain
  // peering pipes of §3.2).
  void connect(peer_id peer);

  bool has_pipe(peer_id peer) const;
  std::size_t pipe_count() const { return pipes_.size(); }
  std::size_t pending_handshakes() const { return pending_.size(); }

  // ---- liveness ----
  // Consecutive unanswered probes that declare a peer down, and the
  // reconnect backoff: kReconnectBackoff after the first attempt, doubling
  // up to kReconnectBackoffMax, each plus up to a quarter of jitter.
  static constexpr std::uint32_t kMissBudget = 3;
  static constexpr nanoseconds kReconnectBackoff = std::chrono::milliseconds(50);
  static constexpr nanoseconds kReconnectBackoffMax = std::chrono::seconds(2);

  // Arms keepalive probing. The manager does not own a timer: the owner
  // drives liveness_tick() from its own (the clock is only read, so any
  // clock& — simulated or real — works). Reconnect jitter is
  // deterministic given the seed (simulator-friendly).
  static constexpr std::uint64_t kDefaultJitterSeed = 0x11fe11fe;
  void enable_liveness(const clock& clk, std::uint64_t jitter_seed = kDefaultJitterSeed);
  bool liveness_enabled() const { return liveness_clock_ != nullptr; }

  // One probe round: counts outstanding probes as misses, declares
  // peers past the miss budget down (pipe torn down, status hook fired,
  // reconnect scheduled), sends the next round of probes, and drives
  // pending reconnects whose backoff has elapsed.
  void liveness_tick();

  // Observer fired on peer transitions: up=true when a pipe (re)establishes
  // while liveness is enabled, up=false when the miss budget declares the
  // peer dead. Runs on the owner's thread.
  using peer_status_fn = std::function<void(peer_id peer, bool up)>;
  void set_peer_status_hook(peer_status_fn hook) { peer_status_ = std::move(hook); }

  // Liveness stats for `peer`; nullptr if no probe state exists yet.
  const liveness_stats* liveness_for(peer_id peer) const;

  // Rotates the tx key of every established pipe (rekey schedule).
  void rotate_all();

  // Re-sends the initiation for every handshake still pending — datagrams
  // (including handshakes) can be lost; owners call this on a timer.
  // Queued packets are preserved; the responder side is stateless until it
  // answers, so duplicate inits are harmless.
  void retry_pending();

  const pipe_stats* stats_for(peer_id peer) const;
  std::uint64_t handshakes_completed() const { return handshakes_completed_; }

 private:
  struct pending_state {
    crypto::x25519_keypair keypair;
    std::uint32_t local_spi = 0;
    std::vector<std::pair<ilp_header, bytes>> queued;
  };
  // Responder-side memo: lets a duplicate init (our response was lost) be
  // re-answered idempotently instead of deadlocking the initiator.
  struct responder_memo {
    bytes init_body;
    bytes response;
  };

  // Per-peer probe/reconnect state. `stats.down` flips the entry from
  // probing mode into reconnect mode until the next establish().
  struct liveness_state {
    liveness_stats stats;
    bool awaiting_ack = false;
    std::uint32_t consecutive_misses = 0;
    std::uint64_t probe_seq = 0;
    nanoseconds backoff{0};
    time_point next_attempt{};
  };

  void start_handshake(peer_id peer);
  void flush_data_run_mut(peer_id peer, std::span<const byte_span> bodies);
  // Why a datagram was refused; indexes refused_ and kRefusalNames.
  enum class refusal : std::uint8_t {
    empty,
    unknown_kind,
    malformed_handshake_init,
    malformed_handshake_resp,
    auth,
    keepalive_auth,
    keepalive_ack_auth,
    count
  };
  // Counts `n` refused datagrams in ilp.rx.rejected. Logs a reason's 1st,
  // 2nd, 4th, 8th, ... refusal with its running total, so a hostile flood
  // costs a counter add per datagram, not a formatted log line.
  void reject(peer_id peer, refusal why, std::size_t n = 1);
  void handle_init(peer_id peer, const_byte_span body);
  void handle_resp(peer_id peer, const_byte_span body);
  void handle_data(peer_id peer, const_byte_span body);
  void handle_keepalive(peer_id peer, const_byte_span body);
  void handle_keepalive_ack(peer_id peer, const_byte_span body);
  void send_probe(peer_id peer, pipe& p, liveness_state& st);
  void note_peer_alive(peer_id peer);
  void declare_down(peer_id peer, liveness_state& st, time_point now);
  void attempt_reconnect(peer_id peer, liveness_state& st, time_point now);
  void establish(peer_id peer, const crypto::x25519_key& secret_scalar,
                 const crypto::x25519_key& peer_public, std::uint32_t local_spi,
                 std::uint32_t remote_spi, bool initiator,
                 std::vector<std::pair<ilp_header, bytes>> queued);
  std::uint32_t fresh_spi();

  peer_id self_;
  send_fn send_;
  send_gather_fn send_gather_;
  deliver_fn deliver_;
  deliver_batch_fn deliver_batch_;
  rx_keys_fn rx_keys_;
  peer_status_fn peer_status_;
  counter* rejected_pkts_ = nullptr;  // auth/parse failures (see set_metrics)
  std::array<std::uint64_t, static_cast<std::size_t>(refusal::count)> refused_{};
  counter* no_pipe_drops_ = nullptr;  // data before any pipe exists
  counter* peer_down_ = nullptr;
  counter* keepalive_sent_ = nullptr;
  counter* keepalive_acked_ = nullptr;
  counter* reconnects_ = nullptr;
  const clock* liveness_clock_ = nullptr;
  std::optional<rng> jitter_rng_;
  std::map<peer_id, liveness_state> liveness_;
  // Batch-path scratch, reused across on_datagram_batch_mut calls.
  std::vector<byte_span> run_mut_scratch_;
  std::vector<std::optional<opened_packet>> opened_scratch_;
  std::vector<opened_packet> batch_scratch_;
  // The egress queue (queue_span / flush). Heads live in the arena at the
  // offsets their entries record; payloads are the callers' views.
  struct queued_send {
    peer_id peer;
    pipe* p;
    staged_head head;
    const_byte_span payload;
  };
  static constexpr std::size_t kQueueBurst = 32;
  static constexpr std::size_t kQueueHeadRoom = 128;
  std::vector<queued_send> queue_;
  bytes queue_arena_;
  std::vector<crypto::psp_seal_job> seal_jobs_;
  crypto::psp_batch_scratch seal_scratch_;
  bool flushing_ = false;
  std::map<peer_id, std::unique_ptr<pipe>> pipes_;
  std::map<peer_id, pending_state> pending_;
  std::map<peer_id, responder_memo> responder_memos_;
  std::uint32_t next_spi_ = 1;
  std::uint64_t handshakes_completed_ = 0;
};

}  // namespace interedge::ilp
