// An established ILP pipe: the encrypted channel between two adjacent
// InterEdge elements (host<->SN or SN<->SN).
//
// Per the paper's trust model (§4), only the ILP *header* is sealed with the
// pipe's hop key; the application payload is protected end-to-end with a key
// the pipe never sees. The seal binds the payload length (splice detection)
// but intentionally not its contents — payload integrity is the endpoints'
// concern.
//
// Wire format of a data message (after the 1-byte message kind):
//   varint sealed_len || psp_wire(sealed ILP header) || payload
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/serial.h"
#include "crypto/psp.h"
#include "ilp/header.h"

namespace interedge::ilp {

// Message kinds on the wire between two elements.
enum class msg_kind : std::uint8_t {
  handshake_init = 1,
  handshake_resp = 2,
  data = 3,
  // Liveness probes (pipe_manager): a sealed ILP header authenticated with
  // the pipe's hop key, distinguished from data only by the kind byte so an
  // off-path attacker can neither forge nor replay them across pipes.
  keepalive = 4,
  keepalive_ack = 5,
};

struct pipe_stats {
  std::uint64_t sealed = 0;
  std::uint64_t opened = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rekeys = 0;
};

// One decrypted ingress packet from a batch. The payload is a view into
// the caller's datagram buffer — valid only until those buffers change.
struct opened_packet {
  ilp_header header;
  const_byte_span payload;
};

// Steering peek result: the flow tuple read from a sealed data message
// without authenticating it (see pipe::peek_flow_batch).
struct flow_peek {
  bool ok = false;
  std::uint32_t service = 0;
  std::uint64_t connection = 0;
};

// A data-message head staged for a batch seal (pipe::stage_head): offsets
// into the caller's arena, so the arena may grow while heads are staged.
// The 8-byte payload-length AAD follows the head in the arena.
struct staged_head {
  std::uint32_t offset = 0;  // the kind byte
  std::uint32_t size = 0;    // kind byte .. tag
  std::uint32_t sealed = 0;  // spi || iv || ciphertext || tag, from offset
};

namespace detail {

// Receive-side decrypt engine: the PSP rx context plus the scratch the
// batched open needs. Shared by pipe (the control-thread rx path) and
// pipe_rx (worker-shard replicas), so a replica runs the identical
// datapath the pipe itself would.
class rx_core {
 public:
  explicit rx_core(crypto::psp_context ctx) : ctx_(std::move(ctx)) {}

  std::optional<std::pair<ilp_header, bytes>> open(const_byte_span body, pipe_stats& stats);
  // Batch open over MUTABLE buffers (pool slabs): each authenticated
  // header is decrypted over its own ciphertext inside the buffer — no
  // plaintext arena, no allocation. `out` is resized to bodies.size();
  // out[i] is nullopt where authentication or parsing failed, and its
  // payload span aliases the body. The body's sealed region is destroyed
  // (overwritten with plaintext) for every packet that passed
  // authentication, so a body cannot be re-opened. Safe because psp's
  // open verifies the tag before any byte is written (see psp.h).
  std::size_t decrypt_batch_mut(std::span<const byte_span> bodies,
                                std::vector<std::optional<opened_packet>>& out,
                                pipe_stats& stats);
  void rotate() { ctx_.rotate(); }
  const crypto::psp_context& ctx() const { return ctx_; }

 private:
  crypto::psp_context ctx_;
  bytes open_scratch_;  // decrypted header, reused across opens
  // decrypt_batch_mut scratch, reused across calls.
  std::vector<const_byte_span> sealed_scratch_;
  std::vector<const_byte_span> payload_scratch_;
  std::vector<const_byte_span> aad_scratch_;
  std::vector<byte_span> dst_scratch_;
  bytes aad_bytes_scratch_;
  std::unique_ptr<bool[]> ok_scratch_;
  std::size_t ok_capacity_ = 0;
};

}  // namespace detail

// A decrypt-only replica of one pipe's receive side, private to a worker
// shard: same keys (current + previous epoch at copy time), own scratch,
// own stats — no state is shared with the originating pipe, so a replica
// is usable from another thread with no synchronization. Key epochs do
// not follow the pipe automatically; the owner re-replicates (or calls
// rotate()) on the same schedule it rotates the pipe.
class pipe_rx {
 public:
  explicit pipe_rx(crypto::psp_context rx) : core_(std::move(rx)) {}

  // Batch ingress: decrypts headers in place inside the (mutable) bodies
  // — see rx_core::decrypt_batch_mut.
  std::size_t decrypt_batch_mut(std::span<const byte_span> bodies,
                                std::vector<std::optional<opened_packet>>& out) {
    return core_.decrypt_batch_mut(bodies, out, stats_);
  }
  void rotate() { core_.rotate(); }
  const pipe_stats& stats() const { return stats_; }

 private:
  detail::rx_core core_;
  pipe_stats stats_;
};

class pipe {
 public:
  // `secret` is the X25519 shared secret; `initiator` selects the key
  // direction so the two ends derive mirrored tx/rx contexts.
  pipe(const_byte_span secret, std::uint32_t local_spi, std::uint32_t remote_spi, bool initiator);

  // Builds a full data message (kind byte included).
  bytes seal(const ilp_header& header, const_byte_span payload);

  // Scratch-reuse variant: clears `out` and writes the full data message
  // into it. With a reused `out` the only steady-state heap traffic is the
  // header metadata map — the seal itself allocates nothing.
  void seal_into(const ilp_header& header, const_byte_span payload, bytes& out);

  // Queued egress (pipe_manager::queue_span): appends an unsealed message
  // head for `header` with a `payload_len`-byte payload to `arena` — the
  // kind byte, the varint framing, then the sealed region with the
  // encoded header in the clear where its ciphertext goes — followed by
  // the payload-length AAD. The header object may die after the call;
  // the payload is supplied as a second iovec at send time
  // (udp_endpoint::send_gather), so head and payload are never glued.
  staged_head stage_head(const ilp_header& header, std::size_t payload_len, bytes& arena);

  // The job that seals a head staged in `arena` in place: one job of a
  // multi-key crypto::seal_batch, whose bytes equal a single seal_into of
  // the same header at the same IV. Counts the packet as sealed.
  crypto::psp_seal_job seal_job(const staged_head& head, bytes& arena);

  // Parses a data message body (kind byte already consumed).
  // nullopt if the header fails to authenticate or the message is malformed.
  std::optional<std::pair<ilp_header, bytes>> open(const_byte_span body);

  // Batch ingress over mutable buffers (pool slabs): opens every
  // data-message body in one call. Plaintext headers overwrite their
  // ciphertext, payload spans alias the bodies, nothing is copied. Returns
  // the number of packets opened. See detail::rx_core::decrypt_batch_mut.
  std::size_t decrypt_batch_mut(std::span<const byte_span> bodies,
                                std::vector<std::optional<opened_packet>>& out);

  // Flow-steering peek over a batch of data-message bodies: reads each
  // packet's leading (service, connection) header fields with one
  // unauthenticated cipher block per packet (multi-stream batched), no
  // full open. out[i].ok is false on malformed framing or unknown SPI —
  // such packets can be steered anywhere (or handled inline); whoever
  // performs the authenticated open makes the accept/reject decision.
  std::size_t peek_flow_batch(std::span<const const_byte_span> bodies,
                              std::vector<flow_peek>& out);

  // Snapshot of the receive side for a worker shard (see pipe_rx).
  pipe_rx rx_replica() const { return pipe_rx(rx_.ctx()); }

  // Unilateral sender-side rekey; the peer keeps accepting the previous
  // epoch, so no coordination round-trip is needed.
  void rotate_tx() {
    tx_.rotate();
    ++stats_.rekeys;
  }
  // Receive-side epoch advance (driven by observing the peer's new SPI or by
  // the same schedule).
  void rotate_rx() { rx_.rotate(); }

  const pipe_stats& stats() const { return stats_; }
  std::uint64_t tx_epoch() const { return tx_.epoch(); }

 private:
  crypto::psp_context tx_;
  detail::rx_core rx_;
  pipe_stats stats_;
  writer header_scratch_;  // encoded-header reuse across seals
  // peek_flow_batch scratch, reused across calls.
  std::vector<const_byte_span> peek_sealed_scratch_;
  bytes peek_prefix_scratch_;
  std::unique_ptr<bool[]> peek_ok_scratch_;
  std::size_t peek_ok_capacity_ = 0;
};

}  // namespace interedge::ilp
