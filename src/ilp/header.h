// ILP header (paper §4, Figure 2).
//
// "Other than requiring that the initial portion of the ILP header contain a
// service ID and connection ID, we place no limits on the length or contents
// of a packet's ILP header."  We therefore model the service-specific
// portion as TLV metadata: services may attach arbitrary blobs, and may vary
// them per packet within a connection.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/trace_context.h"

namespace interedge {
class writer;
}

namespace interedge::ilp {

using service_id = std::uint32_t;
using connection_id = std::uint64_t;

// Flat endpoint address (the paper's name services map service-specific
// names to an address plus the SNs associated with the destination host).
using edge_addr = std::uint64_t;
inline constexpr edge_addr kInvalidAddr = 0;

// L3-level identifier of an adjacent InterEdge element (host or SN). In
// this implementation a host's peer_id and edge_addr coincide numerically.
using peer_id = std::uint64_t;

// Well-known service IDs for the standardized service modules (§6).
// The governance body assigns these; experimental services use >= 0x8000.
namespace svc {
inline constexpr service_id null_service = 1;
inline constexpr service_id delivery = 2;       // IP-like bundle (+ optional caching)
inline constexpr service_id pubsub = 3;
inline constexpr service_id multicast = 4;
inline constexpr service_id anycast = 5;
inline constexpr service_id last_hop_qos = 6;
inline constexpr service_id odns = 7;
inline constexpr service_id mixnet = 8;
inline constexpr service_id ddos_protect = 9;
inline constexpr service_id vpn = 10;
inline constexpr service_id message_queue = 11;
inline constexpr service_id ordered_delivery = 12;
inline constexpr service_id bulk_delivery = 13;
inline constexpr service_id firewall = 14;      // operator-imposed pass-through
inline constexpr service_id streaming = 15;     // bitrate-adaptive media delivery
inline constexpr service_id mobility = 16;      // mobility lookup service
inline constexpr service_id cluster = 17;       // cluster interconnection

// Human-readable name for metric labels and logs; "other" for ids outside
// the standardized range (experimental services, malformed headers).
const char* name(service_id id);
}  // namespace svc

// Header flags.
inline constexpr std::uint16_t kFlagControl = 1 << 0;   // out-of-band host<->SN control
inline constexpr std::uint16_t kFlagToHost = 1 << 1;    // delivery leg toward a host
inline constexpr std::uint16_t kFlagFromHost = 1 << 2;  // first leg from a host

// Well-known metadata keys. Values >= 0x100 are service-private.
enum class meta_key : std::uint16_t {
  dest_addr = 1,       // u64: final destination host
  src_addr = 2,        // u64: originating host
  payer = 3,           // payment-context token (who arranged the service)
  bundle_options = 4,  // u64 bitmask of optional bundle settings
  service_data = 5,    // opaque service-specific blob
  control_op = 6,      // control-plane operation name
  reply_to = 7,        // u64: address control replies should target
  trace_ctx = 8,       // cross-hop trace context (common/trace_context.h);
                       // versioned — un-upgraded peers ignore it like any
                       // unknown TLV key, upgraded peers ignore unknown
                       // versions
};

// Inline capacity of a header's metadata section, in bytes. Sized from
// measured traffic: delivery headers carry 22 B (dest + src address),
// pub/sub publishes at most 42 B and the scenario suites at most 79 B.
// A larger section spills to the heap; the paper places no limit on the
// length of the header, so there is no reject.
inline constexpr std::size_t kInlineMetadata = 88;

struct ilp_header {
  service_id service = 0;
  connection_id connection = 0;
  std::uint16_t flags = 0;

  bytes encode() const;
  // Appends the encoding to `w` (scratch-reuse variant for the datapath).
  void encode_into(writer& w) const;
  // Throws interedge::serial_error on malformed input. Input whose
  // metadata is not canonical (unsorted or duplicate keys, over-long
  // length varints) is normalized: the last duplicate wins and encode()
  // writes the canonical form.
  static ilp_header decode(const_byte_span data);

  // Typed metadata accessors.
  void set_meta(meta_key key, const_byte_span value) {
    set_meta_raw(static_cast<std::uint16_t>(key), value);
  }
  void set_meta_u64(meta_key key, std::uint64_t value);
  void set_meta_str(meta_key key, std::string_view value);
  std::optional<const_byte_span> meta(meta_key key) const {
    return meta_raw(static_cast<std::uint16_t>(key));
  }
  std::optional<std::uint64_t> meta_u64(meta_key key) const;
  std::optional<std::string> meta_str(meta_key key) const;

  // Raw-key access, for service-private keys (>= 0x100). A returned span
  // points into the header and stays valid until the header changes.
  void set_meta_raw(std::uint16_t key, const_byte_span value);
  std::optional<const_byte_span> meta_raw(std::uint16_t key) const;
  bool erase_meta(std::uint16_t key);

  // Trace-context carriage (ISSUE 5). Only sampled packets carry one, so
  // trace_ctx() on the common path is a single failed metadata lookup.
  void set_trace(const trace::trace_context& ctx) {
    const auto wire = ctx.encode();
    set_meta(meta_key::trace_ctx, wire);
  }
  std::optional<trace::trace_context> trace_ctx() const {
    const auto raw = meta(meta_key::trace_ctx);
    if (!raw) return std::nullopt;
    return trace::trace_context::decode(*raw);
  }

  bool operator==(const ilp_header& o) const {
    return service == o.service && connection == o.connection && flags == o.flags &&
           meta_.count == o.meta_.count && meta_.size == o.meta_.size &&
           std::memcmp(meta_.data(), o.meta_.data(), meta_.size) == 0;
  }

 private:
  // The metadata section exactly as it appears on the wire after the
  // entry count: `u16 key | varint len | value` per entry, keys strictly
  // increasing. The bytes live inline up to kInlineMetadata and on the
  // heap past it; copying a header copies them.
  struct section {
    section() = default;
    section(const section& o) { assign(o.data(), o.size, o.count); }
    section(section&& o) noexcept { take(o); }
    section& operator=(const section& o) {
      if (this != &o) assign(o.data(), o.size, o.count);
      return *this;
    }
    section& operator=(section&& o) noexcept {
      if (this != &o) {
        if (o.heap != nullptr) {
          delete[] heap;
          heap = nullptr;
          capacity = kInlineMetadata;
        }
        take(o);
      }
      return *this;
    }
    ~section() { delete[] heap; }

    const std::uint8_t* data() const { return heap != nullptr ? heap : inline_bytes; }
    std::uint8_t* data() { return heap != nullptr ? heap : inline_bytes; }
    void assign(const std::uint8_t* src, std::size_t n, std::uint32_t entries);
    // Replaces `remove` bytes at `pos` with an uninitialized gap of
    // `insert` bytes and returns the gap.
    std::uint8_t* splice(std::size_t pos, std::size_t remove, std::size_t insert);

    std::uint8_t* heap = nullptr;  // null while the bytes fit inline
    std::size_t size = 0;
    std::size_t capacity = kInlineMetadata;
    std::uint32_t count = 0;
    std::uint8_t inline_bytes[kInlineMetadata];

   private:
    // Moves `o`'s bytes here (stealing its heap buffer) and empties it.
    void take(section& o) noexcept {
      if (o.heap != nullptr) {
        heap = o.heap;
        capacity = o.capacity;
        o.heap = nullptr;
        o.capacity = kInlineMetadata;
      } else {
        std::memcpy(data(), o.inline_bytes, o.size);
      }
      size = o.size;
      count = o.count;
      o.size = 0;
      o.count = 0;
    }
  };

  void normalize_meta(const_byte_span wire, std::uint64_t entries);

  section meta_;
};

}  // namespace interedge::ilp
