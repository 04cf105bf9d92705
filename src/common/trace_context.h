// Cross-hop trace context (ISSUE 5; Dapper-style context propagation).
//
// The context rides inside the sealed ILP header metadata
// (ilp::meta_key::trace_ctx), so it is encrypted hop-by-hop like the rest
// of the header and invisible to off-path observers. The sampling decision
// is made exactly once, at the origin (host_stack / tunnel ingress), and
// honored at every hop: unsampled packets carry NO context at all, so the
// per-hop cost of an unsampled packet is one failed metadata lookup.
//
// Wire layout (version 1, 19 bytes, little-endian):
//   u8  version      (1; decoders ignore unknown versions — un-upgraded
//                     peers already ignore unknown TLV keys, and upgraded
//                     peers must tolerate future layouts the same way)
//   u8  flags        (bit 0: sampled)
//   u8  hop_count    (incremented by each forwarding element)
//   u64 trace_id     (origin-allocated, nonzero)
//   u64 parent_span  (span id of the previous hop's span)
//
// Trailing bytes beyond the 19 are tolerated (forward compatibility: a
// future minor revision may append fields).
//
// This header is deliberately dependency-free (bytes only) so the ILP
// layer can include it without pulling in the metrics/trace machinery.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"

namespace interedge::trace {

inline constexpr std::uint8_t kTraceCtxVersion = 1;
inline constexpr std::uint8_t kTraceCtxSampled = 1 << 0;
inline constexpr std::size_t kTraceCtxSize = 19;

struct trace_context {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::uint8_t hop_count = 0;
  std::uint8_t flags = 0;

  bool sampled() const { return (flags & kTraceCtxSampled) != 0; }

  // The 19-byte wire form, built on the stack.
  std::array<std::uint8_t, kTraceCtxSize> encode() const {
    std::array<std::uint8_t, kTraceCtxSize> out;
    out[0] = kTraceCtxVersion;
    out[1] = flags;
    out[2] = hop_count;
    for (int i = 0; i < 8; ++i) out[3 + i] = static_cast<std::uint8_t>(trace_id >> (8 * i));
    for (int i = 0; i < 8; ++i) out[11 + i] = static_cast<std::uint8_t>(parent_span >> (8 * i));
    return out;
  }

  // nullopt on short input or unknown version — the caller treats the
  // packet as untraced, exactly like a peer that predates tracing.
  static std::optional<trace_context> decode(const_byte_span data) {
    if (data.size() < kTraceCtxSize || data[0] != kTraceCtxVersion) return std::nullopt;
    trace_context ctx;
    ctx.flags = data[1];
    ctx.hop_count = data[2];
    for (int i = 0; i < 8; ++i) ctx.trace_id |= static_cast<std::uint64_t>(data[3 + i]) << (8 * i);
    for (int i = 0; i < 8; ++i) {
      ctx.parent_span |= static_cast<std::uint64_t>(data[11 + i]) << (8 * i);
    }
    return ctx;
  }

  bool operator==(const trace_context&) const = default;
};

}  // namespace interedge::trace
