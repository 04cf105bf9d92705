// Shared vocabulary for the standardized service modules (paper §6).
//
// Service-private metadata keys live at >= 0x100; the well-known keys are
// in ilp/header.h. Control operations are the strings carried in
// meta_key::control_op on kFlagControl packets.
#pragma once

#include <cstdint>

#include "core/service_module.h"
#include "ilp/header.h"

namespace interedge::services {

// Cached metric handle (ISSUE 2): service modules resolve their counters
// once — in start(), or lazily on the first add for modules driven outside
// exec_env (bench harnesses call on_packet directly) — so the packet path
// never takes the registry mutex or the name-map lookup.
class counter_handle {
 public:
  explicit counter_handle(const char* name) : name_(name) {}

  void bind(core::service_context& ctx) { c_ = &ctx.metrics().get_counter(name_); }

  void add(core::service_context& ctx, std::uint64_t n = 1) {
    if (c_ == nullptr) bind(ctx);
    c_->add(n);
  }

  bool bound() const { return c_ != nullptr; }

 private:
  const char* name_;
  counter* c_ = nullptr;
};

// Service-private ILP metadata keys.
enum class skey : std::uint16_t {
  group = 0x100,          // str: topic / multicast group / anycast group name
  stage = 0x101,          // u64: fan-out relay stage (see fanout.h)
  target_domain = 0x102,  // u64: edomain a domain-relay copy is headed for
  content_key = 0x103,    // str: cache/CDN content identifier
  auth_token = 0x104,     // blob: capability (DDoS/VPN admission)
  queue_name = 0x105,     // str: message-queue name
  msg_seq = 0x106,        // u64: per-sender sequence number
  timestamp_ns = 0x107,   // u64: GPS-clock timestamp (ordered delivery)
  chunk_index = 0x108,    // u64: bulk-delivery chunk number
  chunk_count = 0x109,    // u64: total chunks in the object
  object_id = 0x10a,      // str: bulk-delivery object identifier
  origin_addr = 0x10b,    // u64: original source (when an SN re-originates)
};

inline void set_skey_u64(ilp::ilp_header& h, skey key, std::uint64_t value) {
  std::uint8_t enc[8];
  for (int i = 0; i < 8; ++i) enc[i] = static_cast<std::uint8_t>(value >> (8 * i));
  h.set_meta_raw(static_cast<std::uint16_t>(key), enc);
}

inline void set_skey_str(ilp::ilp_header& h, skey key, std::string_view value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(value.data());
  h.set_meta_raw(static_cast<std::uint16_t>(key), const_byte_span(p, value.size()));
}

inline void set_skey_bytes(ilp::ilp_header& h, skey key, const_byte_span value) {
  h.set_meta_raw(static_cast<std::uint16_t>(key), value);
}

inline std::optional<std::uint64_t> get_skey_u64(const ilp::ilp_header& h, skey key) {
  const auto v = h.meta_raw(static_cast<std::uint16_t>(key));
  if (!v || v->size() != 8) return std::nullopt;
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<std::uint64_t>((*v)[i]) << (8 * i);
  return out;
}

inline std::optional<std::string> get_skey_str(const ilp::ilp_header& h, skey key) {
  const auto v = h.meta_raw(static_cast<std::uint16_t>(key));
  if (!v) return std::nullopt;
  return to_string(*v);
}

inline std::optional<const_byte_span> get_skey_bytes(const ilp::ilp_header& h, skey key) {
  return h.meta_raw(static_cast<std::uint16_t>(key));
}

// Control operation names (standardized so configuration is portable
// across IESPs, §5).
namespace ops {
inline constexpr const char* subscribe = "subscribe";
inline constexpr const char* unsubscribe = "unsubscribe";
inline constexpr const char* join = "join";
inline constexpr const char* leave = "leave";
inline constexpr const char* register_sender = "register-sender";
inline constexpr const char* publish_ack = "ack";
inline constexpr const char* deny = "deny";
inline constexpr const char* qos_configure = "qos-configure";
inline constexpr const char* protect = "protect";
inline constexpr const char* allow = "allow";
inline constexpr const char* vpn_register = "vpn-register";
inline constexpr const char* vpn_auth_ok = "vpn-auth-ok";
inline constexpr const char* queue_create = "queue-create";
inline constexpr const char* queue_push = "queue-push";
inline constexpr const char* queue_pop = "queue-pop";
inline constexpr const char* queue_ack = "queue-ack";
inline constexpr const char* queue_msg = "queue-msg";
inline constexpr const char* queue_empty = "queue-empty";
}  // namespace ops

// Bundle option bits (meta_key::bundle_options) for the delivery bundle.
inline constexpr std::uint64_t kBundleCaching = 1 << 0;

}  // namespace interedge::services
