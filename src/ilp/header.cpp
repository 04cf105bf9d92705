#include "ilp/header.h"

#include <algorithm>
#include <vector>

#include "common/serial.h"

namespace interedge::ilp {

namespace svc {
const char* name(service_id id) {
  switch (id) {
    case null_service: return "null";
    case delivery: return "delivery";
    case pubsub: return "pubsub";
    case multicast: return "multicast";
    case anycast: return "anycast";
    case last_hop_qos: return "qos";
    case odns: return "odns";
    case mixnet: return "mixnet";
    case ddos_protect: return "ddos";
    case vpn: return "vpn";
    case message_queue: return "mq";
    case ordered_delivery: return "ordered";
    case bulk_delivery: return "bulk";
    case firewall: return "firewall";
    case streaming: return "streaming";
    case mobility: return "mobility";
    case cluster: return "cluster";
    default: return "other";
  }
}
}  // namespace svc

namespace {

constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// One entry of a canonical metadata section, as offsets into it.
struct entry {
  std::uint16_t key;
  std::size_t begin;  // the key's first byte
  std::size_t value;  // the value's first byte
  std::size_t end;    // one past the value
};

// Parses the entry at `pos`. Only for sections this header built or
// validated, so the bytes cannot be malformed.
entry entry_at(const std::uint8_t* p, std::size_t pos) {
  entry e;
  e.begin = pos;
  e.key = static_cast<std::uint16_t>(p[pos] | p[pos + 1] << 8);
  pos += 2;
  std::size_t len = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t b = p[pos++];
    len |= static_cast<std::size_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
  }
  e.value = pos;
  e.end = pos + len;
  return e;
}

// Writes `key | varint len | value` to `out`, which has room for it.
void write_entry(std::uint8_t* out, std::uint16_t key, const_byte_span value) {
  *out++ = static_cast<std::uint8_t>(key);
  *out++ = static_cast<std::uint8_t>(key >> 8);
  std::uint64_t len = value.size();
  for (; len >= 0x80; len >>= 7) *out++ = static_cast<std::uint8_t>(len) | 0x80;
  *out++ = static_cast<std::uint8_t>(len);
  if (!value.empty()) std::memcpy(out, value.data(), value.size());
}

std::size_t entry_size(const_byte_span value) {
  return 2 + varint_size(value.size()) + value.size();
}

}  // namespace

void ilp_header::section::assign(const std::uint8_t* src, std::size_t n, std::uint32_t entries) {
  if (n > capacity) {
    auto* grown = new std::uint8_t[n];
    delete[] heap;
    heap = grown;
    capacity = n;
  }
  if (n != 0) std::memcpy(data(), src, n);
  size = n;
  count = entries;
}

std::uint8_t* ilp_header::section::splice(std::size_t pos, std::size_t remove,
                                          std::size_t insert) {
  const std::size_t tail = size - pos - remove;
  const std::size_t grown_size = size - remove + insert;
  if (grown_size > capacity) {
    const std::size_t cap = std::max(grown_size, 2 * capacity);
    auto* grown = new std::uint8_t[cap];
    std::memcpy(grown, data(), pos);
    std::memcpy(grown + pos + insert, data() + pos + remove, tail);
    delete[] heap;
    heap = grown;
    capacity = cap;
  } else if (tail != 0 && remove != insert) {
    std::memmove(data() + pos + insert, data() + pos + remove, tail);
  }
  size = grown_size;
  return data() + pos;
}

bytes ilp_header::encode() const {
  writer w(4 + 8 + 2 + varint_size(meta_.count) + meta_.size);
  encode_into(w);
  return w.take();
}

void ilp_header::encode_into(writer& w) const {
  w.u32(service);
  w.u64(connection);
  w.u16(flags);
  w.varint(meta_.count);
  w.raw(const_byte_span(meta_.data(), meta_.size));
}

ilp_header ilp_header::decode(const_byte_span data) {
  reader r(data);
  ilp_header h;
  h.service = r.u32();
  h.connection = r.u64();
  h.flags = r.u16();
  const std::uint64_t n = r.varint();
  const std::size_t start = r.position();
  // Every entry takes at least 3 bytes, so the loop ends (or throws)
  // within the input whatever count a peer claims.
  bool canonical = true;
  std::uint32_t next_key = 0;  // keys must strictly increase
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint16_t key = r.u16();
    const std::size_t len_at = r.position();
    const const_byte_span value = r.blob();
    canonical = canonical && key >= next_key &&
                r.position() - len_at - value.size() == varint_size(value.size());
    next_key = static_cast<std::uint32_t>(key) + 1;
  }
  if (!r.done()) throw serial_error("trailing bytes after ILP header");
  const const_byte_span wire = data.subspan(start);
  if (canonical) {
    h.meta_.assign(wire.data(), wire.size(), static_cast<std::uint32_t>(n));
  } else {
    h.normalize_meta(wire, n);
  }
  return h;
}

// Slow path for non-canonical input that decode() already validated:
// sorts the entries by key, keeps the last of each duplicate and
// re-encodes every length minimally.
void ilp_header::normalize_meta(const_byte_span wire, std::uint64_t entries) {
  struct parsed {
    std::uint16_t key;
    const_byte_span value;
  };
  std::vector<parsed> all;
  all.reserve(static_cast<std::size_t>(entries));
  reader r(wire);
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::uint16_t key = r.u16();
    all.push_back(parsed{key, r.blob()});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const parsed& a, const parsed& b) { return a.key < b.key; });
  std::size_t total = 0;
  std::uint32_t kept = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i + 1 < all.size() && all[i + 1].key == all[i].key) continue;  // a later one wins
    total += entry_size(all[i].value);
    ++kept;
  }
  std::uint8_t* out = meta_.splice(0, meta_.size, total);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i + 1 < all.size() && all[i + 1].key == all[i].key) continue;
    write_entry(out, all[i].key, all[i].value);
    out += entry_size(all[i].value);
  }
  meta_.count = kept;
}

void ilp_header::set_meta_raw(std::uint16_t key, const_byte_span value) {
  const std::uint8_t* p = meta_.data();
  if (!value.empty() && value.data() >= p && value.data() < p + meta_.size) {
    // The value aliases this header's own bytes, which the splice moves.
    const bytes copy(value.begin(), value.end());
    set_meta_raw(key, copy);
    return;
  }
  std::size_t pos = 0;
  std::size_t replaced = 0;
  while (pos < meta_.size) {
    const entry e = entry_at(p, pos);
    if (e.key >= key) {
      if (e.key == key) replaced = e.end - e.begin;
      break;
    }
    pos = e.end;
  }
  write_entry(meta_.splice(pos, replaced, entry_size(value)), key, value);
  if (replaced == 0) ++meta_.count;
}

std::optional<const_byte_span> ilp_header::meta_raw(std::uint16_t key) const {
  const std::uint8_t* p = meta_.data();
  for (std::size_t pos = 0; pos < meta_.size;) {
    const entry e = entry_at(p, pos);
    if (e.key == key) return const_byte_span(p + e.value, e.end - e.value);
    if (e.key > key) break;
    pos = e.end;
  }
  return std::nullopt;
}

bool ilp_header::erase_meta(std::uint16_t key) {
  const std::uint8_t* p = meta_.data();
  for (std::size_t pos = 0; pos < meta_.size;) {
    const entry e = entry_at(p, pos);
    if (e.key == key) {
      meta_.splice(e.begin, e.end - e.begin, 0);
      --meta_.count;
      return true;
    }
    if (e.key > key) break;
    pos = e.end;
  }
  return false;
}

void ilp_header::set_meta_u64(meta_key key, std::uint64_t value) {
  std::uint8_t enc[8];
  for (int i = 0; i < 8; ++i) enc[i] = static_cast<std::uint8_t>(value >> (8 * i));
  set_meta(key, enc);
}

void ilp_header::set_meta_str(meta_key key, std::string_view value) {
  set_meta(key, const_byte_span(reinterpret_cast<const std::uint8_t*>(value.data()),
                                value.size()));
}

std::optional<std::uint64_t> ilp_header::meta_u64(meta_key key) const {
  auto v = meta(key);
  if (!v || v->size() != 8) return std::nullopt;
  reader r(*v);
  return r.u64();
}

std::optional<std::string> ilp_header::meta_str(meta_key key) const {
  auto v = meta(key);
  if (!v) return std::nullopt;
  return to_string(*v);
}

}  // namespace interedge::ilp
