#include "common/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

namespace interedge {

const char* fr_kind_name(fr_kind k) {
  switch (k) {
    case fr_kind::span: return "span";
    case fr_kind::lifecycle: return "lifecycle";
    case fr_kind::alert: return "alert";
    case fr_kind::watchdog: return "watchdog";
    case fr_kind::trigger: return "trigger";
    case fr_kind::gauge: return "gauge";
  }
  return "?";
}

std::string fr_trigger_names(std::uint32_t mask) {
  static constexpr std::pair<std::uint32_t, const char*> kNames[] = {
      {kTrigPeerDown, "peer_down"}, {kTrigFailover, "failover"}, {kTrigShed, "shed"},
      {kTrigSloPage, "slo_page"},   {kTrigWatchdog, "watchdog"}, {kTrigManual, "manual"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((mask & bit) == 0) continue;
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

flight_recorder::flight_recorder(config cfg)
    : slots_(std::bit_ceil(std::max<std::size_t>(cfg.capacity, 2))),
      mask_(slots_.size() - 1),
      trigger_mask_(cfg.trigger_mask) {}

void flight_recorder::record(const fr_event& e) {
  if (frozen_.load(std::memory_order_acquire)) {
    dropped_frozen_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t t = cursor_.fetch_add(1, std::memory_order_relaxed);
  slot& s = slots_[t & mask_];
  // Claim the slot: one writer at a time, and never over a newer ticket.
  // A writer that finds the slot mid-write, or lapped by a writer a full
  // ring ahead, drops its event into the contention count instead of
  // waiting, so record() stays wait-free.
  std::uint64_t cur = s.seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((cur & 1) != 0 || cur >= 2 * t + 2) {
      dropped_contended_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (s.seq.compare_exchange_weak(cur, 2 * t + 1, std::memory_order_relaxed)) break;
  }
  // Release stores: a reader whose acquire load sees any of these words
  // also sees the claim above, so its re-check of seq catches the write.
  s.words[0].store(e.time_ns, std::memory_order_release);
  s.words[1].store((static_cast<std::uint64_t>(e.kind) << 32) | e.code,
                   std::memory_order_release);
  s.words[2].store(e.a, std::memory_order_release);
  s.words[3].store(e.b, std::memory_order_release);
  s.words[4].store(e.c, std::memory_order_release);
  s.seq.store(2 * t + 2, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void flight_recorder::trigger(std::uint32_t trig, std::uint64_t time_ns, std::uint64_t a,
                              std::uint64_t b) {
  fr_event e;
  e.time_ns = time_ns;
  e.kind = fr_kind::trigger;
  e.code = trig;
  e.a = a;
  e.b = b;
  record(e);
  if ((trigger_mask_ & trig) == 0) return;
  // First armed trigger wins the freeze; later ones (and re-fires of the
  // same fault) see frozen_ already set and leave the tail alone.
  if (!frozen_.exchange(true, std::memory_order_acq_rel)) {
    frozen_by_.store(trig, std::memory_order_release);
    if (freeze_hook_) freeze_hook_(trig);
  }
}

void flight_recorder::rearm() {
  frozen_by_.store(0, std::memory_order_release);
  frozen_.store(false, std::memory_order_release);
}

std::vector<fr_event> flight_recorder::snapshot() const {
  struct ticketed {
    std::uint64_t ticket;
    fr_event e;
  };
  std::vector<ticketed> got;
  got.reserve(slots_.size());
  for (const slot& s : slots_) {
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
    // Acquire loads keep the validating re-load of seq after every
    // payload read, and a word from a later writer carries its claim.
    fr_event e;
    e.time_ns = s.words[0].load(std::memory_order_acquire);
    const std::uint64_t kc = s.words[1].load(std::memory_order_acquire);
    e.kind = static_cast<fr_kind>(kc >> 32);
    e.code = static_cast<std::uint32_t>(kc);
    e.a = s.words[2].load(std::memory_order_acquire);
    e.b = s.words[3].load(std::memory_order_acquire);
    e.c = s.words[4].load(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;  // overwritten under us
    got.push_back(ticketed{s1 / 2 - 1, e});
  }
  std::sort(got.begin(), got.end(),
            [](const ticketed& x, const ticketed& y) { return x.ticket < y.ticket; });
  std::vector<fr_event> out;
  out.reserve(got.size());
  for (ticketed& t : got) out.push_back(t.e);
  return out;
}

std::string flight_recorder::dump_json() const {
  const std::vector<fr_event> events = snapshot();
  std::ostringstream os;
  os << "{\"frozen\":" << (frozen() ? "true" : "false") << ",\"trigger\":\""
     << fr_trigger_names(frozen_by()) << "\",\"recorded\":" << recorded()
     << ",\"dropped_frozen\":" << dropped_frozen()
     << ",\"dropped_contended\":" << dropped_contended() << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const fr_event& e = events[i];
    if (i) os << ",";
    os << "{\"time_ns\":" << e.time_ns << ",\"kind\":\"" << fr_kind_name(e.kind)
       << "\",\"code\":" << e.code << ",\"a\":" << e.a << ",\"b\":" << e.b << ",\"c\":" << e.c;
    if (e.kind == fr_kind::trigger) os << ",\"trigger\":\"" << fr_trigger_names(e.code) << "\"";
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace interedge
