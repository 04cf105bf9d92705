#include "measure.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

tracer* g_tracer = nullptr;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {
// On-CPU nanoseconds of one thread: the first field of schedstat, with the
// tick-granular utime + stime of stat as the fallback.
double thread_cpu_s(long tid) {
  {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
    unsigned long long ns = 0;
    if (in >> ns) return static_cast<double>(ns) * 1e-9;
  }
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto rp = all.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream rest(all.substr(rp + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}
}  // namespace

std::vector<double> other_thread_cpu_s() {
  const long self = static_cast<long>(syscall(SYS_gettid));
  std::vector<long> tids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      const long tid = std::strtol(e->d_name, nullptr, 10);
      if (tid > 0 && tid != self) tids.push_back(tid);
    }
    closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  std::vector<double> out;
  for (long tid : tids) out.push_back(thread_cpu_s(tid));
  return out;
}

// ---- payloads ----

namespace {
std::uint64_t payload_sum(interedge::const_byte_span p) {
  std::uint64_t h = mix64(load_u64(p.data()) ^ 0x5eedull);
  h = mix64(h ^ load_u64(p.data() + 8));
  std::size_t i = kStampBytes;
  for (; i + 8 <= p.size(); i += 8) h = mix64(h ^ load_u64(p.data() + i));
  for (; i < p.size(); ++i) h = mix64(h ^ p[i]);
  return h;
}
}  // namespace

void fill_payload(interedge::byte_span out, std::uint64_t payload_seed, std::uint64_t flow,
                  std::uint64_t seq) {
  store_u64(out.data(), flow);
  store_u64(out.data() + 8, seq);
  std::uint64_t x = mix64(payload_seed ^ mix64(flow ^ (seq << 20)));
  std::size_t i = kStampBytes;
  for (; i + 8 <= out.size(); i += 8) {
    x = mix64(x);
    store_u64(out.data() + i, x);
  }
  for (; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(mix64(x + i));
  store_u64(out.data() + 16, payload_sum(out));
}

bool payload_intact(interedge::const_byte_span p) {
  return p.size() >= kStampBytes && load_u64(p.data() + 16) == payload_sum(p);
}

// ---- latency ----

std::size_t lat_hist::index(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<std::size_t>(v);
  const int e = 63 - std::countl_zero(v);  // e >= 7
  const std::uint64_t sub = (v >> (e - 7)) & (kSub - 1);
  return static_cast<std::size_t>(e - 6) * kSub + static_cast<std::size_t>(sub);
}

double lat_hist::midpoint(std::size_t idx) {
  if (idx < static_cast<std::size_t>(kSub)) return static_cast<double>(idx);
  const int e = static_cast<int>(idx / kSub) + 6;
  const double sub = static_cast<double>(idx % kSub);
  const double width = static_cast<double>(std::uint64_t{1} << (e - 7));
  return (static_cast<double>(kSub) + sub) * width + width / 2.0;
}

double lat_hist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen > rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

void phase_recorder::start(std::uint64_t t0) {
  all_.clear();
  win_.clear();
  win_start_ = t0;
  win_p99_.clear();
}

void phase_recorder::roll(std::uint64_t now) {
  if (win_.count() > 0) win_p99_.push_back(win_.quantile(0.99));
  win_.clear();
  while (now - win_start_ >= kWindowNs) win_start_ += kWindowNs;
}

void phase_recorder::finish(std::uint64_t t1) {
  if (t1 - win_start_ >= kWindowNs / 2 && win_.count() > 0) {
    win_p99_.push_back(win_.quantile(0.99));
  }
  win_.clear();
}

double phase_recorder::windowed_p99() const {
  if (win_p99_.empty()) return all_.quantile(0.99);
  std::vector<double> v = win_p99_;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

// ---- tracing ----

const char* layer_name(layer l) {
  static constexpr const char* kNames[kLayerCount] = {
      "bench.gen",   "host.tx",           "host.rx",         "net.rx",
      "net.tx",      "core.sn",           "core.wait",       "services.delivery",
      "services.pubsub", "bench.sink",    "ilp.seal",        "ilp.open"};
  return kNames[l];
}

}  // namespace perfbench
