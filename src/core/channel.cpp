#include "core/channel.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/serial.h"
#include "common/trace.h"

namespace interedge::core {
namespace {

void encode_decision(writer& w, const decision& d) {
  w.u8(static_cast<std::uint8_t>(d.kind));
  w.varint(static_cast<std::uint64_t>(d.ttl.count()));
  w.varint(d.next_hops.size());
  for (peer_id hop : d.next_hops) w.u64(hop);
}

decision decode_decision(reader& r) {
  decision d;
  d.kind = static_cast<decision::verdict>(r.u8());
  d.ttl = nanoseconds(static_cast<std::int64_t>(r.varint()));
  const std::uint64_t n = r.varint();
  // n is attacker-influenced: bound it before filling the inline list.
  if (n > kMaxNextHops) throw serial_error("decision has too many next hops");
  for (std::uint64_t i = 0; i < n; ++i) d.next_hops.push_back(r.u64());
  return d;
}

void encode_key(writer& w, const cache_key& k) {
  w.u64(k.l3_src);
  w.u32(k.service);
  w.u64(k.connection);
}

cache_key decode_key(reader& r) {
  cache_key k;
  k.l3_src = r.u64();
  k.service = r.u32();
  k.connection = r.u64();
  return k;
}

}  // namespace

bytes slowpath_request::encode() const {
  const bytes header = pkt->header.encode();
  writer w(40 + header.size() + pkt->payload.size());
  w.u64(token);
  w.u64(pkt->l3_src);
  w.u64(deadline_ns);
  w.blob(header);
  w.blob(pkt->payload);
  return w.take();
}

slowpath_request slowpath_request::decode(const_byte_span data, packet& storage) {
  reader r(data);
  slowpath_request req;
  req.token = r.u64();
  storage.l3_src = r.u64();
  req.deadline_ns = r.u64();
  storage.header = ilp::ilp_header::decode(r.blob());
  const const_byte_span p = r.blob();
  storage.payload.assign(p.begin(), p.end());
  req.pkt = &storage;
  return req;
}

bytes slowpath_response::encode() const {
  writer w(64);
  w.u64(token);
  w.u16(annotations);
  encode_decision(w, verdict);
  w.varint(cache_inserts.size());
  for (const auto& [key, value] : cache_inserts) {
    encode_key(w, key);
    encode_decision(w, value);
  }
  w.varint(sends.size());
  for (const outbound& o : sends) {
    w.u64(o.to);
    w.blob(o.header.encode());
    w.blob(o.payload);
  }
  return w.take();
}

slowpath_response slowpath_response::decode(const_byte_span data) {
  reader r(data);
  slowpath_response resp;
  resp.token = r.u64();
  resp.annotations = r.u16();
  resp.verdict = decode_decision(r);
  const std::uint64_t n_inserts = r.varint();
  if (n_inserts > kMaxCacheInserts) throw serial_error("response has too many cache inserts");
  for (std::uint64_t i = 0; i < n_inserts; ++i) {
    const cache_key key = decode_key(r);
    resp.cache_inserts.emplace_back(key, decode_decision(r));
  }
  const std::uint64_t n_sends = r.varint();
  for (std::uint64_t i = 0; i < n_sends; ++i) {
    outbound o;
    o.to = r.u64();
    o.header = ilp::ilp_header::decode(r.blob());
    const const_byte_span p = r.blob();
    o.payload.assign(p.begin(), p.end());
    resp.sends.push_back(std::move(o));
  }
  return resp;
}

// ---- ring_channel ----------------------------------------------------

ring_channel::ring_channel(slowpath_handler handler, std::size_t depth)
    : requests_(depth), responses_(depth) {
  worker_ = std::thread([this, h = std::move(handler)]() mutable { worker_loop(std::move(h)); });
}

ring_channel::~ring_channel() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(doorbell_mu_);
    request_doorbell_.notify_one();
  }
  worker_.join();
}

namespace {
// Busy-wait hint: cheap spin before falling back to yielding, so the ring
// stays on the fast path when the producer is active but does not burn a
// core forever when idle.
inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#else
  asm volatile("" ::: "memory");
#endif
}
}  // namespace

void ring_channel::worker_loop(slowpath_handler handler) {
  std::uint32_t idle_spins = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    auto req = requests_.try_pop();
    if (!req) {
      if (++idle_spins < 1024) {
        spin_pause();
        continue;
      }
      // Park until the producer rings the doorbell.
      std::unique_lock lock(doorbell_mu_);
      worker_parked_.store(true, std::memory_order_release);
      request_doorbell_.wait_for(lock, std::chrono::milliseconds(1), [this] {
        return !requests_.empty() || stop_.load(std::memory_order_acquire);
      });
      worker_parked_.store(false, std::memory_order_release);
      idle_spins = 0;
      continue;
    }
    idle_spins = 0;
    slowpath_response resp = handler(*req);
    while (!responses_.try_push(std::move(resp))) {
      if (stop_.load(std::memory_order_acquire)) return;
      spin_pause();
    }
    if (consumer_parked_.load(std::memory_order_acquire)) {
      std::lock_guard lock(doorbell_mu_);
      response_doorbell_.notify_one();
    }
  }
}

bool ring_channel::submit(slowpath_request request) {
  if (!requests_.try_push(request)) return false;
  if (worker_parked_.load(std::memory_order_acquire)) {
    std::lock_guard lock(doorbell_mu_);
    request_doorbell_.notify_one();
  }
  return true;
}

std::optional<slowpath_response> ring_channel::poll() { return responses_.try_pop(); }

std::optional<slowpath_response> ring_channel::poll_wait() {
  for (std::uint32_t spins = 0; spins < 1024; ++spins) {
    if (auto r = responses_.try_pop()) return r;
    spin_pause();
  }
  std::unique_lock lock(doorbell_mu_);
  consumer_parked_.store(true, std::memory_order_release);
  response_doorbell_.wait_for(lock, std::chrono::milliseconds(1),
                              [this] { return !responses_.empty(); });
  consumer_parked_.store(false, std::memory_order_release);
  return responses_.try_pop();
}

// ---- slowpath_hub ----------------------------------------------------

slowpath_hub::slowpath_hub(slowpath_handler handler, std::size_t shards, std::size_t depth,
                           wake_fn wake)
    : handler_(std::move(handler)), wake_(std::move(wake)), touched_(shards, false) {
  endpoints_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    endpoints_.push_back(std::make_unique<endpoint_impl>(depth));
  }
}

std::size_t slowpath_hub::pump() {
  std::size_t served = 0;
  std::fill(touched_.begin(), touched_.end(), false);
  for (std::size_t src = 0; src < endpoints_.size(); ++src) {
    while (auto req = endpoints_[src]->requests.try_pop()) {
      slowpath_response resp;
      if (deadline_clock_ && req->deadline_ns != 0 &&
          static_cast<std::uint64_t>(
              deadline_clock_->now().time_since_epoch().count()) > req->deadline_ns) {
        // Dead on arrival: the request aged out in the ring. Synthesize a
        // drop so the shard's in-flight window drains without stale work.
        resp.token = req->token;
        resp.verdict = decision::drop_packet();
        resp.annotations |= trace::kAnnoDeadlineExpired;
        ++expired_;
        if (expired_counter_) expired_counter_->add();
      } else {
        resp = handler_(*req);
      }
      // The terminus seeds its tokens with token_seed(shard), so the
      // response routes itself; fall back to the requesting shard for
      // tokenless (synthetic) traffic.
      std::size_t dst = src;
      if (resp.token >= (std::uint64_t{1} << kShardTokenShift)) {
        const std::size_t by_token = shard_of_token(resp.token);
        if (by_token < endpoints_.size()) dst = by_token;
      }
      while (!endpoints_[dst]->responses.try_push(std::move(resp))) {
        // Ring momentarily full: the owning worker drains responses every
        // loop iteration, so ring its doorbell and wait it out.
        if (wake_) wake_(dst);
        spin_pause();
      }
      touched_[dst] = true;
      ++served;
    }
  }
  if (wake_) {
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      if (touched_[i]) wake_(i);
    }
  }
  return served;
}

bool slowpath_hub::idle() const {
  for (const auto& ep : endpoints_) {
    if (!ep->requests.empty() || !ep->responses.empty()) return false;
  }
  return true;
}

// ---- ipc_channel -----------------------------------------------------

namespace {

// Length-prefixed frame write as a single syscall (short writes handled).
void write_frame(int fd, const bytes& frame) {
  bytes buffer(4 + frame.size());
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) buffer[i] = static_cast<std::uint8_t>(n >> (8 * i));
  std::memcpy(buffer.data() + 4, frame.data(), frame.size());

  std::size_t done = 0;
  while (done < buffer.size()) {
    const ssize_t w = ::write(fd, buffer.data() + done, buffer.size() - done);
    if (w < 0) {
      // The terminus end is non-blocking: spin briefly when the socket
      // buffer is full (the worker is draining it).
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw std::runtime_error(std::string("ipc write: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(w);
  }
}

// Extracts one complete frame from the front of `buffer`, if present.
std::optional<bytes> take_frame(bytes& buffer) {
  if (buffer.size() < 4) return std::nullopt;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(buffer[i]) << (8 * i);
  if (buffer.size() < 4 + n) return std::nullopt;
  bytes frame(buffer.begin() + 4, buffer.begin() + 4 + n);
  buffer.erase(buffer.begin(), buffer.begin() + 4 + n);
  return frame;
}

// Blocking buffered frame read; nullopt on EOF.
std::optional<bytes> read_frame_buffered(int fd, bytes& buffer) {
  for (;;) {
    if (auto frame = take_frame(buffer)) return frame;
    std::uint8_t chunk[16384];
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r == 0) return std::nullopt;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    buffer.insert(buffer.end(), chunk, chunk + r);
  }
}

}  // namespace

ipc_channel::ipc_channel(slowpath_handler handler) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  terminus_fd_ = fds[0];
  service_fd_ = fds[1];
  // The terminus polls; its end is non-blocking.
  const int fl = ::fcntl(terminus_fd_, F_GETFL, 0);
  ::fcntl(terminus_fd_, F_SETFL, fl | O_NONBLOCK);
  worker_ = std::thread([this, h = std::move(handler)]() mutable { worker_loop(std::move(h)); });
}

ipc_channel::~ipc_channel() {
  ::shutdown(terminus_fd_, SHUT_WR);  // worker sees EOF and exits
  worker_.join();
  ::close(terminus_fd_);
  ::close(service_fd_);
}

void ipc_channel::worker_loop(slowpath_handler handler) {
  bytes buffer;
  packet pkt;  // the service side's copy of the request's packet
  for (;;) {
    auto frame = read_frame_buffered(service_fd_, buffer);
    if (!frame) return;  // EOF: terminus shut down
    slowpath_response resp = handler(slowpath_request::decode(*frame, pkt));
    write_frame(service_fd_, resp.encode());
  }
}

bool ipc_channel::submit(slowpath_request request) {
  write_frame(terminus_fd_, request.encode());
  return true;
}

std::optional<slowpath_response> ipc_channel::poll() {
  // Drain whatever the worker has written (non-blocking), then hand back
  // one buffered frame at a time.
  if (auto frame = take_frame(rx_buffer_)) return slowpath_response::decode(*frame);
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t r = ::read(terminus_fd_, chunk, sizeof(chunk));
    if (r > 0) {
      rx_buffer_.insert(rx_buffer_.end(), chunk, chunk + r);
      if (static_cast<std::size_t>(r) < sizeof(chunk)) break;
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;  // EAGAIN (nothing available) or EOF
  }
  if (auto frame = take_frame(rx_buffer_)) return slowpath_response::decode(*frame);
  return std::nullopt;
}

}  // namespace interedge::core
