#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace interedge::net {
namespace {

std::uint64_t pack_source(const sockaddr_in& addr) {
  return (static_cast<std::uint64_t>(addr.sin_addr.s_addr) << 16) | addr.sin_port;
}

}  // namespace

udp_endpoint::udp_endpoint(const udp_config& cfg) : pool_cfg_(cfg.pool) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("udp socket failed");

  if (cfg.reuse_port) {
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("udp SO_REUSEPORT failed: ") + std::strerror(errno));
    }
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error(std::string("udp bind failed: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  const int fl = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
}

udp_endpoint::~udp_endpoint() {
  if (fd_ >= 0) ::close(fd_);
}

void udp_endpoint::add_peer(peer_id peer, const std::string& ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr);
  addr.sin_port = htons(port);
  peers_.insert(peer, addr);
  by_source_.insert(pack_source(addr), peer);
}

bool udp_endpoint::send(peer_id to, const_byte_span datagram) {
  const sockaddr_in* addr = peers_.find(to);
  if (addr == nullptr) return false;
  for (std::size_t attempt = 0;; ++attempt) {
    const ssize_t n = ::sendto(fd_, datagram.data(), datagram.size(), 0,
                               reinterpret_cast<const sockaddr*>(addr), sizeof(*addr));
    if (n >= 0) {
      ++sent_;
      return true;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return false;
    ++send_again_;
    if (m_send_again_ != nullptr) m_send_again_->add();
    if (attempt >= kSendRetries) return false;  // UDP is lossy anyway
  }
}

bool udp_endpoint::send_gather(peer_id to, const_byte_span head, const_byte_span payload) {
  const sockaddr_in* addr = peers_.find(to);
  if (addr == nullptr) return false;
  iovec iovs[2] = {
      {const_cast<std::uint8_t*>(head.data()), head.size()},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()},
  };
  msghdr msg{};
  msg.msg_name = const_cast<sockaddr_in*>(addr);
  msg.msg_namelen = sizeof(*addr);
  msg.msg_iov = iovs;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  for (std::size_t attempt = 0;; ++attempt) {
    const ssize_t n = ::sendmsg(fd_, &msg, 0);
    if (n >= 0) {
      ++sent_;
      return true;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return false;
    ++send_again_;
    if (m_send_again_ != nullptr) m_send_again_->add();
    if (attempt >= kSendRetries) return false;
  }
}

std::size_t udp_endpoint::recv_batch_views(
    std::size_t max, std::vector<std::pair<peer_id, buf::pkt_view>>& out) {
  max = std::min(max, kBatchMax);
  if (max == 0) return 0;
  if (!pool_) {  // first receive: endpoints that only send never pay for a pool
    pool_ = std::make_unique<buf::buf_pool>(pool_cfg_);
    cache_.emplace(*pool_);
  }
  std::size_t appended = 0;
#ifdef __linux__
  // Keep up to `max` slabs armed; unused ones stay for the next call.
  while (rx_slabs_.size() < max) {
    auto ref = cache_->try_alloc();
    if (!ref) break;  // pool dry: recv what we can (exhaustion is counted)
    rx_slabs_.push_back(std::move(ref));
  }
  if (rx_slabs_.empty()) {
    ++rx_empty_;
    return 0;
  }
  const std::size_t want = std::min(max, rx_slabs_.size());
  mmsghdr msgs[kBatchMax]{};
  iovec iovs[kBatchMax];
  sockaddr_in sources[kBatchMax];
  for (std::size_t i = 0; i < want; ++i) {
    iovs[i] = {rx_slabs_[i].data(), rx_slabs_[i].size()};
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &sources[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(sources[i]);
  }
  const int n = ::recvmmsg(fd_, msgs, static_cast<unsigned>(want), 0, nullptr);
  if (n <= 0) {
    // recvmmsg's error report is coarse: one EAGAIN return covers both
    // "socket empty" and genuine failures, and the kernel surfaces an
    // error only for the FIRST datagram — so the conditions must be
    // counted here or they vanish.
    if (n == 0 || errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      ++rx_empty_;
    } else {
      ++rx_errors_;
    }
    sync_telemetry();
    return 0;
  }
  // A short batch means the socket ran dry mid-drain (the EAGAIN happened
  // inside the batch, which recvmmsg reports only as a smaller count).
  if (static_cast<std::size_t>(n) < want) ++rx_partial_batches_;
  // Consume the first n slabs (the kernel filled them in order); survivors
  // shift down and stay armed.
  for (int i = 0; i < n; ++i) {
    if ((msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) ++rx_truncated_;
    const peer_id* peer = by_source_.find(pack_source(sources[i]));
    if (peer == nullptr) {
      ++dropped_unknown_;
      rx_slabs_[i].reset();  // slab back to the pool
      continue;
    }
    const std::size_t len =
        std::min<std::size_t>(msgs[i].msg_len, rx_slabs_[i].size());
    ++received_;
    out.emplace_back(*peer, buf::pkt_view(std::move(rx_slabs_[i]), 0, len));
    ++appended;
  }
  rx_slabs_.erase(rx_slabs_.begin(), rx_slabs_.begin() + n);
#else
  // No recvmmsg: one recvfrom per datagram, still straight into a slab.
  for (std::size_t i = 0; i < max; ++i) {
    auto ref = cache_->try_alloc();
    if (!ref) break;  // pool dry (exhaustion is counted)
    sockaddr_in source{};
    socklen_t len = sizeof(source);
    const ssize_t n = ::recvfrom(fd_, ref.data(), ref.size(), 0,
                                 reinterpret_cast<sockaddr*>(&source), &len);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) ++rx_errors_;
      break;
    }
    const peer_id* peer = by_source_.find(pack_source(source));
    if (peer == nullptr) {
      ++dropped_unknown_;
      continue;
    }
    ++received_;
    out.emplace_back(*peer, buf::pkt_view(std::move(ref), 0, static_cast<std::size_t>(n)));
    ++appended;
  }
  if (appended == 0) {
    ++rx_empty_;
  } else if (appended < max) {
    ++rx_partial_batches_;
  }
#endif
  sync_telemetry();
  return appended;
}

void udp_endpoint::sync_telemetry() {
  if (m_rx_truncated_ == nullptr) return;  // telemetry not enabled
  if (rx_truncated_ != last_rx_truncated_) {
    m_rx_truncated_->add(rx_truncated_ - last_rx_truncated_);
    last_rx_truncated_ = rx_truncated_;
  }
  if (rx_errors_ != last_rx_errors_) {
    m_rx_errors_->add(rx_errors_ - last_rx_errors_);
    last_rx_errors_ = rx_errors_;
  }
  if (dropped_unknown_ != last_dropped_unknown_) {
    m_dropped_unknown_->add(dropped_unknown_ - last_dropped_unknown_);
    last_dropped_unknown_ = dropped_unknown_;
  }
}

std::size_t udp_endpoint::send_batch(peer_id to, std::span<const bytes> datagrams) {
  const sockaddr_in* addr = peers_.find(to);
  if (addr == nullptr) return 0;
  std::size_t accepted = 0;
#ifdef __linux__
  std::size_t offset = 0;
  std::size_t retries = 0;
  while (offset < datagrams.size()) {
    const std::size_t chunk = std::min(datagrams.size() - offset, kBatchMax);
    mmsghdr msgs[kBatchMax]{};
    iovec iovs[kBatchMax];
    for (std::size_t i = 0; i < chunk; ++i) {
      const bytes& d = datagrams[offset + i];
      iovs[i] = {const_cast<std::uint8_t*>(d.data()), d.size()};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(addr);
      msgs[i].msg_hdr.msg_namelen = sizeof(*addr);
    }
    const int n = ::sendmmsg(fd_, msgs, static_cast<unsigned>(chunk), 0);
    if (n <= 0) {
      // A full socket buffer (EAGAIN) usually clears within the batch;
      // retry a bounded number of times, then give up on the remainder
      // (UDP is lossy; upper layers own reliability).
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
      ++send_again_;
      if (m_send_again_ != nullptr) m_send_again_->add();
      if (++retries > kSendRetries) break;
      continue;
    }
    accepted += static_cast<std::size_t>(n);
    sent_ += static_cast<std::size_t>(n);
    // Partial acceptance: the kernel stopped mid-batch (buffer filled).
    // Advance past what it took and retry the rest instead of silently
    // dropping the tail of the batch.
    if (static_cast<std::size_t>(n) < chunk) {
      ++send_again_;
      if (m_send_again_ != nullptr) m_send_again_->add();
      if (++retries > kSendRetries) break;
    }
    offset += static_cast<std::size_t>(n);
  }
#else
  for (const bytes& d : datagrams) {
    if (!send(to, d)) break;
    ++accepted;
  }
#endif
  return accepted;
}

// ---- event_loop --------------------------------------------------------

void event_loop::attach(udp_endpoint& endpoint, datagram_handler handler) {
  attach_views(endpoint, [handler = std::move(handler)](
                             std::span<std::pair<peer_id, buf::pkt_view>> datagrams) {
    for (const auto& [from, view] : datagrams) handler(from, view.span());
  });
}

void event_loop::attach_views(udp_endpoint& endpoint, views_handler handler) {
  endpoints_.push_back(attached{&endpoint, std::move(handler)});
}

void event_loop::schedule(nanoseconds delay, std::function<void()> fn) {
  timers_.push(timer{std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(delay),
                     next_seq_++, std::move(fn)});
}

std::size_t event_loop::pass(std::chrono::milliseconds max_wait) {
  const auto now = std::chrono::steady_clock::now();

  // Fire due timers.
  while (!timers_.empty() && timers_.top().due <= now) {
    auto fn = timers_.top().fn;
    timers_.pop();
    fn();
  }

  // Flush boundary: whatever timer callbacks sent goes out before select
  // blocks (a quiet socket would otherwise hold it for a full max_wait).
  for (const attached& a : endpoints_) a.endpoint->flush_tx();

  // Wait for readability across all endpoints (bounded by the next timer).
  fd_set readable;
  FD_ZERO(&readable);
  int max_fd = -1;
  for (const attached& a : endpoints_) {
    FD_SET(a.endpoint->fd(), &readable);
    max_fd = std::max(max_fd, a.endpoint->fd());
  }
  auto wait = max_wait;
  if (!timers_.empty()) {
    const auto until_timer = std::chrono::duration_cast<std::chrono::milliseconds>(
        timers_.top().due - now);
    wait = std::clamp(until_timer, std::chrono::milliseconds(0), max_wait);
  }
  timeval tv{static_cast<time_t>(wait.count() / 1000),
             static_cast<suseconds_t>((wait.count() % 1000) * 1000)};
  if (::select(max_fd + 1, &readable, nullptr, nullptr, &tv) <= 0) return 0;

  // Drain everything readable.
  std::size_t dispatched = 0;
  for (const attached& a : endpoints_) {
    views_scratch_.clear();
    while (a.endpoint->recv_batch_views(udp_endpoint::kBatchMax, views_scratch_) > 0) {
    }
    if (!views_scratch_.empty()) {
      a.handler(views_scratch_);
      dispatched += views_scratch_.size();
      views_scratch_.clear();  // release slabs before the next pass
    }
  }
  // Flush boundary again, for what the handlers sent.
  for (const attached& a : endpoints_) a.endpoint->flush_tx();
  return dispatched;
}

std::size_t event_loop::run_for(std::chrono::milliseconds deadline_from_now) {
  const auto deadline = std::chrono::steady_clock::now() + deadline_from_now;
  std::size_t total = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    total += pass(std::max(std::chrono::milliseconds(1), remaining));
  }
  return total;
}

std::size_t event_loop::run_until_quiet(std::chrono::milliseconds quiet,
                                        std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  auto last_activity = std::chrono::steady_clock::now();
  std::size_t total = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = pass(std::chrono::milliseconds(5));
    if (n > 0) {
      total += n;
      last_activity = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_activity > quiet && timers_.empty()) {
      break;
    }
  }
  return total;
}

}  // namespace interedge::net
