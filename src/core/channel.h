// Slow-path channels: how the pipe-terminus reaches service modules.
//
// The paper's prototype "used IPC to send and receive data from services
// which obviously adds overhead, but this approach makes it trivial to
// prototype services", and names shared-memory rings as the obvious
// alternative. Table 1's no-service row is the datapath with no channel
// crossing at all. We implement all three so the benchmarks can measure
// exactly that design space:
//
//   inline_channel — direct function call (no crossing; used by the
//                    single-threaded simulation and the no-upcall bound)
//   ring_channel   — SPSC shared-memory rings to a dedicated service
//                    thread (no syscalls on the hot path)
//   ipc_channel    — a real socketpair(2) to a service thread, one
//                    write+read syscall pair per packet (the prototype's
//                    design measured in Table 1)
//
// In-process channels hand the request and response over as objects; the
// request points at the packet parked in the terminus's pending slot, so a
// slow-path round trip copies no payload. ipc_channel serializes both
// directions, as the prototype did. Switching transports changes cost,
// never semantics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/ring.h"
#include "core/service_module.h"

namespace interedge::core {

// What the terminus hands the service layer. Per §4 the terminus forwards
// "the packet's L3 header and decrypted ILP header"; the payload rides
// along for services (e.g. caching) that need it. `pkt` points at the
// terminus's pending slot, which the terminus leaves alone until it pops
// this request's response: the channel's ring publishes the slot to the
// service thread (release/acquire) and the response ring hands it back.
struct slowpath_request {
  std::uint64_t token = 0;  // correlates the async response
  // Absolute expiry (clock ns since epoch); 0 = no deadline. A request
  // still queued past its deadline is expired by whoever dequeues it
  // (slowpath_hub::pump or the SN handler) instead of doing stale work.
  std::uint64_t deadline_ns = 0;
  const packet* pkt = nullptr;

  // ipc_channel's wire form: token, L3 source, deadline, encoded header,
  // payload.
  bytes encode() const;
  // Decodes into `storage` and returns a request pointing at it. Throws
  // interedge::serial_error on malformed input.
  static slowpath_request decode(const_byte_span data, packet& storage);
};

struct slowpath_response {
  std::uint64_t token = 0;
  decision verdict;
  // trace::kAnno* bits describing how the verdict came about (e.g.
  // kAnnoDeadlineExpired for a hub-synthesized drop); the terminus folds
  // them into the packet's path span.
  std::uint16_t annotations = 0;
  cache_insert_list cache_inserts;
  std::vector<outbound> sends;

  bytes encode() const;
  static slowpath_response decode(const_byte_span data);
};

using slowpath_handler = std::function<slowpath_response(slowpath_request)>;

class slowpath_channel {
 public:
  virtual ~slowpath_channel() = default;
  // Submits a request; false if the channel is momentarily full (caller
  // retries — models bounded outstanding-packet windows).
  virtual bool submit(slowpath_request request) = 0;
  // Retrieves one completed response, if any.
  virtual std::optional<slowpath_response> poll() = 0;
};

// Direct call in the caller's thread.
class inline_channel final : public slowpath_channel {
 public:
  explicit inline_channel(slowpath_handler handler) : handler_(std::move(handler)) {}
  bool submit(slowpath_request request) override {
    done_.push_back(handler_(request));
    return true;
  }
  std::optional<slowpath_response> poll() override {
    if (next_ == done_.size()) return std::nullopt;
    slowpath_response r = std::move(done_[next_++]);
    if (next_ == done_.size()) {
      done_.clear();  // keeps the capacity: steady state never allocates
      next_ = 0;
    }
    return r;
  }

 private:
  slowpath_handler handler_;
  std::vector<slowpath_response> done_;  // completed, not yet polled from next_
  std::size_t next_ = 0;
};

// SPSC rings to a dedicated service thread. The data path is lock-free;
// when a side runs dry it spins briefly and then parks on a condition
// variable (the software analogue of an eventfd doorbell), so the channel
// is fast on dedicated cores and correct on shared ones.
class ring_channel final : public slowpath_channel {
 public:
  ring_channel(slowpath_handler handler, std::size_t depth = 256);
  ~ring_channel() override;
  bool submit(slowpath_request request) override;
  std::optional<slowpath_response> poll() override;
  // Blocking variant of poll() for callers with nothing else to do.
  std::optional<slowpath_response> poll_wait();

 private:
  void worker_loop(slowpath_handler handler);
  spsc_ring<slowpath_request> requests_;
  spsc_ring<slowpath_response> responses_;
  std::atomic<bool> stop_{false};
  std::mutex doorbell_mu_;
  std::condition_variable request_doorbell_;   // producer -> worker
  std::condition_variable response_doorbell_;  // worker -> producer
  std::atomic<bool> worker_parked_{false};
  std::atomic<bool> consumer_parked_{false};
  std::thread worker_;
};

// Slow-path fan-in for the sharded datapath: N worker-shard termini on
// one side, the control thread that owns the execution environment on the
// other. Each shard gets an SPSC endpoint (requests toward control,
// responses back) implementing slowpath_channel, so a per-shard
// pipe_terminus uses it unchanged. pump() runs on the control thread —
// service modules, timers and slow-path dispatch therefore all share one
// thread, exactly as in the single-threaded SN — and routes every
// response back to the shard encoded in its token (each terminus is
// seeded with token_seed(shard), so tokens carry their owner).
class slowpath_hub {
 public:
  // Shard id lives in the token's top bits; 2^48 slow-path packets per
  // shard before wrap, which is out of reach for one process lifetime.
  static constexpr int kShardTokenShift = 48;
  static std::uint64_t token_seed(std::size_t shard) {
    return static_cast<std::uint64_t>(shard + 1) << kShardTokenShift;
  }
  static std::size_t shard_of_token(std::uint64_t token) {
    return static_cast<std::size_t>(token >> kShardTokenShift) - 1;
  }

  // `wake` (optional) is invoked after responses are routed to a shard —
  // and while spinning on a momentarily full response ring — so a parked
  // worker gets its doorbell rung.
  using wake_fn = std::function<void(std::size_t shard)>;
  slowpath_hub(slowpath_handler handler, std::size_t shards, std::size_t depth = 1024,
               wake_fn wake = nullptr);

  // The channel a shard's pipe_terminus talks to. Worker-thread side.
  slowpath_channel& endpoint(std::size_t shard) { return *endpoints_[shard]; }

  // Control thread: dispatches every pending request and routes responses.
  // Returns the number of requests served.
  std::size_t pump();

  // Arms deadline enforcement: a request dequeued after its deadline_ns
  // is answered with a synthesized drop (the shard's in-flight accounting
  // still drains) instead of invoking the handler. Expiry can only happen
  // while a request sits in the ring, which is exactly the overload case
  // deadlines exist for.
  void set_deadline_clock(const clock* clk) { deadline_clock_ = clk; }
  // Optional counter bumped per expired request (sn.slowpath.expired).
  void set_expired_counter(counter* c) { expired_counter_ = c; }
  std::uint64_t expired() const { return expired_; }

  // True when no request or response is in flight in any ring.
  bool idle() const;

  std::size_t shards() const { return endpoints_.size(); }

 private:
  struct endpoint_impl final : slowpath_channel {
    explicit endpoint_impl(std::size_t depth) : requests(depth), responses(depth) {}
    bool submit(slowpath_request request) override { return requests.try_push(request); }
    std::optional<slowpath_response> poll() override { return responses.try_pop(); }
    spsc_ring<slowpath_request> requests;
    spsc_ring<slowpath_response> responses;
  };

  slowpath_handler handler_;
  wake_fn wake_;
  const clock* deadline_clock_ = nullptr;
  counter* expired_counter_ = nullptr;
  std::uint64_t expired_ = 0;
  std::vector<std::unique_ptr<endpoint_impl>> endpoints_;
  std::vector<bool> touched_;  // pump() scratch: shards that got a response
};

// socketpair(2) + service thread: one syscall per direction per packet,
// with full serialize/deserialize — the paper's prototype transport.
class ipc_channel final : public slowpath_channel {
 public:
  explicit ipc_channel(slowpath_handler handler);
  ~ipc_channel() override;
  bool submit(slowpath_request request) override;
  std::optional<slowpath_response> poll() override;

 private:
  void worker_loop(slowpath_handler handler);
  int terminus_fd_ = -1;
  int service_fd_ = -1;
  bytes rx_buffer_;
  std::thread worker_;
};

}  // namespace interedge::core
