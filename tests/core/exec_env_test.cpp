#include "core/exec_env.h"

#include <gtest/gtest.h>

#include "core/test_modules.h"

namespace interedge::core {
namespace {

// Bare-bones node_services for exercising the execution environment
// without a full service node.
class fake_node final : public node_services {
 public:
  peer_id node_id() const override { return 100; }
  std::uint16_t edomain() const override { return 7; }
  const clock& node_clock() const override { return clk_; }
  void send(peer_id to, const ilp::ilp_header& h, bytes payload) override {
    sent.push_back({to, h, std::move(payload)});
  }
  void schedule(nanoseconds delay, std::function<void()> fn) override {
    timers.emplace_back(delay, std::move(fn));
  }
  std::optional<peer_id> next_hop(edge_addr dest) const override { return dest; }
  decision_cache& cache() override { return cache_; }
  metrics_registry& metrics() override { return metrics_; }

  manual_clock clk_;
  decision_cache cache_{64};
  metrics_registry metrics_;
  std::vector<outbound> sent;
  std::vector<std::pair<nanoseconds, std::function<void()>>> timers;
};

packet make_packet(ilp::service_id service, edge_addr dest = 5) {
  packet p;
  p.l3_src = 1;
  p.header.service = service;
  p.header.connection = 10;
  p.header.set_meta_u64(ilp::meta_key::dest_addr, dest);
  p.payload = to_bytes("data");
  return p;
}

TEST(ExecEnv, DispatchRoutesToModule) {
  fake_node node;
  exec_env env(node);
  auto module = std::make_unique<testing::forwarder_module>();
  auto* raw = module.get();
  env.deploy(std::move(module));

  const module_result r = env.dispatch(make_packet(ilp::svc::delivery));
  EXPECT_EQ(r.verdict, decision::forward_to(5));
  EXPECT_EQ(raw->packets_seen, 1);
  EXPECT_EQ(env.dispatches(), 1u);
}

TEST(ExecEnv, UnknownServiceDropped) {
  fake_node node;
  exec_env env(node);
  const module_result r = env.dispatch(make_packet(999));
  EXPECT_EQ(r.verdict.kind, decision::verdict::drop);
  EXPECT_EQ(env.unknown_service_drops(), 1u);
}

TEST(ExecEnv, DeployedListsModules) {
  fake_node node;
  exec_env env(node);
  env.deploy(std::make_unique<testing::forwarder_module>());
  env.deploy(std::make_unique<testing::sink_module>());
  const auto ids = env.deployed();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(env.has_module(ilp::svc::delivery));
  EXPECT_TRUE(env.has_module(ilp::svc::null_service));
  EXPECT_FALSE(env.has_module(999));
}

TEST(ExecEnv, PerModuleStorageIsolated) {
  fake_node node;
  exec_env env(node);
  env.deploy(std::make_unique<testing::sink_module>());
  env.deploy(std::make_unique<testing::forwarder_module>());

  env.dispatch(make_packet(ilp::svc::null_service));
  // The sink stored a message; the forwarder's storage is untouched —
  // verified indirectly via checkpoint contents below.
  const bytes snap = env.checkpoint();
  EXPECT_GT(snap.size(), 0u);
}

TEST(ExecEnv, CheckpointRestoreRoundTrip) {
  fake_node node;
  exec_env env(node);
  env.deploy(std::make_unique<testing::sink_module>());
  env.dispatch(make_packet(ilp::svc::null_service));
  env.dispatch(make_packet(ilp::svc::null_service));
  const bytes snap = env.checkpoint();

  // Fresh environment (SN replacement after failure).
  fake_node node2;
  exec_env env2(node2);
  auto replacement = std::make_unique<testing::sink_module>();
  auto* raw = replacement.get();
  env2.deploy(std::move(replacement));
  env2.restore(snap);
  EXPECT_EQ(raw->counter(), 2);
  // Storage content restored too: the next message lands at index 2.
  env2.dispatch(make_packet(ilp::svc::null_service));
  EXPECT_EQ(raw->counter(), 3);
}

TEST(ExecEnv, RestoreSkipsUndeployedModules) {
  fake_node node;
  exec_env env(node);
  env.deploy(std::make_unique<testing::sink_module>());
  env.dispatch(make_packet(ilp::svc::null_service));
  const bytes snap = env.checkpoint();

  fake_node node2;
  exec_env env2(node2);  // nothing deployed
  EXPECT_NO_THROW(env2.restore(snap));
}

TEST(ExecEnv, ConfigReachesModuleContext) {
  // Configuration is standardized per service (§5); modules read it via
  // their context.
  class config_probe final : public service_module {
   public:
    ilp::service_id id() const override { return 50; }
    std::string_view name() const override { return "config-probe"; }
    module_result on_packet(service_context& ctx, const packet&) override {
      seen = ctx.config("mode", "default");
      return module_result::deliver();
    }
    std::string seen;
  };

  fake_node node;
  exec_env env(node);
  auto probe = std::make_unique<config_probe>();
  auto* raw = probe.get();
  env.deploy(std::move(probe));

  env.dispatch(make_packet(50));
  EXPECT_EQ(raw->seen, "default");
  env.set_config(50, "mode", "strict");
  env.dispatch(make_packet(50));
  EXPECT_EQ(raw->seen, "strict");
}

// ---- failure containment and transient retry (DESIGN.md §10) -----------

// Fails with transient_error the first `failures` calls, then succeeds.
class flaky_module final : public service_module {
 public:
  explicit flaky_module(int failures) : failures_(failures) {}
  ilp::service_id id() const override { return 70; }
  std::string_view name() const override { return "test-flaky"; }

  module_result on_packet(service_context&, const packet&) override {
    ++calls;
    if (calls <= failures_) throw transient_error("backend warming up");
    return module_result::deliver();
  }

  int calls = 0;

 private:
  int failures_;
};

// Always throws a non-transient error.
class broken_module final : public service_module {
 public:
  ilp::service_id id() const override { return 71; }
  std::string_view name() const override { return "test-broken"; }
  module_result on_packet(service_context&, const packet&) override {
    throw std::runtime_error("unrecoverable");
  }
};

// Installs one decision-cache entry more than a module result holds.
class over_inserting_module final : public service_module {
 public:
  ilp::service_id id() const override { return 72; }
  std::string_view name() const override { return "test-over-inserting"; }
  module_result on_packet(service_context&, const packet& pkt) override {
    module_result r = module_result::deliver();
    for (std::size_t i = 0; i <= kMaxCacheInserts; ++i) {
      r.cache_inserts.emplace_back(cache_key{pkt.l3_src, id(), i}, decision::deliver());
    }
    return r;
  }
};

TEST(ExecEnv, TooManyCacheInsertsIsAModuleError) {
  fake_node node;
  exec_env env(node);
  env.deploy(std::make_unique<over_inserting_module>());
  const module_result r = env.dispatch(make_packet(72));
  EXPECT_EQ(r.verdict.kind, decision::verdict::drop);
  EXPECT_TRUE(r.cache_inserts.empty());
  EXPECT_EQ(env.module_errors(), 1u);
}

TEST(ExecEnv, TransientErrorRetriedToSuccess) {
  fake_node node;
  exec_env env(node);
  auto flaky = std::make_unique<flaky_module>(2);
  auto* raw = flaky.get();
  env.deploy(std::move(flaky));

  const module_result r = env.dispatch(make_packet(70));
  EXPECT_EQ(r.verdict.kind, decision::verdict::deliver_local);
  EXPECT_EQ(raw->calls, 3);  // 2 failures + the success
  EXPECT_EQ(env.retries_attempted(), 2u);
  EXPECT_EQ(env.retries_exhausted(), 0u);
}

TEST(ExecEnv, TransientRetriesExhaustedDrops) {
  fake_node node;
  exec_env env(node);
  auto flaky = std::make_unique<flaky_module>(100);  // never recovers
  auto* raw = flaky.get();
  env.deploy(std::move(flaky));
  env.set_transient_retry_limit(3);

  const module_result r = env.dispatch(make_packet(70));
  EXPECT_EQ(r.verdict.kind, decision::verdict::drop);
  EXPECT_EQ(raw->calls, 4);  // initial attempt + 3 retries
  EXPECT_EQ(env.retries_attempted(), 3u);
  EXPECT_EQ(env.retries_exhausted(), 1u);
}

TEST(ExecEnv, NonTransientErrorContainedAsDrop) {
  fake_node node;
  exec_env env(node);
  env.deploy(std::make_unique<broken_module>());

  // A throwing module must not take the node down — the packet drops and
  // the environment keeps dispatching.
  const module_result r = env.dispatch(make_packet(71));
  EXPECT_EQ(r.verdict.kind, decision::verdict::drop);
  EXPECT_EQ(env.module_errors(), 1u);
  EXPECT_EQ(env.retries_attempted(), 0u);  // no retry for non-transient

  env.deploy(std::make_unique<testing::sink_module>());
  const module_result ok = env.dispatch(make_packet(ilp::svc::null_service));
  EXPECT_EQ(ok.verdict.kind, decision::verdict::deliver_local);
}

TEST(ExecEnv, ModuleSendsGoThroughNode) {
  fake_node node;
  exec_env env(node);
  env.deploy(std::make_unique<testing::echo_control_module>(60));

  packet p = make_packet(60);
  p.header.flags = ilp::kFlagControl;
  env.dispatch(p);
  ASSERT_EQ(node.sent.size(), 1u);
  EXPECT_EQ(node.sent[0].to, p.l3_src);
  EXPECT_EQ(node.sent[0].payload, to_bytes("data"));
}

}  // namespace
}  // namespace interedge::core
