// CDN bundle tests: caching behaviour of the delivery service.
#include "services/delivery.h"

#include <gtest/gtest.h>

#include "services/clients/content.h"
#include "services/service_fixture.h"

namespace interedge::services {
namespace {

using testing::two_domain_fixture;

delivery_service* module_on(two_domain_fixture& f, deploy::peer_id sn) {
  return static_cast<delivery_service*>(f.d.sn(sn).env().module_for(ilp::svc::delivery));
}

TEST(Delivery, PlainForwardingWithoutContentKey) {
  two_domain_fixture f;
  int got = 0;
  f.carol->set_default_handler([&](const ilp::ilp_header&, bytes) { ++got; });
  f.alice->send_to(f.carol->addr(), ilp::svc::delivery, to_bytes("plain"));
  f.d.run();
  EXPECT_EQ(got, 1);
}

TEST(Delivery, FirstFetchMissesThenServesFromEdgeCache) {
  two_domain_fixture f;
  // Origin in the east, clients in the west: the classic CDN scenario.
  content_origin origin(*f.carol);
  origin.put("video-1", bytes(900, 0xab));

  content_client client_a(*f.alice);
  int done = 0;
  client_a.fetch(f.carol->addr(), "video-1", [&](const std::string&, bytes body) {
    EXPECT_EQ(body.size(), 900u);
    ++done;
  });
  f.d.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(origin.requests_served(), 1u);
  // The response traversed alice's first-hop SN, which cached it.
  EXPECT_EQ(module_on(f, f.sn_w1)->cached_objects(), 1u);

  // A second fetch (same client) is served by the SN, not the origin.
  client_a.fetch(f.carol->addr(), "video-1", [&](const std::string&, bytes body) {
    EXPECT_EQ(body.size(), 900u);
    ++done;
  });
  f.d.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(origin.requests_served(), 1u);  // unchanged
  EXPECT_EQ(module_on(f, f.sn_w1)->cache_hits(), 1u);
}

TEST(Delivery, SecondClientBehindSameSnHitsCache) {
  two_domain_fixture f;
  content_origin origin(*f.carol);
  origin.put("obj", to_bytes("cached-content"));

  content_client first(*f.alice);
  first.fetch(f.carol->addr(), "obj", [](const std::string&, bytes) {});
  f.d.run();

  auto& second_host = f.d.add_host(f.west, f.sn_w1);
  content_client second(second_host);
  std::string got;
  second.fetch(f.carol->addr(), "obj", [&](const std::string&, bytes body) {
    got = to_string(body);
  });
  f.d.run();
  EXPECT_EQ(got, "cached-content");
  EXPECT_EQ(origin.requests_served(), 1u);  // the edge absorbed the second
}

TEST(Delivery, DistinctKeysDistinctObjects) {
  two_domain_fixture f;
  content_origin origin(*f.carol);
  origin.put("a", to_bytes("AAA"));
  origin.put("b", to_bytes("BBB"));

  content_client client(*f.alice);
  std::map<std::string, std::string> got;
  for (const std::string key : {"a", "b"}) {
    client.fetch(f.carol->addr(), key, [&got](const std::string& k, bytes body) {
      got[k] = to_string(body);
    });
    f.d.run();
  }
  EXPECT_EQ(got["a"], "AAA");
  EXPECT_EQ(got["b"], "BBB");
}

TEST(Delivery, MissingContentNoResponse) {
  two_domain_fixture f;
  content_origin origin(*f.carol);
  content_client client(*f.alice);
  int done = 0;
  client.fetch(f.carol->addr(), "nope", [&](const std::string&, bytes) { ++done; });
  f.d.run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(origin.requests_served(), 0u);
}

TEST(Delivery, CacheTtlExpiresContent) {
  two_domain_fixture f;
  content_origin origin(*f.carol);
  origin.put("news", to_bytes("edition-1"));
  // 1-second freshness everywhere (otherwise a second-level SN cache on
  // the path serves the refetch — correct CDN behavior, but not what this
  // test measures).
  for (auto sn : {f.sn_w1, f.sn_w2, f.sn_e1, f.sn_e2}) {
    f.d.sn(sn).env().set_config(ilp::svc::delivery, "cache_ttl_ms", "1000");
  }

  content_client client(*f.alice);
  int responses = 0;
  client.fetch(f.carol->addr(), "news", [&](const std::string&, bytes) { ++responses; });
  f.d.run();
  EXPECT_EQ(origin.requests_served(), 1u);

  // Within TTL: served from the edge.
  client.fetch(f.carol->addr(), "news", [&](const std::string&, bytes) { ++responses; });
  f.d.run();
  EXPECT_EQ(origin.requests_served(), 1u);

  // Past TTL: the edge refetches from the origin.
  f.d.net().run_until(f.d.net().now() + std::chrono::seconds(2));
  client.fetch(f.carol->addr(), "news", [&](const std::string&, bytes) { ++responses; });
  f.d.run();
  EXPECT_EQ(origin.requests_served(), 2u);
  EXPECT_EQ(responses, 3);
  EXPECT_GE(module_on(f, f.sn_w1)->cache_expiries(), 1u);
}

TEST(Delivery, CacheEvictionAtCapacity) {
  // Direct module test: bounded cache evicts FIFO.
  two_domain_fixture f;
  content_origin origin(*f.carol);
  content_client client(*f.alice);
  // Replace the w1 module's cap by re-deploying a small-capacity module.
  f.d.sn(f.sn_w1).env().deploy(std::make_unique<delivery_service>(2));
  for (int i = 0; i < 4; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    origin.put(key, to_bytes(std::string("v").append(std::to_string(i))));
    client.fetch(f.carol->addr(), key, [](const std::string&, bytes) {});
    f.d.run();
  }
  EXPECT_LE(module_on(f, f.sn_w1)->cached_objects(), 2u);
}

}  // namespace
}  // namespace interedge::services
