#include "edomain/pricing.h"

#include <gtest/gtest.h>

#include "edomain/peering.h"

namespace interedge::edomain {
namespace {

rate_card simple_card(money per_gb = 100) {
  rate_card card;
  card.set_rate(ilp::svc::delivery, "us-west", {{0, per_gb}});
  return card;
}

TEST(RateCard, FlatRate) {
  const rate_card card = simple_card(100);
  EXPECT_EQ(card.price(ilp::svc::delivery, "us-west", 10), 1000);
  EXPECT_EQ(card.price(ilp::svc::delivery, "us-west", 0), 0);
}

TEST(RateCard, UnofferedCombinationsReturnNullopt) {
  const rate_card card = simple_card();
  EXPECT_FALSE(card.price(ilp::svc::delivery, "eu-central", 10).has_value());
  EXPECT_FALSE(card.price(ilp::svc::pubsub, "us-west", 10).has_value());
  EXPECT_TRUE(card.offers(ilp::svc::delivery, "us-west"));
  EXPECT_FALSE(card.offers(ilp::svc::delivery, "eu-central"));
}

TEST(RateCard, TieredVolumeDiscount) {
  rate_card card;
  // First 10 GB at 100, next 90 GB at 50, beyond at 20.
  card.set_rate(ilp::svc::delivery, "r", {{10, 100}, {100, 50}, {0, 20}});
  EXPECT_EQ(card.price(ilp::svc::delivery, "r", 5), 500);
  EXPECT_EQ(card.price(ilp::svc::delivery, "r", 10), 1000);
  EXPECT_EQ(card.price(ilp::svc::delivery, "r", 20), 1000 + 10 * 50);
  EXPECT_EQ(card.price(ilp::svc::delivery, "r", 100), 1000 + 90 * 50);
  EXPECT_EQ(card.price(ilp::svc::delivery, "r", 150), 1000 + 90 * 50 + 50 * 20);
}

TEST(RateCard, RegionsForService) {
  rate_card card;
  card.set_rate(1, "a", {{0, 1}});
  card.set_rate(1, "b", {{0, 1}});
  EXPECT_EQ(card.regions_for(1), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(card.regions_for(2).empty());
}

TEST(Iesp, CompliantQuoteIgnoresCustomer) {
  const iesp provider("edge-co", simple_card(100));
  EXPECT_EQ(provider.quote("alice", ilp::svc::delivery, "us-west", 10),
            provider.quote("bob", ilp::svc::delivery, "us-west", 10));
}

// A non-compliant provider that charges a disfavored customer more.
class discriminating_iesp final : public iesp {
 public:
  discriminating_iesp() : iesp("shady-co", simple_card(100)) {}
  std::optional<money> quote(const std::string& customer, ilp::service_id service,
                             const std::string& region, std::uint64_t volume) const override {
    auto base = iesp::quote(customer, service, region, volume);
    if (base && customer == "disfavored") return *base * 2;
    return base;
  }
};

TEST(NeutralityAuditor, PassesCompliantProvider) {
  const iesp provider("edge-co", simple_card());
  neutrality_auditor auditor;
  const auto violations =
      auditor.audit(provider, {{ilp::svc::delivery, "us-west", 10}, {ilp::svc::delivery, "us-west", 1000}},
                    {"alice", "bob", "carol"});
  EXPECT_TRUE(violations.empty());
}

TEST(NeutralityAuditor, CatchesDiscrimination) {
  const discriminating_iesp provider;
  neutrality_auditor auditor;
  const auto violations = auditor.audit(provider, {{ilp::svc::delivery, "us-west", 10}},
                                        {"alice", "disfavored"});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].price_a, 1000);
  EXPECT_EQ(violations[0].price_b, 2000);
  EXPECT_EQ(violations[0].customer_b, "disfavored");
}

TEST(NeutralityAuditor, SelectiveDenialIsAlsoDiscrimination) {
  class denier final : public iesp {
   public:
    denier() : iesp("denier", simple_card()) {}
    std::optional<money> quote(const std::string& customer, ilp::service_id s,
                               const std::string& r, std::uint64_t v) const override {
      if (customer == "blocked") return std::nullopt;  // denies service
      return iesp::quote(customer, s, r, v);
    }
  };
  neutrality_auditor auditor;
  const auto violations =
      auditor.audit(denier(), {{ilp::svc::delivery, "us-west", 10}}, {"alice", "blocked"});
  EXPECT_EQ(violations.size(), 1u);
}

TEST(Broker, StitchesCheapestCoverage) {
  marketplace market;
  // Global provider: covers both regions, expensive.
  rate_card global_card;
  global_card.set_rate(ilp::svc::delivery, "us", {{0, 100}});
  global_card.set_rate(ilp::svc::delivery, "eu", {{0, 100}});
  market.add(std::make_shared<iesp>("global", global_card));
  // Two regional providers, cheaper at home.
  rate_card us_card;
  us_card.set_rate(ilp::svc::delivery, "us", {{0, 60}});
  market.add(std::make_shared<iesp>("us-local", us_card));
  rate_card eu_card;
  eu_card.set_rate(ilp::svc::delivery, "eu", {{0, 70}});
  market.add(std::make_shared<iesp>("eu-local", eu_card));

  broker b(market);
  const auto plan = b.stitch("customer", ilp::svc::delivery, {{"us", 10}, {"eu", 10}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->total, 600 + 700);
  ASSERT_EQ(plan->assignments.size(), 2u);
  // "collections of smaller IESPs compete with the global ones": the
  // stitched plan beats the single global quote (100*20 = 2000).
  EXPECT_LT(plan->total, 2000);
}

TEST(Broker, UncoverableRegionFailsWholePlan) {
  marketplace market;
  rate_card us_card;
  us_card.set_rate(ilp::svc::delivery, "us", {{0, 60}});
  market.add(std::make_shared<iesp>("us-local", us_card));
  broker b(market);
  EXPECT_FALSE(b.stitch("c", ilp::svc::delivery, {{"us", 1}, {"antarctica", 1}}).has_value());
}

TEST(Broker, PlanNeverWorseThanAnySingleProvider) {
  // Property: for any provider that covers all regions, the broker's plan
  // total is <= that provider's total.
  marketplace market;
  for (int p = 0; p < 5; ++p) {
    rate_card card;
    card.set_rate(ilp::svc::delivery, "r1", {{0, 50 + p * 13}});
    card.set_rate(ilp::svc::delivery, "r2", {{0, 90 - p * 7}});
    market.add(std::make_shared<iesp>(std::string("p").append(std::to_string(p)), card));
  }
  broker b(market);
  const std::map<std::string, std::uint64_t> demand{{"r1", 7}, {"r2", 11}};
  const auto plan = b.stitch("c", ilp::svc::delivery, demand);
  ASSERT_TRUE(plan.has_value());
  for (const auto& provider : market.providers()) {
    money single = 0;
    bool covers_all = true;
    for (const auto& [region, volume] : demand) {
      const auto q = provider->quote("c", ilp::svc::delivery, region, volume);
      if (!q) {
        covers_all = false;
        break;
      }
      single += *q;
    }
    if (covers_all) {
      EXPECT_LE(plan->total, single) << provider->name();
    }
  }
}

TEST(Marketplace, FindByName) {
  marketplace market;
  market.add(std::make_shared<iesp>("a", rate_card{}));
  EXPECT_NE(market.find("a"), nullptr);
  EXPECT_EQ(market.find("b"), nullptr);
}

TEST(SettlementLedger, TrafficRecordedSettlementZero) {
  settlement_ledger ledger;
  ledger.record_transfer(1, 2, 1000);
  ledger.record_transfer(1, 2, 500);
  ledger.record_transfer(2, 1, 10);
  EXPECT_EQ(ledger.traffic(1, 2), 1500u);
  EXPECT_EQ(ledger.traffic(2, 1), 10u);
  EXPECT_EQ(ledger.total_traffic(), 1510u);
  // "no money changes hands" — regardless of (a)symmetry of traffic.
  EXPECT_EQ(ledger.settlement_due(1, 2), 0);
  EXPECT_EQ(ledger.settlement_due(2, 1), 0);
  EXPECT_EQ(ledger.active_pairs().size(), 2u);
}

}  // namespace
}  // namespace interedge::edomain
