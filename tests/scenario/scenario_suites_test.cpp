// Scenario engine end-to-end (ISSUE 9): every named suite runs seeded over
// the simulated deployment, emits a machine-readable SLO verdict report,
// passes its own verdicts, and replays digest-identically from the same
// seed. The ddos_mix assertions double as the graceful-degradation
// acceptance check: legitimate p99 must demonstrably breach during the
// attack AND recover inside the SLO after mitigation while the flood is
// shed.
#include "scenario/suites.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace interedge::scenario {
namespace {

constexpr std::uint64_t kSeed = 42;

const slo_check& find_check(const scenario_report& rep, std::string_view name) {
  for (const slo_check& c : rep.checks) {
    if (c.name == name) return c;
  }
  throw std::runtime_error("missing check: " + std::string(name));
}

std::string verdict_lines(const scenario_report& rep) {
  std::string out;
  for (const slo_check& c : rep.checks) {
    out += c.name + ": " + std::to_string(c.observed) + (c.upper_bound ? " <= " : " >= ") +
           std::to_string(c.bound) + (c.pass ? " PASS" : " FAIL") + "\n";
  }
  return out;
}

TEST(ScenarioSuites, FlashCrowdAbsorbsSpikeAtTheEdge) {
  const scenario_report rep = run_flash_crowd(kSeed);
  EXPECT_TRUE(rep.passed()) << verdict_lines(rep);
  EXPECT_EQ(rep.suite, "flash_crowd");
  // Pinned: a change that alters any datagram's (from, to, size, time)
  // moves the digest.
  EXPECT_EQ(rep.behavior_digest, 0x5922ab5cdbb38344u);
  // The spike is absorbed by the caching bundle, not the origin: most
  // requests hit the edge cache and the origin sees a small fraction.
  EXPECT_GE(find_check(rep, "edge_cache_hit_ratio").observed, 0.5);
  EXPECT_LE(find_check(rep, "origin_load_fraction").observed, 0.5);
  EXPECT_EQ(find_check(rep, "slo_pages").observed, 0.0);
  EXPECT_GT(rep.stats.at("issued"), 0.0);
}

TEST(ScenarioSuites, PubsubStormDeliversUnderAmplification) {
  const scenario_report rep = run_pubsub_storm(kSeed);
  EXPECT_TRUE(rep.passed()) << verdict_lines(rep);
  EXPECT_EQ(rep.behavior_digest, 0xf624f01ff17c509bu);
  EXPECT_GE(find_check(rep, "delivery_ratio").observed, 0.98);
  // Six subscribers across three edomains: each publish amplifies well
  // beyond one wire packet.
  EXPECT_GT(rep.stats.at("amplification"), 6.0);
}

TEST(ScenarioSuites, DdosMixDegradesThenRecovers) {
  const scenario_report rep = run_ddos_mix(kSeed);
  EXPECT_TRUE(rep.passed()) << verdict_lines(rep);
  EXPECT_EQ(rep.behavior_digest, 0xf466bd37e19dad66u);
  // Phase A: the flood demonstrably breaches the latency SLO, the
  // burn-rate monitor pages, and the page freezes the flight recorder.
  EXPECT_GT(find_check(rep, "attack_degrades_legit_p99").observed, 10.0);
  EXPECT_GE(find_check(rep, "slo_pages").observed, 1.0);
  EXPECT_GE(find_check(rep, "blackbox_frozen").observed, 1.0);
  // Phase B: mitigation sheds the attack at its entry edge while the
  // legitimate flows survive — bounded p99, no loss.
  EXPECT_LE(find_check(rep, "legit_recovery_p99_ms").observed, 10.0);
  EXPECT_GE(find_check(rep, "legit_delivery_ratio").observed, 0.99);
  EXPECT_GE(find_check(rep, "attack_shed_fraction").observed, 0.95);
  EXPECT_GE(find_check(rep, "spoof_rejections").observed, 1.0);
}

TEST(ScenarioSuites, MobilityChurnSurvivesFaultsMidMigration) {
  const scenario_report rep = run_mobility_churn(kSeed);
  EXPECT_TRUE(rep.passed()) << verdict_lines(rep);
  EXPECT_EQ(rep.behavior_digest, 0x574e860747296a24u);
  EXPECT_GE(find_check(rep, "delivered_ratio").observed, 0.90);
  EXPECT_LE(find_check(rep, "max_outage_ms").observed, 14.0);
  // The churn exercised the re-anchoring datapath: breadcrumbs chased
  // stale-routed traffic, a crumb aged out, and the old SN's crash purged
  // the gateway's cached forwards through the peer-down path.
  EXPECT_GE(find_check(rep, "breadcrumb_forwards").observed, 5.0);
  EXPECT_GE(find_check(rep, "breadcrumbs_expired").observed, 1.0);
  EXPECT_GE(find_check(rep, "peer_down_cache_purges").observed, 1.0);
}

TEST(ScenarioSuites, ReplayIsDigestIdentical) {
  for (const std::string_view name : suite_names()) {
    const scenario_report a = run_suite(name, 7);
    const scenario_report b = run_suite(name, 7);
    EXPECT_EQ(a.behavior_digest, b.behavior_digest) << name;
    // Byte-identical reports, not just matching digests: every observed
    // value, stat, and verdict replays.
    EXPECT_EQ(a.to_json(), b.to_json()) << name;
    // And the digest actually discriminates: a different seed is a
    // different behavioral trace.
    const scenario_report c = run_suite(name, 8);
    EXPECT_NE(a.behavior_digest, c.behavior_digest) << name;
  }
}

TEST(ScenarioSuites, ReportJsonIsMachineReadable) {
  const scenario_report rep = run_flash_crowd(kSeed);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"suite\":\"flash_crowd\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"behavior_digest\":\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"checks\":["), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
}

TEST(ScenarioSuites, DispatchKnowsEveryNameAndRejectsUnknown) {
  EXPECT_EQ(suite_names().size(), 4u);
  EXPECT_THROW(run_suite("no_such_suite", kSeed), std::invalid_argument);
}

}  // namespace
}  // namespace interedge::scenario
