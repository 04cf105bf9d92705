// The named scenario suites (ISSUE 9): deterministic adversarial + churn
// workloads over the simulated deployment, each ending in a machine-
// readable SLO verdict report.
//
//   flash_crowd    — CDN/caching bundle absorbing a 50x arrival spike
//   pubsub_storm   — fan-out amplification across three edomains
//   ddos_mix       — volumetric + spoofed attack through a bandwidth-
//                    limited edge; burn-rate page, flight-recorder freeze,
//                    then mitigation and recovery
//   mobility_churn — endpoints re-anchoring between SNs mid-flow with
//                    re-keying, crash and partition faults mid-migration
//
// Every suite is a pure function of its seed: same seed, byte-identical
// report (behavior digest included) — asserted by the replay test and
// exposed through bench/scenario_suites for CI.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "scenario/scenario.h"

namespace interedge::scenario {

scenario_report run_flash_crowd(std::uint64_t seed);
scenario_report run_pubsub_storm(std::uint64_t seed);
scenario_report run_ddos_mix(std::uint64_t seed);
scenario_report run_mobility_churn(std::uint64_t seed);

// All suite names, in the order the runner executes them.
std::vector<std::string_view> suite_names();
// Dispatch by name; throws std::invalid_argument for an unknown suite.
scenario_report run_suite(std::string_view name, std::uint64_t seed);

}  // namespace interedge::scenario
