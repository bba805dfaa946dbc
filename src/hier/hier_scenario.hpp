// Hierarchical deployment scenario: the same deterministic world as
// net/scenario.hpp, re-routed through a tier of regional NOCs.
//
// Monitors 1..k are split into R contiguous shards (dist/aggregate.hpp);
// each shard reports to its regional NOC, which merges the shard's messages
// into one kAggregate per phase and forwards it to the root. Because the
// merge order is bit-stable (sorted monitor id) and the root's assembly is
// keyed by flow id, the hierarchical trajectory is bit-identical to the
// flat run_scenario_reference — the property the sim runner below exists to
// let tests and the --check-against-sim daemons assert.
#pragma once

#include <cstddef>

#include "net/scenario.hpp"

namespace spca {

/// Per-level wire accounting of a hierarchical run, derived from the shared
/// bus statistics: in the 2-level tree, volume reports and sketch responses
/// travel only monitor -> region, aggregates only region -> root, and
/// sketch requests fan root -> region -> monitor.
struct HierWireAccounting {
  /// Monitor -> regional NOC payload bytes (reports + responses).
  std::uint64_t monitor_to_region_bytes = 0;
  std::uint64_t monitor_to_region_messages = 0;
  /// Regional NOC -> root payload bytes (aggregates).
  std::uint64_t region_to_root_bytes = 0;
  std::uint64_t region_to_root_messages = 0;
  /// Downstream sketch-request fan-out (root -> region -> monitor).
  std::uint64_t request_bytes = 0;
  std::uint64_t request_messages = 0;
};

/// Splits `stats` of a hierarchical run into per-level totals.
[[nodiscard]] HierWireAccounting hier_wire_accounting(
    const NetworkStats& stats);

/// Runs the scenario single-process over a SimNetwork with `regions`
/// regional NOCs between the monitors and the root, and returns the
/// trajectory. Requires 1 <= regions <= monitors.
[[nodiscard]] ScenarioRun run_hier_scenario_sim(const NetScenario& scenario,
                                                std::size_t regions);

}  // namespace spca
