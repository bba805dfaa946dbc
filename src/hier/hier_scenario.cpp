#include "hier/hier_scenario.hpp"

#include "common/contracts.hpp"
#include "dist/local_monitor.hpp"
#include "dist/noc_step.hpp"
#include "dist/sim_network.hpp"
#include "hier/regional_noc.hpp"

namespace spca {

HierWireAccounting hier_wire_accounting(const NetworkStats& stats) {
  const auto type_slot = [&](MessageType type) {
    return static_cast<std::size_t>(type);
  };
  HierWireAccounting acc;
  const std::size_t report = type_slot(MessageType::kVolumeReport);
  const std::size_t score = type_slot(MessageType::kScoreReport);
  const std::size_t response = type_slot(MessageType::kSketchResponse);
  const std::size_t request = type_slot(MessageType::kSketchRequest);
  const std::size_t aggregate = type_slot(MessageType::kAggregate);
  acc.monitor_to_region_bytes = stats.bytes_by_type[report] +
                                stats.bytes_by_type[score] +
                                stats.bytes_by_type[response];
  acc.monitor_to_region_messages = stats.messages_by_type[report] +
                                   stats.messages_by_type[score] +
                                   stats.messages_by_type[response];
  acc.region_to_root_bytes = stats.bytes_by_type[aggregate];
  acc.region_to_root_messages = stats.messages_by_type[aggregate];
  acc.request_bytes = stats.bytes_by_type[request];
  acc.request_messages = stats.messages_by_type[request];
  return acc;
}

ScenarioRun run_hier_scenario_sim(const NetScenario& scenario,
                                  std::size_t regions) {
  const std::size_t m = scenario.trace.num_flows();
  const std::size_t k = scenario.config.monitors;
  const SketchDetectorConfig& config = scenario.detector;
  SPCA_EXPECTS(regions >= 1 && regions <= k);

  SimNetwork bus;

  // Monitors: exactly the flat deployment's, re-pointed at their regional
  // NOC; the middle tier between them and the root.
  std::vector<LocalMonitor> monitors = make_monitors(m, k, config);
  for (LocalMonitor& monitor : monitors) {
    monitor.set_upstream(
        region_node_id(region_of_monitor(k, regions, monitor.id())));
  }
  std::vector<RegionalNoc> tier;
  tier.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    tier.emplace_back(r, region_monitor_ids(k, regions, r),
                      config.sketch_rows);
  }
  NocStep root(Noc(m, noc_config_from(config, /*host_sketches=*/false)),
               region_node_ids(regions), /*aggregated=*/true);
  if (const auto fusion = scenario_fusion(scenario.config)) {
    root.enable_fusion(*fusion);
    for (LocalMonitor& monitor : monitors) monitor.enable_first_line();
  }

  // The sim's await policy: a relay pass of the tier, the monitors' event
  // loops and a second relay pass carry any phase from the monitors up to
  // the root, or a sketch pull from the root down and back.
  const AwaitPolicy await = [&](const std::function<bool()>& ready,
                                const char* /*what*/) {
    for (RegionalNoc& region : tier) (void)region.relay(bus);
    for (LocalMonitor& monitor : monitors) monitor.handle_mail(bus);
    for (RegionalNoc& region : tier) (void)region.relay(bus);
    SPCA_ENSURES(ready());
    return true;
  };

  ScenarioRun run;
  for (std::size_t interval = 0; interval < scenario.config.intervals;
       ++interval) {
    const auto t = static_cast<std::int64_t>(interval);
    const Vector& x = scenario.trace.row(interval);
    for (LocalMonitor& monitor : monitors) {
      for (const FlowId flow : monitor.flows()) {
        monitor.ingest_volume(flow, x[flow]);
      }
      monitor.end_interval(t, bus);
    }
    run.record(t, *root.run(t, bus, await));
  }
  run.stats = bus.stats();
  return run;
}

}  // namespace spca
