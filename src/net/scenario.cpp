#include "net/scenario.hpp"

#include <cstring>

#include "common/error.hpp"
#include "detect/fusion.hpp"
#include "dist/distributed_detector.hpp"
#include "synth/anomaly_injector.hpp"
#include "synth/traffic_model.hpp"
#include "traffic/topology.hpp"

namespace spca {

namespace {

// Deterministic synthetic topology for scale-out runs: a ring of `routers`
// PoPs with cross-ring chords (a chorded cycle — enough path diversity for
// the gravity-model traffic while staying O(n) links). "synth15" gives
// 15 routers and 225 OD flows, the smallest synth size that fits the
// 200-monitor hierarchy scenario.
Topology synth_topology(std::size_t routers) {
  if (routers < 4 || routers > 64) {
    throw InputError("synth topology: routers must be in [4, 64]");
  }
  std::vector<std::string> names;
  names.reserve(routers);
  for (std::size_t i = 0; i < routers; ++i) {
    names.push_back("P" + std::to_string(i));
  }
  std::vector<Link> links;
  const auto id = [](std::size_t i) { return static_cast<RouterId>(i); };
  for (std::size_t i = 0; i < routers; ++i) {
    links.push_back(Link{id(i), id((i + 1) % routers), 1.0});
  }
  for (std::size_t i = 0; i < routers / 2; ++i) {
    links.push_back(Link{id(i), id(i + routers / 2), 1.5});
  }
  return Topology(std::move(names), std::move(links));
}

Topology scenario_topology(const std::string& name) {
  if (name == "diamond") {
    return Topology({"A", "B", "C", "D"},
                    {Link{0, 1, 1.0}, Link{1, 2, 1.0}, Link{2, 3, 1.0},
                     Link{3, 0, 1.0}, Link{0, 2, 1.5}});
  }
  if (name == "abilene") return abilene_topology();
  if (name.rfind("synth", 0) == 0) {
    const std::string arg = name.substr(5);
    std::size_t routers = 0;
    for (const char c : arg) {
      if (c < '0' || c > '9') {
        throw InputError("synth topology: expected synth<routers>, got " +
                         name);
      }
      routers = routers * 10 + static_cast<std::size_t>(c - '0');
    }
    return synth_topology(routers);
  }
  throw InputError("unknown scenario topology: " + name +
                   " (expected diamond, abilene, or synth<routers>)");
}

}  // namespace

NetScenario build_scenario(const NetScenarioConfig& config) {
  if (config.intervals <= config.window) {
    throw InputError("scenario: intervals must exceed the window");
  }
  if (config.monitors == 0) {
    throw InputError("scenario: at least one monitor required");
  }
  const Topology topology = scenario_topology(config.topology);
  if (config.monitors > topology.num_od_flows()) {
    throw InputError("scenario: more monitors than flows");
  }

  TrafficModelConfig traffic;
  traffic.num_intervals = config.intervals;
  traffic.interval_seconds = 300.0;
  traffic.seed = config.seed;
  traffic.network_noise = 0.08;
  traffic.flow_noise = 0.10;
  traffic.measurement_noise = 0.03;
  TraceSet trace = generate_traffic(topology, traffic);
  if (config.anomalies > 0) {
    AnomalyInjector injector(topology, config.seed ^ 0xabcdef);
    (void)injector.inject_mixture(
        trace, config.anomalies, static_cast<std::int64_t>(config.window),
        static_cast<std::int64_t>(config.intervals));
  }

  SketchDetectorConfig detector;
  detector.window = config.window;
  detector.epsilon = 0.01;
  detector.sketch_rows = config.sketch_rows;
  detector.alpha = 0.01;
  detector.rank_policy = RankPolicy::fixed(3);
  detector.seed = config.seed;
  detector.lazy = true;
  detector.backend.kind = parse_model_backend(config.model_backend);
  return NetScenario{config, std::move(trace), detector};
}

void ScenarioRun::record(std::int64_t t, const IntervalVerdict& verdict) {
  const Detection& det = verdict.detection;
  if (!det.ready) return;
  distances.push_back(det.distance);
  if (det.alarm) alarm_intervals.push_back(t);
  if (!verdict.fused.ready) return;
  fused_statistics.push_back(verdict.fused.statistic);
  if (verdict.fused.alarm) fused_alarm_intervals.push_back(t);
}

void ScenarioRun::append(const ScenarioRun& rest) {
  const auto extend = [](auto& into, const auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  extend(alarm_intervals, rest.alarm_intervals);
  extend(distances, rest.distances);
  extend(fused_alarm_intervals, rest.fused_alarm_intervals);
  extend(fused_statistics, rest.fused_statistics);
  stats += rest.stats;
}

bool trajectories_match(const ScenarioRun& a, const ScenarioRun& b) {
  const auto bits_match = [](const std::vector<double>& x,
                             const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(),
                                     x.size() * sizeof(double)) == 0);
  };
  return a.alarm_intervals == b.alarm_intervals &&
         a.fused_alarm_intervals == b.fused_alarm_intervals &&
         bits_match(a.distances, b.distances) &&
         bits_match(a.fused_statistics, b.fused_statistics);
}

std::optional<FusionConfig> scenario_fusion(const NetScenarioConfig& config) {
  if (config.fusion == "off") return std::nullopt;
  FusionConfig fusion;
  fusion.rule = parse_fusion_rule(config.fusion);
  return fusion;
}

ScenarioRun run_scenario_reference(const NetScenario& scenario,
                                   Transport* transport) {
  DistributedDetector detector(scenario.trace.num_flows(),
                               scenario.config.monitors, scenario.detector,
                               /*noc_hosted_sketches=*/false, transport);
  if (const auto fusion = scenario_fusion(scenario.config)) {
    detector.enable_fusion(*fusion);
  }
  ScenarioRun run;
  for (std::size_t t = 0; t < scenario.config.intervals; ++t) {
    const auto ti = static_cast<std::int64_t>(t);
    const Detection det = detector.observe(ti, scenario.trace.row(t));
    run.record(ti, IntervalVerdict{det, detector.last_fused()});
  }
  run.stats = detector.network_stats();
  return run;
}

void define_scenario_flags(CliFlags& flags) {
  flags.define("topology", "diamond",
               "Scenario topology: diamond (16 flows), abilene (81 flows), "
               "or synth<N> (N routers, N^2 flows)");
  flags.define("intervals", "96", "Measurement intervals to replay");
  flags.define("window", "24", "Sliding-window length n (also the warm-up)");
  flags.define("sketch-rows", "12", "Sketch length l");
  flags.define("monitors", "2", "Number of monitor processes");
  flags.define("seed", "7", "Deterministic world seed");
  flags.define("anomalies", "4", "Anomaly episodes injected after warm-up");
  flags.define("model-backend", "warm",
               "NOC model backend: exact | warm | rsvd | fd");
  flags.define("fusion", "off",
               "Ensemble fusion rule: off | any | all | weighted");
}

NetScenarioConfig scenario_from_flags(const CliFlags& flags) {
  NetScenarioConfig config;
  config.topology = flags.str("topology");
  config.intervals = static_cast<std::size_t>(flags.integer("intervals"));
  config.window = static_cast<std::size_t>(flags.integer("window"));
  config.sketch_rows = static_cast<std::size_t>(flags.integer("sketch-rows"));
  config.monitors = static_cast<std::size_t>(flags.integer("monitors"));
  config.seed = static_cast<std::uint64_t>(flags.integer("seed"));
  config.anomalies = static_cast<std::size_t>(flags.integer("anomalies"));
  config.model_backend = flags.str("model-backend");
  (void)parse_model_backend(config.model_backend);  // validate early
  config.fusion = flags.str("fusion");
  if (config.fusion != "off") {
    (void)parse_fusion_rule(config.fusion);  // validate early
  }
  return config;
}

}  // namespace spca
