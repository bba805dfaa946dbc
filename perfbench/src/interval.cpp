#include "interval.hpp"

#include <cmath>
#include <cstring>

#include "core/lakhina_detector.hpp"
#include "core/sketch_detector.hpp"
#include "dist/distributed_detector.hpp"

namespace perfbench {

spca::NetScenario make_world(const IntervalSpec& spec, const Options& options,
                             std::size_t r) {
  spca::NetScenarioConfig config;
  config.topology = spec.topology;
  config.window = spec.window;
  config.sketch_rows = spec.sketch_rows;
  config.monitors = spec.monitors;
  config.intervals = spec.window - 1 + spec.decisions;
  config.seed = (options.seed * kRoundsPerSeed + r) << kSeedShift;
  config.anomalies = 1;
  config.model_backend = options.backend;
  return spca::build_scenario(config);
}

bool run_complete(const IntervalSpec& spec, std::size_t rounds,
                  double elapsed_s, const Options& options) {
  return elapsed_s >= options.seconds &&
         rounds * spec.decisions >= kMinDecisions;
}

IntervalRound run_sim_round(const spca::NetScenario& s) {
  const std::size_t window = s.detector.window;
  const std::size_t intervals = s.trace.num_intervals();
  IntervalRound round;
  const Clock::time_point start = Clock::now();
  spca::DistributedDetector detector(s.trace.num_flows(), s.config.monitors,
                                     s.detector);
  std::size_t t = 0;
  for (; t + 1 < window; ++t) {
    (void)detector.observe(static_cast<std::int64_t>(t), s.trace.row(t));
  }
  round.setup_s = seconds_since(start);
  round.interval_s.reserve(intervals - t);
  round.trajectory.reserve(intervals - t);
  for (; t < intervals; ++t) {
    const spca::Vector x = s.trace.row(t);
    const Clock::time_point begin = Clock::now();
    const spca::Detection det =
        detector.observe(static_cast<std::int64_t>(t), x);
    round.interval_s.push_back(seconds_since(begin));
    round.trajectory.push_back(det);
  }
  round.wire = detector.network_stats();
  round.monitor_bytes = detector.monitor_memory_bytes();
  return round;
}

void add_interval_metrics(const std::vector<IntervalRound>& rounds,
                          std::size_t num_flows, double rss_mb, Outcome& out) {
  std::vector<double> intervals;
  std::vector<double> setups;
  std::vector<double> round_p50, round_pull_p50;
  double bytes = 0.0;
  for (const IntervalRound& round : rounds) {
    std::vector<double> pulls;
    for (std::size_t i = 0; i < round.interval_s.size(); ++i) {
      intervals.push_back(round.interval_s[i]);
      if (round.trajectory[i].model_refreshed) {
        pulls.push_back(round.interval_s[i]);
      }
    }
    round_p50.push_back(median(round.interval_s));
    if (!pulls.empty()) round_pull_p50.push_back(median(pulls));
    setups.push_back(round.setup_s);
    bytes += static_cast<double>(round.wire.bytes);
  }
  const double decisions = static_cast<double>(intervals.size());
  EndToEnd m;
  m.interval_ms_p50 = 1e3 * median(round_p50);
  m.interval_ms_p99 = 1e3 * quantile(intervals, 0.99);
  m.pull_ms_p50 = 1e3 * median(round_pull_p50);
  m.intervals_per_s = decisions / sum(intervals);
  m.records_per_s = m.intervals_per_s * static_cast<double>(num_flows);
  m.wire_bytes_per_interval = bytes / decisions;
  m.monitor_state_kb =
      static_cast<double>(rounds.back().monitor_bytes) / 1024.0;
  m.peak_rss_mb = rss_mb;
  m.setup_s = median(setups);
  add_metrics(m, out);
}

namespace {

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-6 * (1.0 + std::abs(b));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::uint64_t count_mismatches(const std::vector<spca::Detection>& trajectory,
                               const std::vector<spca::Detection>& reference) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const spca::Detection& d = trajectory[i];
    const bool ok = i < reference.size() && d.ready &&
                    d.alarm == reference[i].alarm &&
                    near(d.distance, reference[i].distance) &&
                    near(d.threshold, reference[i].threshold) &&
                    d.alarm == (d.distance > d.threshold);
    if (!ok) ++bad;
  }
  return bad;
}

std::uint64_t count_inexact(const std::vector<spca::Detection>& trajectory,
                            const std::vector<spca::Detection>& reference) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const spca::Detection& d = trajectory[i];
    const bool ok = i < reference.size() && d.alarm == reference[i].alarm &&
                    d.model_refreshed == reference[i].model_refreshed &&
                    same_bits(d.distance, reference[i].distance) &&
                    same_bits(d.threshold, reference[i].threshold);
    if (!ok) ++bad;
  }
  return bad;
}

std::vector<spca::Detection> sketch_reference(
    const spca::NetScenario& scenario) {
  spca::SketchDetector detector(scenario.trace.num_flows(),
                                scenario.detector);
  std::vector<spca::Detection> out;
  for (std::size_t t = 0; t < scenario.trace.num_intervals(); ++t) {
    const spca::Detection det =
        detector.observe(static_cast<std::int64_t>(t), scenario.trace.row(t));
    if (det.ready) out.push_back(det);
  }
  return out;
}

Agreement lakhina_agreement(const spca::NetScenario& scenario,
                            const std::vector<spca::Detection>& trajectory) {
  spca::LakhinaConfig config;
  config.window = scenario.detector.window;
  config.alpha = scenario.detector.alpha;
  config.rank_policy = scenario.detector.rank_policy;
  config.backend.kind = spca::ModelBackendKind::kExact;
  spca::LakhinaDetector exact(scenario.trace.num_flows(), config);
  Agreement a;
  for (std::size_t t = 0; t < scenario.trace.num_intervals(); ++t) {
    const spca::Detection det =
        exact.observe(static_cast<std::int64_t>(t), scenario.trace.row(t));
    if (!det.ready) continue;
    if (a.decided < trajectory.size() &&
        trajectory[a.decided].alarm == det.alarm) {
      ++a.agreed;
    }
    ++a.decided;
  }
  // A trajectory of another length agrees on nothing.
  if (a.decided != trajectory.size()) a.agreed = 0;
  return a;
}

}  // namespace perfbench
