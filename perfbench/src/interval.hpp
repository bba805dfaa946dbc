// The interval workloads' common ground: scenario make-up, the per-round
// timing record, the end-to-end metrics, and the independent output checks.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/detector.hpp"
#include "net/scenario.hpp"

namespace perfbench {

/// Make-up of one interval workload. Every round of a run replays a world of
/// its own, window - 1 + decisions intervals long, and times every decision
/// interval t >= window-1.
struct IntervalSpec {
  const char* topology;
  std::size_t window;
  std::size_t sketch_rows;
  std::size_t monitors;
  std::size_t decisions;
};

/// The paper's setting: Abilene (m = 81), l = 80, n = 288, 3 monitors.
inline constexpr IntervalSpec kAbilene{"abilene", 288, 80, 3, 144};
/// l << m: synth12 (m = 144), l = 40, 12 monitors.
inline constexpr IntervalSpec kWide{"synth12", 288, 40, 12, 126};

/// Decision intervals a run times at least, so that ten samples lie beyond
/// its p99.
inline constexpr std::size_t kMinDecisions = 1000;

/// Scenario seeds of neighbouring rounds lie 2^kSeedShift apart: the traffic
/// model seeds flow j of world seed s with s + 0x1000 + j, so worlds whose
/// seeds differ by less than the flow count share noise streams.
inline constexpr unsigned kSeedShift = 16;

/// Rounds a run may hold before its scenario seeds would run into those of
/// the next run seed.
inline constexpr std::uint64_t kRoundsPerSeed = std::uint64_t{1} << 24;

/// The deterministic world of round r of a run: round r of seed s is built
/// from scenario seed (s * kRoundsPerSeed + r) << kSeedShift, so no two
/// rounds of a run, or of two run seeds, share a world. Traffic, the one
/// anomaly episode and the projection all derive from it; the NOC uses
/// options.backend (warm by default).
[[nodiscard]] spca::NetScenario make_world(const IntervalSpec& spec,
                                           const Options& options,
                                           std::size_t r);

/// True once a run that has completed `rounds` rounds may stop: --seconds
/// used up and at least kMinDecisions timed.
[[nodiscard]] bool run_complete(const IntervalSpec& spec, std::size_t rounds,
                                double elapsed_s, const Options& options);

/// One round of an interval workload: fresh deployment, warm-up, and every
/// decision interval timed.
struct IntervalRound {
  /// Start of the round to the start of the first decision interval.
  double setup_s = 0.0;
  /// Wall time of each decision interval, in order.
  std::vector<double> interval_s;
  /// The verdicts, in order (the trajectory the checks compare).
  std::vector<spca::Detection> trajectory;
  /// Serialized payload bytes all nodes sent over the whole round.
  spca::NetworkStats wire;
  /// Sum of LocalMonitor::memory_bytes at the end of the round.
  std::size_t monitor_bytes = 0;
};

/// One round of DistributedDetector::observe over its built-in SimNetwork.
[[nodiscard]] IntervalRound run_sim_round(const spca::NetScenario& scenario);

/// Appends the end-to-end metrics of `rounds` to `out`. The medians of
/// interval and pull time are taken per round and reported as their median
/// over the rounds, so a stretch of slow host shorter than half the run
/// moves them little; p99 is over every decision of the run. Throughput is
/// all decisions over their summed wall time, which weighs every world of
/// the run alike. Wire bytes are per decision over the run, monitor state
/// of the last round, set-up the median over rounds.
void add_interval_metrics(const std::vector<IntervalRound>& rounds,
                          std::size_t num_flows, double rss_mb, Outcome& out);

/// Decisions of `trajectory` that differ from `reference` beyond the
/// tolerance of the distributed-vs-single-process tests (verdicts equal,
/// distance and threshold within a relative 1e-6), or whose alarm is not
/// exactly "distance exceeds threshold".
[[nodiscard]] std::uint64_t count_mismatches(
    const std::vector<spca::Detection>& trajectory,
    const std::vector<spca::Detection>& reference);

/// Decisions of `trajectory` that are not bit-identical to `reference`.
[[nodiscard]] std::uint64_t count_inexact(
    const std::vector<spca::Detection>& trajectory,
    const std::vector<spca::Detection>& reference);

/// Verdicts of the single-process SketchDetector on the scenario.
[[nodiscard]] std::vector<spca::Detection> sketch_reference(
    const spca::NetScenario& scenario);

/// Decisions on which `trajectory` and the exact LakhinaDetector at the
/// same rank and window agree, and decisions compared.
struct Agreement {
  std::size_t agreed = 0;
  std::size_t decided = 0;
};
[[nodiscard]] Agreement lakhina_agreement(
    const spca::NetScenario& scenario,
    const std::vector<spca::Detection>& trajectory);

/// Lowest accepted agreement with the exact detector (README, "Checks").
inline constexpr double kLakhinaAgreementFloor = 0.85;
/// Rounds the exact detector is checked on (the first of the run): it
/// refits at every interval, so it is held to a few rounds to keep the
/// untimed checks short.
inline constexpr std::size_t kLakhinaRounds = 4;

}  // namespace perfbench
