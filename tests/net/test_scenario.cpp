// ScenarioRun bookkeeping: the bit-exact trajectory comparison every parity
// gate uses, and the stitching of a restarted NOC's incarnations.
#include "net/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

namespace spca {
namespace {

ScenarioRun sample_run() {
  ScenarioRun run;
  run.distances = {0.5, std::numeric_limits<double>::quiet_NaN(), 2.25};
  run.alarm_intervals = {17};
  run.fused_statistics = {0.1, 0.2, 3.0};
  run.fused_alarm_intervals = {17};
  return run;
}

TEST(ScenarioRun, TrajectoryWithANanDistanceMatchesItself) {
  // A `!=` on the double vectors would call this trajectory diverged from
  // an identical copy, since NaN != NaN.
  const ScenarioRun run = sample_run();
  const ScenarioRun copy = run;
  EXPECT_TRUE(trajectories_match(run, copy));
}

TEST(ScenarioRun, OneDistanceBitApartDoesNotMatch) {
  const ScenarioRun run = sample_run();
  ScenarioRun flipped = run;
  flipped.distances[2] = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(flipped.distances[2]) ^ 1u);
  EXPECT_FALSE(trajectories_match(run, flipped));
  ScenarioRun fused = run;
  fused.fused_statistics[0] = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(fused.fused_statistics[0]) ^ 1u);
  EXPECT_FALSE(trajectories_match(run, fused));
}

TEST(ScenarioRun, AlarmIntervalsAreCompared) {
  const ScenarioRun run = sample_run();
  ScenarioRun other = run;
  other.alarm_intervals = {18};
  EXPECT_FALSE(trajectories_match(run, other));
  other = run;
  other.fused_alarm_intervals.clear();
  EXPECT_FALSE(trajectories_match(run, other));
}

TEST(ScenarioRun, AppendStitchesIncarnationsIntoTheWholeRun) {
  const ScenarioRun whole = sample_run();
  ScenarioRun first;
  first.distances = {0.5};
  first.fused_statistics = {0.1};
  first.stats.messages = 3;
  ScenarioRun rest;
  rest.distances = {whole.distances[1], whole.distances[2]};
  rest.alarm_intervals = {17};
  rest.fused_statistics = {0.2, 3.0};
  rest.fused_alarm_intervals = {17};
  rest.stats.messages = 4;
  first.append(rest);
  EXPECT_TRUE(trajectories_match(first, whole));
  EXPECT_EQ(first.stats.messages, 7u);
}

}  // namespace
}  // namespace spca
