#include "dist/noc.hpp"

#include <gtest/gtest.h>

#include "dist/noc_step.hpp"

#include <cmath>

#include "common/error.hpp"
#include "dist/local_monitor.hpp"
#include "dist/sim_network.hpp"

namespace spca {
namespace {

NocConfig small_noc_config(std::size_t l) {
  NocConfig config;
  config.window = 16;
  config.sketch_rows = l;
  config.alpha = 0.01;
  config.rank_policy = RankPolicy::fixed(2);
  return config;
}

TEST(Noc, CollectsVolumesFromMultipleMonitors) {
  SimNetwork net;
  Noc noc(4, small_noc_config(4));
  Message r1;
  r1.type = MessageType::kVolumeReport;
  r1.from = 1;
  r1.to = kNocId;
  r1.interval = 5;
  r1.ids = {0, 2};
  r1.values = {10.0, 30.0};
  Message r2 = r1;
  r2.from = 2;
  r2.ids = {1, 3};
  r2.values = {20.0, 40.0};
  net.send(r1);
  net.send(r2);
  const Vector x = noc.collect_volumes(5, net);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(x[j], 10.0 * static_cast<double>(j + 1));
  }
}

TEST(Noc, MissingReportsRejected) {
  SimNetwork net;
  Noc noc(4, small_noc_config(4));
  Message r1;
  r1.type = MessageType::kVolumeReport;
  r1.from = 1;
  r1.to = kNocId;
  r1.interval = 0;
  r1.ids = {0, 1};
  r1.values = {1.0, 2.0};
  net.send(r1);
  EXPECT_THROW((void)noc.collect_volumes(0, net), ProtocolError);
}

TEST(Noc, DuplicateFlowReportRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(2));
  Message r;
  r.type = MessageType::kVolumeReport;
  r.from = 1;
  r.to = kNocId;
  r.interval = 0;
  r.ids = {0, 0};
  r.values = {1.0, 2.0};
  net.send(r);
  EXPECT_THROW((void)noc.collect_volumes(0, net), ProtocolError);
}

TEST(Noc, WrongIntervalRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(2));
  Message r;
  r.type = MessageType::kVolumeReport;
  r.from = 1;
  r.to = kNocId;
  r.interval = 3;
  r.ids = {0, 1};
  r.values = {1.0, 2.0};
  net.send(r);
  EXPECT_THROW((void)noc.collect_volumes(4, net), ProtocolError);
}

class NocProtocolTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFlows = 4;
  static constexpr std::size_t kRows = 8;
  SimNetwork net_;
  ProjectionSource source_{ProjectionKind::kGaussian, 31};
  LocalMonitor monitor_a_{1, {0, 1}, 16, 0.05, kRows, source_};
  LocalMonitor monitor_b_{2, {2, 3}, 16, 0.05, kRows, source_};
  NocStep step_{Noc(kFlows, small_noc_config(kRows)), {1, 2},
                /*aggregated=*/false};

  /// Closes interval t at both monitors and runs the NOC's step on it, with
  /// the simulation's await policy: one pass of the monitors' mailboxes.
  Detection step_interval(NocStep& step, std::int64_t t, const Vector& x) {
    monitor_a_.ingest_volume(0, x[0]);
    monitor_a_.ingest_volume(1, x[1]);
    monitor_b_.ingest_volume(2, x[2]);
    monitor_b_.ingest_volume(3, x[3]);
    monitor_a_.end_interval(t, net_);
    monitor_b_.end_interval(t, net_);
    const auto verdict =
        step.run(t, net_, [this](const std::function<bool()>& ready,
                                 const char* /*what*/) {
          monitor_a_.handle_mail(net_);
          monitor_b_.handle_mail(net_);
          return ready();
        });
    EXPECT_TRUE(verdict.has_value());
    return verdict ? verdict->detection : Detection{};
  }

  static Vector quiet_row(std::int64_t t) {
    Vector x(kFlows);
    for (std::size_t j = 0; j < kFlows; ++j) {
      x[j] = 1000.0 * static_cast<double>(j + 1) +
             25.0 * std::sin(static_cast<double>(t) * 0.4 +
                             static_cast<double>(j));
    }
    return x;
  }
};

TEST_F(NocProtocolTest, FirstDetectPullsSketchesOnce) {
  for (std::int64_t t = 0; t < 16; ++t) {
    const Detection det = step_interval(step_, t, quiet_row(t));
    // The window is 16 intervals: the first decision is at t = 15.
    EXPECT_EQ(det.ready, t == 15);
    EXPECT_EQ(det.model_refreshed, t == 15);
  }
  EXPECT_EQ(step_.noc().sketch_pulls(), 1u);
  ASSERT_TRUE(step_.noc().model().has_value());
  EXPECT_EQ(step_.noc().model()->dimensions(), kFlows);
}

TEST_F(NocProtocolTest, QuietTrafficReusesStaleModel) {
  for (std::int64_t t = 0; t < 40; ++t) {
    (void)step_interval(step_, t, quiet_row(t));
  }
  // One initial pull plus at most a few suspicion-driven refreshes.
  EXPECT_LT(step_.noc().sketch_pulls(), 10u);
}

TEST_F(NocProtocolTest, SpikeForcesRefreshAndAlarm) {
  for (std::int64_t t = 0; t < 30; ++t) {
    Vector x = quiet_row(t);
    if (t == 29) {
      x[0] *= 8.0;
      x[2] *= 8.0;
    }
    const Detection det = step_interval(step_, t, x);
    if (t == 29) {
      EXPECT_TRUE(det.model_refreshed);
      EXPECT_TRUE(det.alarm);
    }
  }
  EXPECT_GE(step_.noc().alarms_sent(), 1u);
}

/// Runs one interval of a 2-flow NOC whose only child, monitor 1, reports
/// both volumes and answers the sketch pull with `answer`. The step starts
/// with its warm-up already counted and no model, so it pulls at once.
void run_pull_answered_with(std::size_t rows, Message answer) {
  SimNetwork net;
  NocStep step(Noc(2, small_noc_config(rows)), {1}, /*aggregated=*/false,
               /*observed=*/15);
  Message report;
  report.type = MessageType::kVolumeReport;
  report.from = 1;
  report.to = kNocId;
  report.interval = 0;
  report.ids = {0, 1};
  report.values = {1.0, 2.0};
  net.send(report);
  answer.from = 1;
  answer.to = kNocId;
  answer.interval = 0;
  (void)step.run(0, net, [&](const std::function<bool()>& ready,
                             const char* /*what*/) {
    if (!net.drain(1).empty()) net.send(answer);  // the pull's request
    return ready();
  });
}

TEST(NocFailureInjection, MalformedSketchResponseRejected) {
  Message bad;
  bad.type = MessageType::kSketchResponse;
  bad.ids = {0, 1};
  bad.values = {1.0, 2.0, 3.0};  // wrong block size: needs 2 * (4 + 2)
  EXPECT_THROW(run_pull_answered_with(4, bad), ProtocolError);
}

TEST(NocFailureInjection, SketchForUnknownFlowRejected) {
  Message bad;
  bad.type = MessageType::kSketchResponse;
  bad.ids = {7};  // flow 7 does not exist in a 2-flow deployment
  bad.values = {0.0, 1.0, 0.5, 0.5};
  EXPECT_THROW(run_pull_answered_with(2, bad), ProtocolError);
}

TEST(NocFailureInjection, RefitBeforeAllSketchesRejected) {
  Message partial;
  partial.type = MessageType::kSketchResponse;
  partial.ids = {0};  // flow 1's sketch never arrives
  partial.values = {0.0, 4.0, 0.5, 0.5};
  EXPECT_THROW(run_pull_answered_with(2, partial), ProtocolError);
}

TEST(NocFailureInjection, WrongMessageTypeInSketchPhaseRejected) {
  // An aggregate is no message a flat NOC routes.
  Message wrong;
  wrong.type = MessageType::kAggregate;
  wrong.ids = {0, 1};
  wrong.values = {1.0, 2.0};
  EXPECT_THROW(run_pull_answered_with(2, wrong), ProtocolError);
}

TEST_F(NocProtocolTest, EagerModePullsEveryInterval) {
  NocConfig eager = small_noc_config(kRows);
  eager.lazy = false;
  NocStep step(Noc(kFlows, eager), {1, 2}, /*aggregated=*/false);
  for (std::int64_t t = 0; t < 24; ++t) {
    (void)step_interval(step, t, quiet_row(t));
  }
  EXPECT_EQ(step.noc().sketch_pulls(), 24u - 15u);
}

}  // namespace
}  // namespace spca
