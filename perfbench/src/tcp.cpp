// abilene-tcp: the abilene-sim scenario through a NocDaemon and one
// MonitorDaemon per monitor, each on a thread of this process, over real
// loopback sockets. The daemons run the kAdvance lock-step, so the loop is
// closed: a monitor starts interval t+1 only once the NOC has decided t.
//
// Interval time is taken from outside through the monitors' after_advance
// hook: decision interval t runs from the first release into t (kAdvance of
// t-1 received) to the first release into t+1, so the intervals tile the
// decision phase exactly. The traced run plugs a TimingTransport into every
// daemon's wrap_transport hook and reads the NOC's compute time (feed,
// decision, refit) and the monitors' close from the program's span log.
#include <sched.h>

#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <thread>

#include "interval.hpp"
#include "net/monitor_daemon.hpp"
#include "net/noc_daemon.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"
#include "timing_transport.hpp"

namespace perfbench {

namespace {

/// Hands a daemon a view of a TimingTransport the benchmark owns, so the
/// accounting outlives the daemon's run().
class Forward final : public spca::Transport {
 public:
  explicit Forward(spca::Transport& to) : to_(to) {}
  void send(const spca::Message& msg) override { to_.send(msg); }
  [[nodiscard]] std::vector<spca::Message> drain(spca::NodeId node) override {
    return to_.drain(node);
  }
  [[nodiscard]] std::vector<spca::Message> take(
      spca::NodeId node, spca::MessageType type) override {
    return to_.take(node, type);
  }
  [[nodiscard]] bool has_mail(spca::NodeId node) const override {
    return to_.has_mail(node);
  }
  bool wait_for_mail(spca::NodeId node,
                     std::chrono::milliseconds timeout) override {
    return to_.wait_for_mail(node, timeout);
  }
  [[nodiscard]] const spca::NetworkStats& stats() const noexcept override {
    return to_.stats();
  }
  void reset_stats() noexcept override { to_.reset_stats(); }

 private:
  spca::Transport& to_;
};

/// Confines the calling thread, and every thread it starts while this is
/// alive, to the CPU it runs on; restores the thread's CPU set on exit.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~OneCpu() {
    if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct TcpRound {
  IntervalRound round;
  /// Traced only: the decorators (index 0 = NOC, i = monitor i) and spans.
  std::vector<std::unique_ptr<TimingTransport>> timing;
  std::vector<spca::Span> spans;
  std::uint64_t reconnects = 0;
  std::uint64_t sweeps = 0;
};

TcpRound run_tcp_round(const spca::NetScenario& s, bool traced) {
  const std::size_t intervals = s.trace.num_intervals();
  const std::size_t window = s.detector.window;
  const std::size_t k = s.config.monitors;
  spca::Counter& sweeps =
      spca::MetricsRegistry::global().counter("spca.pca.backend_sweeps");
  const std::uint64_t sweeps_before = sweeps.value();
  spca::SpanLog::global().clear();
  spca::EventTrace::global().clear();

  TcpRound tr;
  tr.timing.resize(k + 1);
  const auto wrap = [&tr, traced, intervals](std::size_t slot) {
    std::function<std::unique_ptr<spca::Transport>(spca::Transport&)> hook;
    if (traced) {
      hook = [&tr, slot, intervals](spca::Transport& raw) {
        tr.timing[slot] = std::make_unique<TimingTransport>(raw, intervals);
        return std::make_unique<Forward>(*tr.timing[slot]);
      };
    }
    return hook;
  };
  // released[i][t]: when monitor i received kAdvance(t).
  std::vector<std::vector<Clock::time_point>> released(
      k, std::vector<Clock::time_point>(intervals));

  // All nodes share one CPU, so a hand-off between them is a switch on a
  // running CPU rather than the wake-up of an idle one (README, "How a run
  // works").
  const OneCpu one_cpu;
  const Clock::time_point start = Clock::now();
  spca::NocDaemonConfig noc_config;
  noc_config.scenario = s.config;
  noc_config.wrap_transport = wrap(0);
  spca::NocDaemon noc(noc_config);
  noc.start();

  spca::ScenarioRun run;
  std::vector<spca::MonitorDaemonResult> results(k);
  std::vector<std::exception_ptr> errors(k + 1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      run = noc.run();
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  for (std::size_t i = 0; i < k; ++i) {
    spca::MonitorDaemonConfig config;
    config.scenario = s.config;
    config.monitor_id = static_cast<spca::NodeId>(i + 1);
    config.noc_port = noc.bound_port();
    config.wrap_transport = wrap(i + 1);
    config.after_advance = [&released, i](std::int64_t t,
                                          spca::TcpTransport&) {
      released[i][static_cast<std::size_t>(t)] = Clock::now();
    };
    threads.emplace_back([&results, &errors, config, i] {
      try {
        results[i] = spca::MonitorDaemon(config).run();
      } catch (...) {
        errors[i + 1] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  const auto first_release = [&](std::size_t t) {
    Clock::time_point first = released[0][t];
    for (std::size_t i = 1; i < k; ++i) first = std::min(first, released[i][t]);
    return first;
  };
  IntervalRound& round = tr.round;
  round.setup_s = seconds_between(start, first_release(window - 2));
  for (std::size_t t = window - 1; t < intervals; ++t) {
    round.interval_s.push_back(
        seconds_between(first_release(t - 1), first_release(t)));
  }
  // The verdicts: distances and alarms from the daemon, the rest from the
  // NOC's detection events.
  std::map<std::int64_t, spca::DetectionEvent> events;
  for (const spca::DetectionEvent& e : spca::EventTrace::global().snapshot()) {
    if (e.detector == "noc") events[e.interval] = e;
  }
  std::size_t next_alarm = 0;
  for (std::size_t i = 0; i < run.distances.size(); ++i) {
    const auto t = static_cast<std::int64_t>(window - 1 + i);
    spca::Detection det;
    det.ready = true;
    det.distance = run.distances[i];
    det.alarm = next_alarm < run.alarm_intervals.size() &&
                run.alarm_intervals[next_alarm] == t;
    if (det.alarm) ++next_alarm;
    const auto it = events.find(t);
    if (it != events.end()) {
      det.threshold = std::sqrt(it->second.threshold_squared);
      det.normal_rank = it->second.rank;
      det.model_refreshed = it->second.refreshed;
    }
    round.trajectory.push_back(det);
  }
  round.wire = run.stats;
  tr.reconnects = noc.reconnects();
  for (const spca::MonitorDaemonResult& r : results) {
    round.wire += r.stats;
    tr.reconnects += r.reconnects;
  }
  tr.sweeps = sweeps.value() - sweeps_before;
  if (traced) tr.spans = spca::SpanLog::global().snapshot();
  return tr;
}

/// Per-layer metrics of the traced TCP rounds.
void add_layer_metrics(const std::vector<TcpRound>& traced,
                       const std::vector<TcpRound>& untraced,
                       std::size_t window, Outcome& out) {
  std::vector<double> absorb, close, emit, wait, feed, decision, refit;
  double send = 0.0, recv = 0.0, messages = 0.0, covered = 0.0, wall = 0.0;
  double decisions = 0.0, pulls = 0.0, confirmed = 0.0, sweeps = 0.0;
  double reconnects = 0.0, traced_rate = 0.0, untraced_rate = 0.0;
  for (std::size_t r = 0; r < traced.size(); ++r) {
    const TcpRound& tr = traced[r];
    const std::size_t intervals = window - 1 + tr.round.interval_s.size();
    // Span durations per interval: monitor close, NOC feed/decision/refit.
    std::vector<double> close_t(intervals), absorb_t(intervals);
    std::vector<double> feed_t(intervals), decision_t(intervals);
    std::vector<double> refit_t(intervals);
    for (const spca::Span& span : tr.spans) {
      if (span.interval < 0 ||
          static_cast<std::size_t>(span.interval) >= intervals) {
        continue;
      }
      const auto t = static_cast<std::size_t>(span.interval);
      const double d = span.duration_seconds;
      if (span.stage == spca::kStageIngestAbsorb) {
        absorb_t[t] += d;
        close_t[t] += d;
      } else if (span.stage == spca::kStageSketchClose) {
        close_t[t] += d;
      } else if (span.stage == spca::kStageNocFeed) {
        feed_t[t] += d;
      } else if (span.stage == spca::kStageDecision) {
        decision_t[t] += d;
      } else if (span.stage == spca::kStageRefit) {
        refit_t[t] += d;
      }
    }
    for (std::size_t i = 0; i < tr.round.interval_s.size(); ++i) {
      const std::size_t t = window - 1 + i;
      const spca::Detection& det = tr.round.trajectory[i];
      const IntervalWire& nw = tr.timing[0]->per_interval()[t];
      double emit_t = 0.0;
      for (const auto& timing : tr.timing) {
        const IntervalWire& w = timing->per_interval()[t];
        send += 1e-9 * w.send_ns;
        recv += 1e-9 * w.recv_ns;
        messages += static_cast<double>(w.messages);
        emit_t += 1e-9 * w.emit_ns;
      }
      double pull_wall = 0.0;
      if (det.model_refreshed) {
        pull_wall =
            seconds_between(nw.pull_begin, nw.pull_end) + refit_t[t];
        emit.push_back(emit_t);
        refit.push_back(refit_t[t]);
        pulls += 1.0;
        if (det.alarm) confirmed += 1.0;
      }
      const double decision_self = decision_t[t] - pull_wall;
      absorb.push_back(absorb_t[t]);
      close.push_back(close_t[t]);
      wait.push_back(1e-9 * nw.wait_ns);
      feed.push_back(feed_t[t]);
      decision.push_back(decision_self);
      covered += 1e-9 * (nw.wait_ns + nw.recv_ns + nw.send_ns) + feed_t[t] +
                 decision_self + refit_t[t];
      wall += tr.round.interval_s[i];
      decisions += 1.0;
    }
    sweeps += static_cast<double>(tr.sweeps);
    reconnects += static_cast<double>(tr.reconnects);
    traced_rate += static_cast<double>(tr.round.interval_s.size()) /
                   sum(tr.round.interval_s);
    untraced_rate += static_cast<double>(untraced[r].round.interval_s.size()) /
                     sum(untraced[r].round.interval_s);
  }
  Layers m;
  m.absorb_ms = 1e3 * sum(absorb) / static_cast<double>(traced.size());
  m.close_us_p50 = 1e6 * median(close);
  m.emit_ms_p50 = 1e3 * median(emit);
  m.send_us = 1e6 * send / decisions;
  m.recv_us = 1e6 * recv / decisions;
  m.messages_per_interval = messages / decisions;
  m.reconnects = reconnects;
  m.wait_ms_p50 = 1e3 * median(wait);
  m.feed_us_p50 = 1e6 * median(feed);
  m.decision_us_p50 = 1e6 * median(decision);
  m.pull_rate = pulls / decisions;
  m.pull_confirm_ratio = confirmed / pulls;
  m.refit_ms_p50 = 1e3 * median(refit);
  m.sweeps_per_refit = sweeps / pulls;
  m.stage_coverage = covered / wall;
  m.overhead = 1.0 - traced_rate / untraced_rate;
  add_metrics(m, out);
}

}  // namespace

Outcome run_abilene_tcp(const Options& options) {
  // rounds[i] and traced[i] run the world of round i.
  std::vector<TcpRound> rounds;
  std::vector<TcpRound> traced;
  std::size_t num_flows = 0;
  const Clock::time_point start = Clock::now();
  do {  // pairs alternate their order, as in the simulations
    const spca::NetScenario s = make_world(kAbilene, options, rounds.size());
    num_flows = s.trace.num_flows();
    const bool traced_first = options.trace && rounds.size() % 2 == 1;
    if (traced_first) traced.push_back(run_tcp_round(s, /*traced=*/true));
    rounds.push_back(run_tcp_round(s, /*traced=*/false));
    if (options.trace && !traced_first) {
      traced.push_back(run_tcp_round(s, /*traced=*/true));
    }
  } while (
      !run_complete(kAbilene, rounds.size(), seconds_since(start), options));
  const double rss = peak_rss_mb();

  // Check, untimed: every round is bit-identical to the same world (rebuilt
  // from the seed) over SimNetwork — distances, alarms, pull decisions and
  // summed wire stats.
  const auto failed_decisions = [](const IntervalRound& got,
                                   const IntervalRound& want) {
    return got.wire == want.wire
               ? count_inexact(got.trajectory, want.trajectory)
               : got.trajectory.size();
  };
  std::vector<std::uint64_t> failed(rounds.size());
  parallel_each(rounds.size(), [&](std::size_t r) {
    const IntervalRound want =
        run_sim_round(make_world(kAbilene, options, r));
    failed[r] = failed_decisions(rounds[r].round, want);
    if (r < traced.size()) failed[r] += failed_decisions(traced[r].round, want);
    // The daemons' monitors hold the state of the reference deployment (the
    // check proves the trajectories identical); read it there.
    rounds[r].round.monitor_bytes = want.monitor_bytes;
  });
  Outcome out;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    out.attempted += rounds[r].round.trajectory.size();
    if (r < traced.size()) out.attempted += traced[r].round.trajectory.size();
    out.failed += failed[r];
  }
  if (options.trace) {
    add_layer_metrics(traced, rounds, kAbilene.window, out);
    return out;
  }
  std::vector<IntervalRound> timed;
  for (TcpRound& r : rounds) timed.push_back(std::move(r.round));
  add_interval_metrics(timed, num_flows, rss, out);
  return out;
}

}  // namespace perfbench
