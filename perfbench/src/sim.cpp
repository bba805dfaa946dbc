// abilene-sim and wide-sim: DistributedDetector::observe over SimNetwork in
// a closed loop, one interval after the other on one thread.
//
// The traced run replays observe()'s sequence of public calls itself —
// ingest_volume/end_interval per monitor, Noc::collect_volumes, and
// Noc::detect_with_pull with a pull that runs request_sketches, each
// monitor's handle_mail, the drain, ingest_sketch_response and refit one by
// one — timing each call, with a TimingTransport around the SimNetwork. Its
// trajectory must equal the untraced one bit for bit.
#include <cstdio>
#include <memory>
#include <string>

#include "dist/local_monitor.hpp"
#include "dist/noc.hpp"
#include "dist/sim_network.hpp"
#include "interval.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"
#include "timing_transport.hpp"

namespace perfbench {

namespace {

/// Per-stage self times of the traced round, in seconds, one entry per
/// decision interval (emit and refit: one entry per pull).
struct TracedRound {
  IntervalRound round;
  std::vector<double> read_s;
  std::vector<double> absorb_s;
  std::vector<double> close_s;
  std::vector<double> feed_s;
  std::vector<double> decision_s;
  std::vector<double> request_s;
  std::vector<double> emit_s;
  std::vector<double> ingest_s;
  std::vector<double> refit_s;
  double send_s = 0.0;
  double recv_s = 0.0;
  double covered_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t sweeps = 0;
};

/// The deployment DistributedDetector builds, assembled from its parts.
struct Deployment {
  std::vector<std::unique_ptr<spca::LocalMonitor>> monitors;
  std::vector<spca::NodeId> ids;
  spca::Noc noc;

  explicit Deployment(const spca::NetScenario& s)
      : noc(s.trace.num_flows(),
            spca::noc_config_from(s.detector, /*host_sketches=*/false)) {
    const spca::SketchDetectorConfig& c = s.detector;
    const spca::ProjectionSource source =
        c.projection == spca::ProjectionKind::kVerySparse
            ? spca::ProjectionSource::very_sparse(c.seed, c.window)
            : spca::ProjectionSource(c.projection, c.seed, c.sparsity);
    const std::size_t k = s.config.monitors;
    for (std::size_t i = 0; i < k; ++i) {
      const auto id = static_cast<spca::NodeId>(i + 1);
      monitors.push_back(std::make_unique<spca::LocalMonitor>(
          id, spca::scenario_flows_of(s.trace.num_flows(), k, id), c.window,
          c.epsilon, c.sketch_rows, source));
      ids.push_back(id);
    }
  }
};

TracedRound run_traced_round(const spca::NetScenario& s) {
  const std::size_t window = s.detector.window;
  const std::size_t intervals = s.trace.num_intervals();
  spca::Counter& sweeps =
      spca::MetricsRegistry::global().counter("spca.pca.backend_sweeps");
  TracedRound tr;
  IntervalRound& round = tr.round;
  const Clock::time_point start = Clock::now();
  spca::SimNetwork network;
  TimingTransport bus(network);
  Deployment d(s);
  std::vector<std::string> span_nodes;
  for (const spca::NodeId id : d.ids) {
    span_nodes.push_back("monitor" + std::to_string(id));
  }
  const std::uint64_t sweeps_before = sweeps.value();
  double send_before = 0.0;
  double recv_before = 0.0;
  std::uint64_t messages_before = 0;

  for (std::size_t t = 0; t < intervals; ++t) {
    const auto ti = static_cast<std::int64_t>(t);
    const bool decide = t + 1 >= window;
    if (t + 1 == window) {
      round.setup_s = seconds_since(start);
      send_before = bus.send_ns();
      recv_before = bus.recv_ns();
      messages_before = bus.messages();
    }
    Clock::time_point mark = Clock::now();
    const spca::Vector x = s.trace.row(t);
    const Clock::time_point begin = Clock::now();
    const double read = seconds_between(mark, begin);
    const double wire_at_begin = bus.wire_ns();

    // Each monitor observes its flows and closes the interval.
    double absorb = 0.0;
    double close = 0.0;
    for (std::size_t i = 0; i < d.monitors.size(); ++i) {
      spca::LocalMonitor& monitor = *d.monitors[i];
      mark = Clock::now();
      {
        const spca::ScopedSpan span(span_nodes[i],
                                    spca::kStageIngestAbsorb, ti);
        for (const spca::FlowId flow : monitor.flows()) {
          monitor.ingest_volume(flow, x[flow]);
        }
      }
      const Clock::time_point absorbed = Clock::now();
      const double wire = bus.wire_ns();
      monitor.end_interval(ti, bus);
      absorb += seconds_between(mark, absorbed);
      close += seconds_since(mark) - 1e-9 * (bus.wire_ns() - wire);
    }

    // The NOC assembles the network-wide vector.
    mark = Clock::now();
    double wire = bus.wire_ns();
    const spca::Vector assembled = d.noc.collect_volumes(ti, bus);
    const double feed = seconds_since(mark) - 1e-9 * (bus.wire_ns() - wire);
    if (!decide) continue;

    // The lazy protocol, with the pull's calls timed one by one.
    double pull_wall = 0.0;
    double pull_wire = 0.0;
    const auto pull = [&] {
      const Clock::time_point pull_begin = Clock::now();
      const double pull_wire_begin = bus.wire_ns();
      Clock::time_point m = Clock::now();
      double w = bus.wire_ns();
      d.noc.request_sketches(ti, d.ids, bus);
      tr.request_s.push_back(seconds_since(m) - 1e-9 * (bus.wire_ns() - w));
      double emit = 0.0;
      for (const auto& monitor : d.monitors) {
        m = Clock::now();
        w = bus.wire_ns();
        monitor->handle_mail(bus);
        emit += seconds_since(m) - 1e-9 * (bus.wire_ns() - w);
      }
      tr.emit_s.push_back(emit);
      const std::vector<spca::Message> responses = bus.drain(spca::kNocId);
      m = Clock::now();
      for (const spca::Message& msg : responses) {
        d.noc.ingest_sketch_response(msg);
      }
      tr.ingest_s.push_back(seconds_since(m));
      m = Clock::now();
      d.noc.refit();
      tr.refit_s.push_back(seconds_since(m));
      pull_wall += seconds_since(pull_begin);
      pull_wire += 1e-9 * (bus.wire_ns() - pull_wire_begin);
    };
    mark = Clock::now();
    wire = bus.wire_ns();
    const spca::Detection det =
        d.noc.detect_with_pull(ti, assembled, pull, bus);
    const double decision = seconds_since(mark) - pull_wall -
                            (1e-9 * (bus.wire_ns() - wire) - pull_wire);
    const double interval = seconds_since(begin);

    round.interval_s.push_back(interval);
    round.trajectory.push_back(det);
    tr.read_s.push_back(read);
    tr.absorb_s.push_back(absorb);
    tr.close_s.push_back(close);
    tr.feed_s.push_back(feed);
    tr.decision_s.push_back(decision);
    const double wire_total = 1e-9 * (bus.wire_ns() - wire_at_begin);
    double pulled = 0.0;
    if (det.model_refreshed) {
      pulled = tr.request_s.back() + tr.emit_s.back() + tr.ingest_s.back() +
               tr.refit_s.back();
    }
    // Coverage counts only the calls timed on their own; the decision is
    // the remainder of detect_with_pull and stays outside it.
    tr.covered_s += close + feed + pulled + wire_total;
  }
  tr.send_s = 1e-9 * (bus.send_ns() - send_before);
  tr.recv_s = 1e-9 * (bus.recv_ns() - recv_before);
  tr.messages = bus.messages() - messages_before;
  tr.sweeps = sweeps.value() - sweeps_before;
  round.wire = bus.stats();
  for (const auto& monitor : d.monitors) {
    round.monitor_bytes += monitor->memory_bytes();
  }
  return tr;
}

double intervals_per_s(const IntervalRound& round) {
  return static_cast<double>(round.interval_s.size()) / sum(round.interval_s);
}

Outcome run_sim(const Options& options, const IntervalSpec& spec,
                bool check_lakhina) {
  Outcome out;
  // rounds[i] and traced[i] run the world of round i.
  std::vector<IntervalRound> rounds;
  std::vector<TracedRound> traced;
  std::size_t num_flows = 0;
  const Clock::time_point start = Clock::now();
  // The traced run alternates which of each untraced/traced pair goes first,
  // so a drift in host speed does not read as tracing overhead.
  do {
    const spca::NetScenario s = make_world(spec, options, rounds.size());
    num_flows = s.trace.num_flows();
    const bool traced_first = options.trace && rounds.size() % 2 == 1;
    if (traced_first) traced.push_back(run_traced_round(s));
    rounds.push_back(run_sim_round(s));
    if (options.trace && !traced_first) traced.push_back(run_traced_round(s));
  } while (!run_complete(spec, rounds.size(), seconds_since(start), options));
  const double rss = peak_rss_mb();

  // Checks, untimed: every round against the single-process SketchDetector
  // on its world (rebuilt from the seed), the exact detector's agreement on
  // the first rounds, and the traced replay bit for bit.
  std::vector<std::uint64_t> mismatches(rounds.size());
  std::vector<Agreement> agreements(check_lakhina ? kLakhinaRounds : 0);
  parallel_each(rounds.size(), [&](std::size_t r) {
    const spca::NetScenario s = make_world(spec, options, r);
    mismatches[r] = count_mismatches(rounds[r].trajectory, sketch_reference(s));
    if (r < agreements.size()) {
      agreements[r] = lakhina_agreement(s, rounds[r].trajectory);
    }
  });
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    out.attempted += rounds[i].trajectory.size();
    out.failed += mismatches[i];
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    out.attempted += traced[i].round.trajectory.size();
    out.failed +=
        count_inexact(traced[i].round.trajectory, rounds[i].trajectory);
  }
  if (check_lakhina) {
    Agreement total;
    for (const Agreement& a : agreements) {
      total.agreed += a.agreed;
      total.decided += a.decided;
    }
    const double agreement = static_cast<double>(total.agreed) /
                             static_cast<double>(total.decided);
    std::fprintf(stderr, "perfbench: agreement with the exact detector %.4f\n",
                 agreement);
    if (agreement < kLakhinaAgreementFloor) out.failed = out.attempted;
  }

  if (!options.trace) {
    add_interval_metrics(rounds, num_flows, rss, out);
    return out;
  }

  // Per-layer metrics of the traced rounds.
  std::vector<double> read, absorb, close, feed, decision, emit, refit;
  double send = 0.0, recv = 0.0, covered = 0.0, wall = 0.0;
  double decisions = 0.0, pulls = 0.0, confirmed = 0.0, sweeps = 0.0;
  double messages = 0.0;
  double traced_rate = 0.0, untraced_rate = 0.0;
  for (std::size_t r = 0; r < traced.size(); ++r) {
    const TracedRound& tr = traced[r];
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(read, tr.read_s);
    append(absorb, tr.absorb_s);
    append(close, tr.close_s);
    append(feed, tr.feed_s);
    append(decision, tr.decision_s);
    append(emit, tr.emit_s);
    append(refit, tr.refit_s);
    send += tr.send_s;
    recv += tr.recv_s;
    covered += tr.covered_s;
    wall += sum(tr.round.interval_s);
    messages += static_cast<double>(tr.messages);
    sweeps += static_cast<double>(tr.sweeps);
    for (const spca::Detection& det : tr.round.trajectory) {
      decisions += 1.0;
      if (det.model_refreshed) {
        pulls += 1.0;
        if (det.alarm) confirmed += 1.0;
      }
    }
    traced_rate += intervals_per_s(tr.round);
    untraced_rate += intervals_per_s(rounds[r]);
  }
  Layers m;
  const double rounds_traced = static_cast<double>(traced.size());
  m.read_ms = 1e3 * sum(read) / rounds_traced;
  m.absorb_ms = 1e3 * sum(absorb) / rounds_traced;
  m.close_us_p50 = 1e6 * median(close);
  m.emit_ms_p50 = 1e3 * median(emit);
  m.send_us = 1e6 * send / decisions;
  m.recv_us = 1e6 * recv / decisions;
  m.messages_per_interval = messages / decisions;
  m.feed_us_p50 = 1e6 * median(feed);
  m.decision_us_p50 = 1e6 * median(decision);
  m.pull_rate = pulls / decisions;
  m.pull_confirm_ratio = confirmed / pulls;
  m.refit_ms_p50 = 1e3 * median(refit);
  m.sweeps_per_refit = sweeps / pulls;
  m.stage_coverage = covered / wall;
  m.overhead = 1.0 - traced_rate / untraced_rate;
  add_metrics(m, out);
  return out;
}

}  // namespace

// Every run holds at least kMinDecisions, so the exact detector's rounds.
static_assert(kLakhinaRounds * kAbilene.decisions <= kMinDecisions);

Outcome run_abilene_sim(const Options& options) {
  return run_sim(options, kAbilene, /*check_lakhina=*/true);
}

Outcome run_wide_sim(const Options& options) {
  return run_sim(options, kWide, /*check_lakhina=*/false);
}

}  // namespace perfbench
