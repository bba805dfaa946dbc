#include "fault/chaos.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/aggregate.hpp"
#include "dist/sim_network.hpp"
#include "hier/regional_daemon.hpp"
#include "net/monitor_daemon.hpp"
#include "net/noc_daemon.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace spca {

namespace {

std::optional<std::int64_t> kill_of(const FaultPlanConfig& faults,
                                    NodeId node) {
  std::optional<std::int64_t> found;
  for (const FaultEvent& e : faults.kills) {
    if (e.node != node) continue;
    if (found) {
      throw InputError("chaos: multiple kills scheduled for node " +
                       std::to_string(node));
    }
    found = e.interval;
  }
  return found;
}

bool reset_at(const FaultPlanConfig& faults, NodeId node, std::int64_t t) {
  for (const FaultEvent& e : faults.resets) {
    if (e.node == node && e.interval == t) return true;
  }
  return false;
}

void validate(const ChaosConfig& config) {
  const auto monitors = static_cast<NodeId>(config.scenario.monitors);
  const auto intervals = static_cast<std::int64_t>(config.scenario.intervals);
  const bool hier = config.regions > 0;
  if (hier && (!config.tcp || config.regions > config.scenario.monitors)) {
    throw InputError("chaos: hierarchical mode needs tcp daemons and "
                     "1 <= regions <= monitors");
  }
  const auto check_node = [&](const FaultEvent& e, const char* kind) {
    if (e.node < 1 || e.node > monitors) {
      throw InputError(std::string("chaos: ") + kind + " targets monitor " +
                       std::to_string(e.node) + ", deployment has " +
                       std::to_string(monitors));
    }
    if (e.interval >= intervals) {
      throw InputError(std::string("chaos: ") + kind + " at interval " +
                       std::to_string(e.interval) + ", scenario ends at " +
                       std::to_string(intervals));
    }
  };
  for (const FaultEvent& e : config.faults.kills) {
    if (e.node == kNocId) {
      // A NOC kill restarts the NOC daemon from its shutdown snapshot on
      // the same port; only clean kills are supported (a crash-killed NOC
      // cannot replay reports it never received from the monitors). In
      // hierarchical mode a root restart is not supported at all: the
      // regions do not re-send already-forwarded aggregates, so a reborn
      // root would wait forever for its next interval.
      if (hier) {
        throw InputError("chaos: root NOC kills are not supported in "
                         "hierarchical mode (kill the regiond tier instead)");
      }
      if (config.crash_kills) {
        throw InputError("chaos: NOC kills must be clean "
                         "(crash kills only apply to monitors)");
      }
    } else if (is_region_node(e.node)) {
      if (!hier || region_index(e.node) >= config.regions) {
        throw InputError("chaos: kill targets region " +
                         std::to_string(region_index(e.node)) +
                         ", deployment has " +
                         std::to_string(config.regions) + " regions");
      }
    } else {
      check_node(e, "kill");
    }
    if (e.interval < 1 || e.interval >= intervals) {
      throw InputError("chaos: kill at interval " +
                       std::to_string(e.interval) + ", must be in [1, " +
                       std::to_string(intervals) + ")");
    }
  }
  for (const FaultEvent& e : config.faults.resets) check_node(e, "reset");
  if (!config.tcp &&
      (!config.faults.kills.empty() || !config.faults.resets.empty())) {
    throw InputError("chaos: kill/reset events need the tcp mode "
                     "(sim mode has no daemons to restart)");
  }
  if (config.tcp && !config.faults.kills.empty() &&
      config.checkpoint_dir.empty()) {
    throw InputError("chaos: kills need --checkpoint-dir, the restarted "
                     "monitor must have a snapshot to recover from");
  }
}

}  // namespace

ChaosResult run_chaos(const ChaosConfig& config) {
  validate(config);
  const NetScenario scenario = build_scenario(config.scenario);

  ChaosResult result;
  result.reference = run_scenario_reference(scenario);

  FaultStatsAccumulator acc;
  if (!config.tcp) {
    // SimNetwork mode: one shared decorator carries every node's traffic.
    SimNetwork sim;
    {
      FaultyTransport faulty(sim, config.faults, &acc);
      result.run = run_scenario_reference(scenario, &faulty);
    }
  } else {
    Counter& kills_metric =
        MetricsRegistry::global().counter("spca.fault.injected_kills");
    Counter& resets_metric =
        MetricsRegistry::global().counter("spca.fault.injected_resets");

    const bool hier = config.regions > 0;
    const std::optional<std::int64_t> noc_kill =
        kill_of(config.faults, kNocId);

    // What every role shares. Every tier is fault-wrapped, including the
    // region -> root hop: the dedup key's payload-width element tells the
    // volume-, score-, and sketch-shaped kAggregates of one interval apart,
    // so duplicates on that hop are removed without swallowing a legitimate
    // second phase.
    DaemonConfig base;
    base.scenario = config.scenario;
    base.io_timeout = config.io_timeout;
    base.wrap_transport = [&](Transport& inner) {
      return std::make_unique<FaultyTransport>(inner, config.faults, &acc);
    };

    NocDaemonConfig nc{base};
    nc.regions = config.regions;
    nc.interval_deadline = config.interval_deadline;
    if (noc_kill) {
      // First incarnation: checkpoints and stops after intervals < kill; its
      // shutdown snapshot seeds the second incarnation on the same port.
      nc.checkpoint_dir = config.checkpoint_dir;
      nc.checkpoint_every = config.checkpoint_every;
      nc.last_interval = *noc_kill;
    }
    auto nocd = std::make_unique<NocDaemon>(nc);
    nocd->start();
    const std::uint16_t port = nocd->bound_port();

    // The monitors must be able to stop whichever NOC incarnation is live
    // when they hit an error; a NOC kill swaps the daemon object mid-run.
    std::mutex noc_mutex;
    NocDaemon* active_noc = nocd.get();
    const auto stop_noc = [&] {
      const std::lock_guard<std::mutex> lock(noc_mutex);
      if (active_noc != nullptr) active_noc->request_stop();
    };
    const auto swap_active_noc = [&](NocDaemon* next) {
      const std::lock_guard<std::mutex> lock(noc_mutex);
      active_noc = next;
    };

    std::atomic<std::uint64_t> kills{0};
    std::atomic<std::uint64_t> resets{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<bool> all_restored{true};
    // Bookkeeping of one performed kill.
    const auto killed = [&](const std::string& node, std::int64_t t) {
      kills.fetch_add(1, std::memory_order_relaxed);
      kills_metric.inc();
      log_info("chaos: killed ", node, " at interval ", t);
      FlightRecorder::global().note(
          "kill", t, node + (config.crash_kills ? " (crash)" : " (clean)"));
    };
    const std::size_t num_monitors = config.scenario.monitors;

    // The hierarchical tier, started before the monitors so the shard
    // ports are known. A killed region's thread runs two incarnations on
    // one port; the second resumes from the SPCR snapshot.
    std::vector<std::unique_ptr<RegionalDaemon>> tier;
    std::vector<std::uint16_t> region_ports(config.regions, port);
    // One thread per monitor and per region; errors[i] is monitor i + 1's,
    // errors[num_monitors + r] region r's.
    std::vector<std::exception_ptr> errors(num_monitors + config.regions);
    std::vector<std::thread> threads;
    const auto region_config = [&](std::size_t r) {
      RegionalDaemonConfig rc{base};
      rc.regions = config.regions;
      rc.region = r;
      rc.root_port = port;
      rc.retry = config.retry;
      rc.interval_deadline = config.interval_deadline;
      return rc;
    };
    for (std::size_t r = 0; r < config.regions; ++r) {
      RegionalDaemonConfig rc = region_config(r);
      const std::optional<std::int64_t> kill =
          kill_of(config.faults, region_node_id(r));
      if (kill) {
        rc.checkpoint_dir = config.checkpoint_dir;
        rc.checkpoint_every = config.checkpoint_every;
        rc.last_interval = *kill;
        rc.final_checkpoint = !config.crash_kills;
      }
      tier.push_back(std::make_unique<RegionalDaemon>(rc));
      tier.back()->start();
      region_ports[r] = tier.back()->bound_port();
    }
    for (std::size_t r = 0; r < config.regions; ++r) {
      const std::optional<std::int64_t> kill =
          kill_of(config.faults, region_node_id(r));
      threads.emplace_back([&, r, kill] {
        try {
          (void)tier[r]->run();
          if (kill) {
            // Tear the first incarnation down (freeing its listen port),
            // then restart on the same port. The shard's monitors redial
            // with backoff and re-send their current interval.
            tier[r].reset();
            killed("region " + std::to_string(r), *kill);
            RegionalDaemonConfig rc = region_config(r);
            rc.listen_port = region_ports[r];
            rc.checkpoint_dir = config.checkpoint_dir;
            rc.checkpoint_every = config.checkpoint_every;
            RegionalDaemon second(rc);
            second.start();
            const RegionalDaemonResult res = second.run();
            if (!res.restored_from_checkpoint) {
              all_restored.store(false, std::memory_order_relaxed);
            }
          }
        } catch (...) {
          errors[num_monitors + r] = std::current_exception();
          stop_noc();
        }
      });
    }

    for (std::size_t i = 0; i < num_monitors; ++i) {
      const NodeId id = static_cast<NodeId>(i + 1);
      threads.emplace_back([&, id, i] {
        try {
          // In hierarchical mode the monitor dials its regional NOC; flat
          // deployments dial the root directly.
          const NodeId upstream =
              hier ? region_node_id(region_of_monitor(
                         num_monitors, config.regions, id))
                   : kNocId;
          MonitorDaemonConfig mc{base};
          mc.monitor_id = id;
          mc.noc_port =
              hier ? region_ports[region_index(upstream)] : port;
          mc.upstream_id = upstream;
          mc.retry = config.retry;
          mc.checkpoint_dir = config.checkpoint_dir;
          mc.checkpoint_every = config.checkpoint_every;
          mc.after_advance = [&, id, upstream](std::int64_t t,
                                               TcpTransport& tcp) {
            if (!reset_at(config.faults, id, t)) return;
            // Protocol-quiet point: advance(t) was consumed, nothing is in
            // flight towards this monitor — the flap loses no frames.
            tcp.reset_connection(upstream);
            tcp.ensure_connected(upstream);
            resets.fetch_add(1, std::memory_order_relaxed);
            resets_metric.inc();
            FlightRecorder::global().note(
                "reset", t, "monitor " + std::to_string(id));
          };
          const std::optional<std::int64_t> kill =
              kill_of(config.faults, id);
          if (kill) {
            // First incarnation: dies after reporting intervals < kill. A
            // crash kill leaves only the periodic snapshots behind.
            mc.last_interval = *kill;
            mc.final_checkpoint = !config.crash_kills;
            reconnects.fetch_add(MonitorDaemon(mc).run().reconnects,
                                 std::memory_order_relaxed);
            killed("monitor " + std::to_string(id), *kill);
            // The second incarnation recovers from the checkpoint and
            // rejoins.
            mc.last_interval = -1;
            mc.final_checkpoint = true;
            mc.first_interval = config.crash_kills ? *kill : kAutoInterval;
          }
          const MonitorDaemonResult r = MonitorDaemon(mc).run();
          reconnects.fetch_add(r.reconnects, std::memory_order_relaxed);
          if (kill && !r.restored_from_checkpoint) {
            all_restored.store(false, std::memory_order_relaxed);
          }
        } catch (...) {
          errors[i] = std::current_exception();
          stop_noc();
        }
      });
    }

    std::exception_ptr noc_error;
    std::unique_ptr<NocDaemon> second;
    try {
      result.run = nocd->run();
      if (noc_kill) {
        // Clean NOC kill: tear the daemon down (freeing the listen port),
        // then restart it from the shutdown snapshot. The monitors block in
        // their wait-for-advance loop meanwhile and re-send the pending
        // report once the link comes back.
        swap_active_noc(nullptr);
        nocd.reset();
        killed("noc", *noc_kill);  // NOC kills are always clean
        NocDaemonConfig rc = nc;
        rc.listen_port = port;
        rc.last_interval = -1;
        second = std::make_unique<NocDaemon>(rc);
        swap_active_noc(second.get());
        second->start();
        const ScenarioRun rest = second->run();
        swap_active_noc(nullptr);
        if (!second->restored_from_checkpoint()) {
          all_restored.store(false, std::memory_order_relaxed);
        }
        // Stitch the incarnations into one trajectory: the first covers
        // the post-warm-up intervals < kill, the second the remainder.
        result.run.append(rest);
      }
    } catch (...) {
      noc_error = std::current_exception();
      stop_noc();
    }
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    if (noc_error) std::rethrow_exception(noc_error);

    result.kills = kills.load(std::memory_order_relaxed);
    result.resets = resets.load(std::memory_order_relaxed);
    result.monitor_reconnects = reconnects.load(std::memory_order_relaxed);
    result.restored_from_checkpoint =
        all_restored.load(std::memory_order_relaxed);
  }

  result.faults = acc.total();
  result.match = trajectories_match(result.run, result.reference);
  log_info("chaos: ", result.match ? "MATCH" : "MISMATCH", " (",
           result.faults.drops, " drops, ", result.faults.corruptions,
           " corruptions, ", result.faults.duplicates, " dups, ",
           result.faults.reorders, " reorders, ", result.kills, " kills, ",
           result.resets, " resets)");
  return result;
}

}  // namespace spca
