#include "net/daemon_shell.hpp"

#include <algorithm>
#include <csignal>
#include <iostream>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "par/thread_pool.hpp"

namespace spca {

namespace {

std::int64_t positive(const CliFlags& flags, const std::string& name) {
  const std::int64_t v = flags.integer(name);
  if (v <= 0) {
    throw InputError("flag --" + name + " must be positive, got " +
                     std::to_string(v));
  }
  return v;
}

// SIGTERM/SIGINT: stop the daemon of the live shell; one that arrives
// before the shell exists stops it as it starts. Only daemon_main installs
// the handler; in-process daemons register with no effect.
std::atomic<bool> g_stop_signalled{false};
std::atomic<std::atomic<bool>*> g_signal_target{nullptr};

void handle_stop_signal(int) {
  g_stop_signalled.store(true);
  if (std::atomic<bool>* stop = g_signal_target.load()) stop->store(true);
}

}  // namespace

RetryPolicy retry_policy_from_flags(const CliFlags& flags) {
  RetryPolicy policy;
  policy.max_attempts =
      static_cast<std::size_t>(positive(flags, "connect-attempts"));
  policy.connect_timeout =
      std::chrono::milliseconds(positive(flags, "connect-timeout-ms"));
  policy.backoff_initial =
      std::chrono::milliseconds(positive(flags, "backoff-initial-ms"));
  policy.backoff_max =
      std::chrono::milliseconds(positive(flags, "backoff-max-ms"));
  if (policy.backoff_max < policy.backoff_initial) {
    throw InputError("--backoff-max-ms must be >= --backoff-initial-ms");
  }
  return policy;
}

std::chrono::milliseconds io_timeout_from_flags(const CliFlags& flags) {
  return std::chrono::milliseconds(positive(flags, "io-timeout-ms"));
}

void read_daemon_flags(const CliFlags& flags, DaemonConfig& config) {
  config.scenario = scenario_from_flags(flags);
  config.checkpoint_dir = flags.str("checkpoint-dir");
  config.checkpoint_every = flags.integer("checkpoint-every");
  config.status_port = static_cast<int>(flags.integer("status-port"));
  config.status_host = flags.str("status-host");
  config.io_timeout = io_timeout_from_flags(flags);
}

DaemonShell::DaemonShell(const DaemonConfig& config, const std::string& node,
                         std::string log_name, std::atomic<bool>& stop)
    : config_(config),
      node_(node),
      log_name_(std::move(log_name)),
      stop_(stop) {
  SPCA_EXPECTS(config_.checkpoint_every >= 0);
  if (!config_.checkpoint_dir.empty()) {
    store_.emplace(config_.checkpoint_dir, node);
  }
  // Last, so that a constructor that throws leaves nothing registered.
  g_signal_target.store(&stop_);
  if (g_stop_signalled.load()) stop_.store(true);
}

DaemonShell::~DaemonShell() {
  std::atomic<bool>* self = &stop_;
  (void)g_signal_target.compare_exchange_strong(self, nullptr);
}

void DaemonShell::serve(std::string role, std::function<std::string()> fields) {
  telemetry_.emplace(config_.status_port, config_.status_host,
                     config_.on_status_port, stop_, std::move(role),
                     std::move(fields), log_name_);
}

std::optional<std::int64_t> DaemonShell::restore(
    const std::function<void(const CheckpointSnapshot&)>& accept) {
  if (!store_) return std::nullopt;
  const std::optional<CheckpointSnapshot> snap = store_->load_latest();
  if (!snap) return std::nullopt;
  try {
    if (snap->seq > config_.scenario.intervals) {
      throw ProtocolError("snapshot interval is past the scenario's end");
    }
    accept(*snap);
  } catch (const Error& e) {
    log_warn(log_name_, ": ignoring snapshot ", snap->path, ": ", e.what());
    return std::nullopt;
  }
  log_info(log_name_, ": restored interval ", snap->seq, " from ",
           snap->path);
  return static_cast<std::int64_t>(snap->seq);
}

Transport& DaemonShell::attach(TcpTransport& transport) {
  transport_ = &transport;
  if (config_.wrap_transport) wrapped_ = config_.wrap_transport(transport);
  return wrapped_ ? *wrapped_ : static_cast<Transport&>(transport);
}

std::int64_t DaemonShell::end() const {
  const auto n = static_cast<std::int64_t>(config_.scenario.intervals);
  return config_.last_interval < 0 ? n : std::min(n, config_.last_interval);
}

void DaemonShell::enter(std::int64_t t) {
  interval_.store(t, std::memory_order_relaxed);
  poll();
}

void DaemonShell::poll() { if (telemetry_) telemetry_->poll(); }

bool DaemonShell::finish(std::int64_t t) {
  FlightRecorder& recorder = FlightRecorder::global();
  if (recorder.enabled()) recorder.capture_metrics(node_ + "_interval", t);
  interval_.store(t + 1, std::memory_order_relaxed);
  return store_ && config_.checkpoint_every > 0 &&
         (t + 1) % config_.checkpoint_every == 0;
}

std::string DaemonShell::write(std::int64_t seq,
                               const std::vector<std::byte>& payload,
                               bool shutdown) {
  const std::string path =
      store_->write(static_cast<std::uint64_t>(seq), payload);
  if (shutdown) {
    log_info(log_name_, ": final checkpoint (interval ", seq, ") at ", path);
  } else {
    FlightRecorder::global().note(node_ + "_checkpoint", seq);
  }
  return path;
}

int daemon_main(int argc, char** argv, CliFlags& flags,
                const std::string& program, const std::function<void()>& run,
                const std::function<int()>& check) {
  flags.define("checkpoint-dir", "",
               "durable snapshot directory (empty = no checkpointing; with "
               "a valid snapshot the daemon resumes mid-scenario)");
  flags.define("checkpoint-every", "8",
               "periodic snapshot cadence in intervals (0 = shutdown "
               "snapshot only)");
  flags.define("status-port", "-1",
               "serve /metrics, /metrics.json, /healthz, /spans on this "
               "port while running (-1 = off, 0 = ephemeral)");
  flags.define("status-host", "127.0.0.1",
               "bind address of the status endpoint");
  define_transport_flags(flags);
  define_scenario_flags(flags);
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    configure_observability(flags);
    (void)std::signal(SIGTERM, handle_stop_signal);
    (void)std::signal(SIGINT, handle_stop_signal);
    run();
    export_observability(flags);
    return check ? check() : 0;
  } catch (const std::exception& e) {
    std::cerr << program << ": " << e.what() << "\n";
    FlightRecorder::global().note("fatal_error", -1, e.what());
    (void)FlightRecorder::global().dump("error");
    return 1;
  }
}

}  // namespace spca
