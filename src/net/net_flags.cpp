#include "net/net_flags.hpp"

#include <string>

#include "common/error.hpp"

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

void define_daemon_flags(CliFlags& flags) {
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
}

}  // namespace spca
