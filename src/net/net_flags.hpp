// Readers for the shared transport tuning flags (define_transport_flags in
// common/cli), and the flags every daemon shares. They live in net/ because
// common/ must not depend on the socket layer's RetryPolicy type.
#pragma once

#include <chrono>

#include "common/cli.hpp"
#include "net/socket.hpp"

namespace spca {

/// Builds the outbound dial retry policy from --connect-attempts,
/// --connect-timeout-ms, --backoff-initial-ms, --backoff-max-ms.
/// Throws InputError on non-positive values.
[[nodiscard]] RetryPolicy retry_policy_from_flags(const CliFlags& flags);

/// Reads --io-timeout-ms. Throws InputError on non-positive values.
[[nodiscard]] std::chrono::milliseconds io_timeout_from_flags(
    const CliFlags& flags);

/// Declares the flags every daemon shares: --checkpoint-dir,
/// --checkpoint-every, --status-port and --status-host.
void define_daemon_flags(CliFlags& flags);

/// Reads the shared daemon flags into a NocDaemonConfig,
/// MonitorDaemonConfig or RegionalDaemonConfig.
template <typename DaemonConfig>
void read_daemon_flags(const CliFlags& flags, DaemonConfig& config) {
  config.checkpoint_dir = flags.str("checkpoint-dir");
  config.checkpoint_every = flags.integer("checkpoint-every");
  config.status_port = static_cast<int>(flags.integer("status-port"));
  config.status_host = flags.str("status-host");
}

}  // namespace spca
