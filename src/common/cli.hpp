// Tiny declarative command-line flag parser for examples and benches.
//
// Supported syntax: --name=value and --name value; `--help` prints usage.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spca {

/// Collects flag definitions, parses argv, and exposes typed lookups.
class CliFlags final {
 public:
  explicit CliFlags(std::string program_description);

  /// Declares a flag with a default value and help text. Declaration order is
  /// preserved in `usage()`.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parses argv. Throws InputError on unknown flags or missing values.
  /// Returns false if `--help` was requested (usage already printed).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  [[nodiscard]] double real(const std::string& name) const;
  [[nodiscard]] bool boolean(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string value;
    std::string default_value;
    std::string help;
  };

  [[nodiscard]] const Flag& find(const std::string& name) const;
  Flag& find(const std::string& name);

  std::string description_;
  std::vector<Flag> flags_;
};

/// Defines the standard observability flags every bench, example, and
/// daemon shares: --metrics-out (JSON metrics report path), --trace-out
/// (JSON-lines detection-event trace path), --span-out (JSON-lines
/// per-stage interval span path), and --flight-dir (flight-recorder dump
/// directory), all defaulting to "" (off). obs/report.hpp's
/// configure_observability(flags) / export_observability(flags) consume
/// them.
void define_observability_flags(CliFlags& flags);

/// Defines the standard `--threads` flag (execution lanes for the parallel
/// layer; 0 = hardware concurrency, 1 = fully serial). par/thread_pool.hpp's
/// configure_threads_from_flag(flags) consumes it.
void define_threads_flag(CliFlags& flags);

/// Defines the transport tuning flags every socket daemon shares:
/// --connect-attempts, --connect-timeout-ms, --backoff-initial-ms,
/// --backoff-max-ms (outbound dial retry policy) and --io-timeout-ms
/// (read/write deadline on established connections). net/daemon_shell.hpp's
/// retry_policy_from_flags / io_timeout_from_flags consume them; chaos tests
/// use them to avoid hard-coded multi-second waits.
void define_transport_flags(CliFlags& flags);

}  // namespace spca
