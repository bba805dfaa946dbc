// Shared vocabulary of the interval benchmark: run options, the result
// record every workload returns, and the small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase; whole rounds are run until it is used up.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the traced run's per-layer metrics.
  bool trace = false;
  /// Scratch directory for generated input files (record files).
  std::string data_dir = ".";
  /// NOC model backend of the interval workloads (README reference
  /// figures only; the benchmark runs the default, warm).
  std::string backend = "warm";
  /// Parallel pool lanes (README reference figures only; the benchmark
  /// fixes 1).
  std::size_t lanes = 1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: operations attempted and failed, and the metrics of
/// the requested mode. An operation fails when its output fails a check, so
/// the run is correct exactly when none failed (see to_json).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

/// The end-to-end metrics of one run (README, "End-to-end metrics").
struct EndToEnd {
  double interval_ms_p50 = 0.0;
  double interval_ms_p99 = 0.0;
  double pull_ms_p50 = 0.0;
  double intervals_per_s = 0.0;
  double records_per_s = 0.0;
  double wire_bytes_per_interval = 0.0;
  double monitor_state_kb = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
};

/// The per-layer metrics of one traced run (README, "Per-layer metrics"); a
/// layer the workload does not run stays 0.
struct Layers {
  double read_ms = 0.0;
  double absorb_ms = 0.0;
  double producer_blocks = 0.0;
  double close_us_p50 = 0.0;
  double emit_ms_p50 = 0.0;
  double send_us = 0.0;
  double recv_us = 0.0;
  double messages_per_interval = 0.0;
  double reconnects = 0.0;
  double wait_ms_p50 = 0.0;
  double feed_us_p50 = 0.0;
  double decision_us_p50 = 0.0;
  double pull_rate = 0.0;
  double pull_confirm_ratio = 0.0;
  double refit_ms_p50 = 0.0;
  double sweeps_per_refit = 0.0;
  double stage_coverage = 0.0;
  double overhead = 0.0;
};

/// Appends the metrics under their BENCHMARK.json names and units.
void add_metrics(const EndToEnd& m, Outcome& out);
void add_metrics(const Layers& m, Outcome& out);

/// Linear-interpolated quantile q in [0, 1] of `values` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& values);

/// Runs body(0) .. body(n - 1) on up to four threads and rethrows the first
/// exception. For the untimed checks only: they run after the timed phase,
/// so spreading them over the cores shortens a run without touching what it
/// measures.
void parallel_each(std::size_t n, const std::function<void(std::size_t)>& body);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Renders the result line: one JSON object with exactly the keys correct
/// (failed == 0), attempted, failed, and metrics (every value with all its
/// digits).
[[nodiscard]] std::string to_json(const Outcome& outcome);

Outcome run_abilene_sim(const Options& options);
Outcome run_wide_sim(const Options& options);
Outcome run_abilene_tcp(const Options& options);
Outcome run_replay_ingest(const Options& options);

}  // namespace perfbench
