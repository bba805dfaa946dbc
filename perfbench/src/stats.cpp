#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <numeric>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void parallel_each(std::size_t n,
                   const std::function<void(std::size_t)>& body) {
  const std::size_t cores = std::max(1U, std::thread::hardware_concurrency());
  const std::size_t workers = std::min({n, cores, std::size_t{4}});
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work);
  work();
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void add_metrics(const EndToEnd& m, Outcome& out) {
  out.add("interval_ms_p50", "ms", m.interval_ms_p50);
  out.add("interval_ms_p99", "ms", m.interval_ms_p99);
  out.add("pull_ms_p50", "ms", m.pull_ms_p50);
  out.add("intervals_per_s", "1/s", m.intervals_per_s);
  out.add("records_per_s", "1/s", m.records_per_s);
  out.add("wire_bytes_per_interval", "B", m.wire_bytes_per_interval);
  out.add("monitor_state_kb", "KB", m.monitor_state_kb);
  out.add("peak_rss_mb", "MB", m.peak_rss_mb);
  out.add("setup_s", "s", m.setup_s);
}

void add_metrics(const Layers& m, Outcome& out) {
  out.add("ingest.read_ms", "ms", m.read_ms);
  out.add("ingest.absorb_ms", "ms", m.absorb_ms);
  out.add("ingest.producer_blocks", "count", m.producer_blocks);
  out.add("monitor.close_us_p50", "us", m.close_us_p50);
  out.add("monitor.emit_ms_p50", "ms", m.emit_ms_p50);
  out.add("wire.send_us", "us", m.send_us);
  out.add("wire.recv_us", "us", m.recv_us);
  out.add("wire.messages_per_interval", "count", m.messages_per_interval);
  out.add("net.reconnects", "count", m.reconnects);
  out.add("noc.wait_ms_p50", "ms", m.wait_ms_p50);
  out.add("noc.feed_us_p50", "us", m.feed_us_p50);
  out.add("noc.decision_us_p50", "us", m.decision_us_p50);
  out.add("noc.pull_rate", "ratio", m.pull_rate);
  out.add("noc.pull_confirm_ratio", "ratio", m.pull_confirm_ratio);
  out.add("noc.refit_ms_p50", "ms", m.refit_ms_p50);
  out.add("pca.sweeps_per_refit", "count", m.sweeps_per_refit);
  out.add("trace.stage_coverage", "ratio", m.stage_coverage);
  out.add("trace.overhead", "ratio", m.overhead);
}

std::string to_json(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
