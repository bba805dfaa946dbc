// replay-ingest: a flow-record file generated from the Abilene trace, with
// many records per (interval, flow) cell, streamed through replay_records
// into one monitor that owns every flow (reader thread, SPSC ring,
// absorb_block), parity checking off. Each pass builds a fresh monitor,
// replays the whole file, and then has the monitor answer one sketch pull,
// the monitor side of the NOC's lazy refresh. No NOC and no socket.
//
// The traced run adds two probes per pass on the same file: the reader alone
// (RecordFileReader::next_batch over the whole file) and absorb_block alone
// over the same intervals, in the replay's block size.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>

#include "dist/local_monitor.hpp"
#include "dist/sim_network.hpp"
#include "ingest/record_file.hpp"
#include "ingest/replay.hpp"
#include "interval.hpp"
#include "timing_transport.hpp"

namespace perfbench {

namespace {

/// The record file: two days of 5-minute Abilene intervals, each cell split
/// into this many records.
constexpr std::size_t kIntervals = 576;
constexpr std::uint32_t kRecordsPerCell = 32;
/// Passes per cycle. The interval times and rates are taken per cycle, so a
/// pass held up by a burst of host noise is averaged with three others.
constexpr std::size_t kPassesPerCycle = 4;
constexpr std::size_t kBlock = spca::ReplayConfig{}.interval_block;

std::unique_ptr<spca::LocalMonitor> make_monitor(const spca::NetScenario& s) {
  const spca::SketchDetectorConfig& c = s.detector;
  std::vector<spca::FlowId> flows(s.trace.num_flows());
  for (std::size_t j = 0; j < flows.size(); ++j) {
    flows[j] = static_cast<spca::FlowId>(j);
  }
  return std::make_unique<spca::LocalMonitor>(
      1, std::move(flows), c.window, c.epsilon, c.sketch_rows,
      spca::ProjectionSource(c.projection, c.seed, c.sparsity));
}

/// The pull a NOC would send after the last interval of the file.
spca::Message sketch_request(std::int64_t interval) {
  spca::Message request;
  request.type = spca::MessageType::kSketchRequest;
  request.from = spca::kNocId;
  request.to = 1;
  request.interval = interval;
  return request;
}

std::uint64_t fnv1a(const std::vector<std::byte>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ull;
  }
  return h;
}

struct Pass {
  double setup_s = 0.0;
  double replay_s = 0.0;
  double pull_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t intervals = 0;
  std::uint64_t producer_blocks = 0;
  double wire_bytes = 0.0;
  std::uint64_t state_hash = 0;
  std::vector<std::byte> state;  // first pass only
  spca::Message response;        // first pass only
  std::size_t monitor_bytes = 0;
  // Traced probes.
  double send_s = 0.0;
  double recv_s = 0.0;
  std::uint64_t messages = 0;
};

Pass run_pass(const spca::NetScenario& s, const std::string& path,
              bool keep, bool traced) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<spca::LocalMonitor> monitor = make_monitor(s);
  { const spca::RecordFileReader probe(path); }
  pass.setup_s = seconds_since(start);

  spca::ReplayConfig config;
  config.record_path = path;
  config.check = spca::ReplayCheck::kOff;
  const Clock::time_point begin = Clock::now();
  const spca::ReplayStats stats = spca::replay_records(*monitor, config);
  pass.replay_s = seconds_since(begin);
  pass.records = stats.records;
  pass.intervals = stats.intervals;
  pass.producer_blocks = stats.producer_blocks;

  spca::SimNetwork network;
  TimingTransport bus(network);
  spca::Transport& carrier = traced ? static_cast<spca::Transport&>(bus)
                                    : static_cast<spca::Transport&>(network);
  carrier.send(sketch_request(static_cast<std::int64_t>(kIntervals) - 1));
  const double wire_before = bus.wire_ns();
  const Clock::time_point pull = Clock::now();
  monitor->handle_mail(carrier);
  pass.pull_s = seconds_since(pull) - 1e-9 * (bus.wire_ns() - wire_before);
  std::vector<spca::Message> responses = carrier.drain(spca::kNocId);
  pass.wire_bytes = static_cast<double>(network.stats().bytes);
  pass.send_s = 1e-9 * bus.send_ns();
  pass.recv_s = 1e-9 * bus.recv_ns();
  pass.messages = bus.messages();

  // Kept for the untimed checks.
  std::vector<std::byte> state = monitor->save_state();
  pass.state_hash = fnv1a(state);
  pass.monitor_bytes = monitor->memory_bytes();
  if (keep) {
    pass.state = std::move(state);
    if (responses.size() == 1) pass.response = std::move(responses.front());
  }
  return pass;
}

/// Times absorb_block over the file's intervals on a fresh monitor, in the
/// replay's block size; returns per-interval close times and the state.
double absorb_probe(const spca::NetScenario& s, std::vector<double>& close_s,
                    std::uint64_t& state_hash) {
  std::unique_ptr<spca::LocalMonitor> monitor = make_monitor(s);
  const std::size_t w = s.trace.num_flows();
  const spca::Matrix& volumes = s.trace.volumes();
  std::vector<double> block(kBlock * w);
  double total = 0.0;
  for (std::size_t first = 0; first < kIntervals; first += kBlock) {
    const std::size_t rows = std::min(kBlock, kIntervals - first);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < w; ++j) {
        block[r * w + j] = volumes(first + r, j);
      }
    }
    const Clock::time_point begin = Clock::now();
    monitor->absorb_block(static_cast<std::int64_t>(first), rows,
                          std::span<const double>(block.data(), rows * w));
    const double took = seconds_since(begin);
    total += took;
    close_s.push_back(took / static_cast<double>(rows));
  }
  state_hash = fnv1a(monitor->save_state());
  return total;
}

double read_probe(const std::string& path) {
  const Clock::time_point begin = Clock::now();
  spca::RecordFileReader reader(path);
  spca::RecordBatch batch;
  while (reader.next_batch(batch) > 0) {
  }
  return seconds_since(begin);
}

}  // namespace

Outcome run_replay_ingest(const Options& options) {
  spca::NetScenarioConfig world;
  world.topology = kAbilene.topology;
  world.window = kAbilene.window;
  world.sketch_rows = kAbilene.sketch_rows;
  world.monitors = 1;
  world.intervals = kIntervals;
  world.seed = options.seed;
  const spca::NetScenario s = spca::build_scenario(world);
  std::filesystem::create_directories(options.data_dir);
  const std::string path = options.data_dir + "/replay-" +
                           std::to_string(options.seed) + ".spcr";
  spca::RecordExportOptions export_options;
  export_options.records_per_cell = kRecordsPerCell;
  spca::export_records(s.trace, path, export_options);

  std::vector<Pass> passes;
  std::vector<Pass> traced;
  std::vector<double> read_s, absorb_s, close_s;
  std::vector<std::uint64_t> absorb_hashes;
  const Clock::time_point start = Clock::now();
  const auto traced_pass = [&] {
    traced.push_back(run_pass(s, path, /*keep=*/false, /*traced=*/true));
    read_s.push_back(read_probe(path));
    absorb_hashes.emplace_back();
    absorb_s.push_back(absorb_probe(s, close_s, absorb_hashes.back()));
  };
  do {  // pairs alternate their order, as in the simulations
    const bool traced_first = options.trace && passes.size() % 2 == 1;
    if (traced_first) traced_pass();
    passes.push_back(run_pass(s, path, passes.empty(), /*traced=*/false));
    if (options.trace && !traced_first) traced_pass();
  } while (passes.size() % kPassesPerCycle != 0 ||
           seconds_since(start) < options.seconds);
  const double rss = peak_rss_mb();

  // Checks, untimed: the record count of every pass, and the final monitor
  // state and pull response against a monitor fed the source trace through
  // ingest_volume/absorb_interval.
  std::unique_ptr<spca::LocalMonitor> reference = make_monitor(s);
  for (std::size_t t = 0; t < kIntervals; ++t) {
    for (const spca::FlowId flow : reference->flows()) {
      reference->ingest_volume(flow, s.trace.volumes()(t, flow));
    }
    reference->absorb_interval(static_cast<std::int64_t>(t));
  }
  const std::vector<std::byte> want_state = reference->save_state();
  const std::uint64_t want_hash = fnv1a(want_state);
  spca::SimNetwork network;
  network.send(sketch_request(static_cast<std::int64_t>(kIntervals) - 1));
  reference->handle_mail(network);
  const std::vector<spca::Message> want_response =
      network.drain(spca::kNocId);
  const std::uint64_t per_pass =
      kIntervals * s.trace.num_flows() * kRecordsPerCell;

  Outcome out;
  for (const std::vector<Pass>* set : {&passes, &traced}) {
    for (const Pass& pass : *set) {
      out.attempted += per_pass;
      const bool ok = pass.records == per_pass &&
                      pass.intervals == kIntervals &&
                      pass.state_hash == want_hash;
      if (!ok) out.failed += per_pass;
    }
  }
  const Pass& first = passes.front();
  const bool first_ok =
      first.state == want_state && want_response.size() == 1 &&
      first.response.ids == want_response.front().ids &&
      first.response.values.size() == want_response.front().values.size() &&
      std::memcmp(first.response.values.data(),
                  want_response.front().values.data(),
                  sizeof(double) * first.response.values.size()) == 0;
  for (const std::uint64_t hash : absorb_hashes) {
    if (hash != want_hash) out.failed = out.attempted;
  }
  if (!first_ok) out.failed = out.attempted;
  std::filesystem::remove(path);

  const double intervals = static_cast<double>(kIntervals);
  if (!options.trace) {
    // Interval time and rates per cycle; pull and set-up per pass.
    std::vector<double> interval_ms, pull_ms, setup, interval_rate, record_rate;
    for (std::size_t c = 0; c < passes.size(); c += kPassesPerCycle) {
      double replay = 0.0;
      double records = 0.0;
      for (std::size_t i = c; i < c + kPassesPerCycle; ++i) {
        replay += passes[i].replay_s;
        records += static_cast<double>(passes[i].records);
      }
      const double cycle_intervals =
          intervals * static_cast<double>(kPassesPerCycle);
      interval_ms.push_back(1e3 * replay / cycle_intervals);
      interval_rate.push_back(cycle_intervals / replay);
      record_rate.push_back(records / replay);
    }
    for (const Pass& pass : passes) {
      pull_ms.push_back(1e3 * pass.pull_s);
      setup.push_back(pass.setup_s);
    }
    EndToEnd m;
    m.interval_ms_p50 = quantile(interval_ms, 0.50);
    m.interval_ms_p99 = quantile(interval_ms, 0.99);
    m.pull_ms_p50 = median(pull_ms);
    m.intervals_per_s = median(interval_rate);
    m.records_per_s = median(record_rate);
    m.wire_bytes_per_interval = first.wire_bytes / intervals;
    m.monitor_state_kb = static_cast<double>(first.monitor_bytes) / 1024.0;
    m.peak_rss_mb = rss;
    m.setup_s = median(setup);
    add_metrics(m, out);
    return out;
  }

  std::vector<double> emit, pass_s;
  double send = 0.0, recv = 0.0, messages = 0.0, blocks = 0.0;
  double traced_rate = 0.0, untraced_rate = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    emit.push_back(traced[i].pull_s);
    pass_s.push_back(traced[i].replay_s);
    send += traced[i].send_s;
    recv += traced[i].recv_s;
    messages += static_cast<double>(traced[i].messages);
    blocks += static_cast<double>(traced[i].producer_blocks);
    traced_rate += 1.0 / traced[i].replay_s;
    untraced_rate += 1.0 / passes[i].replay_s;
  }
  const double n = static_cast<double>(traced.size());
  Layers m;
  m.read_ms = 1e3 * median(read_s);
  m.absorb_ms = 1e3 * median(absorb_s);
  m.producer_blocks = blocks / n;
  m.close_us_p50 = 1e6 * median(close_s);
  m.emit_ms_p50 = 1e3 * median(emit);
  m.send_us = 1e6 * send / (n * intervals);
  m.recv_us = 1e6 * recv / (n * intervals);
  m.messages_per_interval = messages / (n * intervals);
  m.stage_coverage = (median(read_s) + median(absorb_s)) / median(pass_s);
  m.overhead = 1.0 - traced_rate / untraced_rate;
  add_metrics(m, out);
  return out;
}

}  // namespace perfbench
