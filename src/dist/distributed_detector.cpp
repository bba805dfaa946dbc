#include "dist/distributed_detector.hpp"

#include "common/contracts.hpp"
#include "obs/span_log.hpp"

namespace spca {

DistributedDetector::DistributedDetector(std::size_t dimensions,
                                         std::size_t num_monitors,
                                         const SketchDetectorConfig& config,
                                         bool noc_hosted_sketches,
                                         Transport* transport)
    : transport_(transport != nullptr ? transport : &network_),
      step_(Noc(dimensions, noc_config_from(config, noc_hosted_sketches)),
            scenario_monitor_ids(num_monitors), /*aggregated=*/false) {
  SPCA_EXPECTS(dimensions >= 2);
  SPCA_EXPECTS(num_monitors >= 1 && num_monitors <= dimensions);
  monitors_ = make_monitors(dimensions, num_monitors, config,
                            /*counter_only=*/noc_hosted_sketches);
}

void DistributedDetector::enable_fusion(const FusionConfig& fusion,
                                        const FirstLineConfig& first_line) {
  SPCA_EXPECTS(!step_.fusion_enabled() && step_.observed() == 0);
  step_.enable_fusion(fusion);
  for (LocalMonitor& monitor : monitors_) monitor.enable_first_line(first_line);
}

Detection DistributedDetector::observe(std::int64_t t, const Vector& x) {
  SPCA_EXPECTS(x.size() == step_.noc().num_flows());
  // Monitors observe their flows' traffic and close the interval.
  for (LocalMonitor& monitor : monitors_) {
    {
      const ScopedSpan span("monitor" + std::to_string(monitor.id()),
                            kStageIngestAbsorb, t);
      for (const FlowId flow : monitor.flows()) {
        monitor.ingest_volume(flow, x[flow]);
      }
    }
    monitor.end_interval(t, *transport_);
  }
  // The sim's await policy: when the NOC waits for anything, one
  // synchronous pass of the monitors' event loops must complete it.
  const AwaitPolicy await = [this](const std::function<bool()>& ready,
                                   const char* /*what*/) {
    if (ready()) return true;
    for (LocalMonitor& monitor : monitors_) monitor.handle_mail(*transport_);
    SPCA_ENSURES(ready());
    return true;
  };
  IntervalVerdict verdict = *step_.run(t, *transport_, await);
  last_fused_ = std::move(verdict.fused);
  return verdict.detection;
}

std::size_t DistributedDetector::monitor_memory_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const LocalMonitor& monitor : monitors_) bytes += monitor.memory_bytes();
  return bytes;
}

}  // namespace spca
