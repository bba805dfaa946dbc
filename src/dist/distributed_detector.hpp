// Facade running the full simulated deployment — k local monitors plus the
// NOC over a SimNetwork — behind the ordinary Detector interface, so the
// evaluation harness can compare it directly against the single-process
// SketchDetector (they must agree verdict-for-verdict given equal
// parameters; an integration test enforces this). The NOC side is the one
// interval step every deployment runs (dist/noc_step.hpp); the facade only
// closes the monitors' intervals and pumps their mailboxes when it waits.
#pragma once

#include <cstdint>
#include <vector>

#include "core/detector.hpp"
#include "core/sketch_detector.hpp"
#include "detect/fusion.hpp"
#include "dist/local_monitor.hpp"
#include "dist/noc_step.hpp"
#include "dist/sim_network.hpp"

namespace spca {

/// The distributed deployment as a Detector.
class DistributedDetector final : public Detector {
 public:
  /// Flows are distributed round-robin over `num_monitors` monitors, which
  /// mirrors OD flows being observed at their origin routers.
  ///
  /// `noc_hosted_sketches` selects Theorem 1's low-resource deployment:
  /// monitors run only the Volume Counter, the NOC maintains every flow's
  /// histogram itself, and no sketch-pull messages are ever sent.
  ///
  /// `transport` overrides the message carrier (e.g. a FaultyTransport
  /// decorating a SimNetwork); nullptr uses the built-in SimNetwork. It must
  /// deliver synchronously, and the caller keeps ownership and must outlive
  /// the detector.
  DistributedDetector(std::size_t dimensions, std::size_t num_monitors,
                      const SketchDetectorConfig& config,
                      bool noc_hosted_sketches = false,
                      Transport* transport = nullptr);

  [[nodiscard]] bool noc_hosted_sketches() const noexcept {
    return step_.noc().config().host_sketches;
  }

  /// Feeds the network-wide measurement vector: each monitor ingests the
  /// volumes of its own flows (as raw FlowUpdate records), ends the
  /// interval, and the NOC runs the lazy protocol.
  Detection observe(std::int64_t t, const Vector& x) override;

  [[nodiscard]] std::string name() const override {
    return "sketch-pca-distributed";
  }

  [[nodiscard]] const NetworkStats& network_stats() const noexcept {
    return transport_->stats();
  }

  [[nodiscard]] const Noc& noc() const noexcept { return step_.noc(); }
  [[nodiscard]] std::size_t num_monitors() const noexcept {
    return monitors_.size();
  }

  /// Total sketch-summary bytes across all monitors.
  [[nodiscard]] std::size_t monitor_memory_bytes() const noexcept;

  /// Turns on the ensemble detection plane: every monitor runs a first-line
  /// scorer and ships kScoreReports, and the NOC-side observe() fuses them
  /// with the sketch-PCA verdict. Must be called before the first observe;
  /// the sketch Detection returned by observe() is unchanged — the fused
  /// verdict is read through last_fused().
  void enable_fusion(const FusionConfig& fusion,
                     const FirstLineConfig& first_line = {});
  [[nodiscard]] bool fusion_enabled() const noexcept {
    return step_.fusion_enabled();
  }
  /// The fused verdict of the last observed interval (abstaining during
  /// warm-up); default-constructed before the first observe.
  [[nodiscard]] const FusedDecision& last_fused() const noexcept {
    return last_fused_;
  }

 private:
  SimNetwork network_;          // default carrier
  Transport* transport_ = nullptr;  // the active carrier (may be external)
  std::vector<LocalMonitor> monitors_;
  NocStep step_;
  FusedDecision last_fused_;
};

}  // namespace spca
