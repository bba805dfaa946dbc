// The NOC's interval step (Sec. IV-C), written once for every deployment.
//
// Per interval the step gathers phase 1 from every child, keyed by sender:
// volume and score reports from monitors, or shape-tagged kAggregates from
// regional NOCs (dist/aggregate.hpp), unwrapped into the flat types. It
// assembles the measurement vector, skips the warm-up, and runs the lazy
// protocol of Noc::detect_with_pull. A pull requests every child, gathers
// the sketch responses keyed by sender and refits (NOC-hosted sketches
// refit from the NOC's own histograms instead). With fusion on, the step
// then fuses the first-line scores with the sketch verdict.
//
// The step never blocks on its own. Whenever it needs messages it calls the
// deployment's await policy with a readiness predicate, and that policy is
// the only part a deployment supplies:
//
//   simulation   pumps the in-process monitors (and regional NOCs), then
//                checks that the predicate holds: one synchronous pass must
//                complete the phase.
//   NOC daemon   waits on the transport in short slices against its
//                interval deadline, polls its telemetry, and re-requests
//                sketches from children that reconnected mid-pull.
//
// So the simulation, the flat and hierarchical daemons and every bench run
// one piece of code, and their bit-identity gates compare carriers, not
// copies.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "detect/fusion.hpp"
#include "dist/noc.hpp"

namespace spca {

/// A deployment's await policy: make progress until `ready()` holds and
/// return true, or return false when the deployment is stopping. `what`
/// names the awaited messages for diagnostics.
using AwaitPolicy =
    std::function<bool(const std::function<bool()>& ready, const char* what)>;

/// What the NOC decided for one interval.
struct IntervalVerdict {
  /// The sketch-PCA verdict; not ready during warm-up.
  Detection detection;
  /// The fused ensemble verdict (abstaining during warm-up); meaningful
  /// only with fusion enabled.
  FusedDecision fused;
};

/// The NOC's interval state machine over any transport.
class NocStep final {
 public:
  /// `children` are the NOC's direct children: monitors, or regional NOCs
  /// when `aggregated` (their phase traffic then arrives as kAggregates).
  /// `observed` counts the intervals already run, so a NOC restored
  /// mid-scenario keeps its place relative to the warm-up.
  NocStep(Noc noc, std::vector<NodeId> children, bool aggregated,
          std::uint64_t observed = 0);

  /// Turns on the ensemble plane: every child must then also send scores.
  /// Must precede the first run().
  void enable_fusion(const FusionConfig& config);
  [[nodiscard]] bool fusion_enabled() const noexcept {
    return fusion_.has_value();
  }

  /// Runs interval `t` over `bus`. Returns nullopt when `await` reports the
  /// deployment stopping before phase 1 completed; throws TransportError
  /// when it stops during a pull, and ProtocolError on a message the NOC
  /// cannot route. Messages of other intervals are stale re-sends and
  /// dropped.
  [[nodiscard]] std::optional<IntervalVerdict> run(std::int64_t t,
                                                   Transport& bus,
                                                   const AwaitPolicy& await);

  /// During a pull: re-sends the sketch request to every child that has
  /// not answered yet (a child that reconnected lost it with its old
  /// connection; a racing duplicate answer is identical, and the last one
  /// wins). No-op outside a pull.
  void rerequest_missing(Transport& bus);

  [[nodiscard]] const Noc& noc() const noexcept { return noc_; }
  [[nodiscard]] std::uint64_t observed() const noexcept { return observed_; }

 private:
  /// Drains the NOC's mailbox into the per-child stores.
  void absorb(Transport& bus);
  [[nodiscard]] bool complete(
      const std::map<NodeId, Message>& store) const noexcept {
    return store.size() == children_.size();
  }
  /// The sketch-response gather and refit of one pull.
  void pull(std::int64_t t, Transport& bus, const AwaitPolicy& await);

  Noc noc_;
  std::vector<NodeId> children_;  // sorted ascending
  bool aggregated_;
  std::uint64_t observed_;
  std::optional<FusionEngine> fusion_;
  std::int64_t interval_ = -1;
  bool pulling_ = false;
  std::map<NodeId, Message> reports_;
  std::map<NodeId, Message> scores_;
  std::map<NodeId, Message> responses_;
};

}  // namespace spca
