// Timing Transport decorator: the traced run's probe on the wire layer.
//
// It forwards every call to the wrapped transport and accounts the time spent
// inside Transport::send (serialization and dispatch) and inside drain/take
// (delivery and parsing), plus the time blocked in wait_for_mail. Each
// sample is attributed to the interval of the message it carried; receive
// and wait time spent before a message arrives is held pending and charged
// to the interval of the next message delivered, which is the interval the
// caller was waiting for. One decorator is used by one thread.
//
// It also times the sketch emit of a monitor from outside: the span from a
// drain that delivered a sketch request to the send of the matching sketch
// response is the monitor's handle_request minus its own send.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "net/transport.hpp"

namespace perfbench {

/// Per-interval wire accounting of one decorator, in nanoseconds.
struct IntervalWire {
  double send_ns = 0.0;
  double recv_ns = 0.0;
  double wait_ns = 0.0;
  double emit_ns = 0.0;
  std::uint64_t messages = 0;
  /// Pull window seen at the NOC: first sketch request sent, end of the
  /// last receive that delivered a sketch response (0 when no pull).
  Clock::time_point pull_begin{};
  Clock::time_point pull_end{};
};

class TimingTransport final : public spca::Transport {
 public:
  explicit TimingTransport(spca::Transport& inner, std::size_t intervals = 0)
      : inner_(inner), per_interval_(intervals) {}

  void send(const spca::Message& msg) override;
  [[nodiscard]] std::vector<spca::Message> drain(spca::NodeId node) override;
  [[nodiscard]] std::vector<spca::Message> take(
      spca::NodeId node, spca::MessageType type) override;
  [[nodiscard]] bool has_mail(spca::NodeId node) const override {
    return inner_.has_mail(node);
  }
  bool wait_for_mail(spca::NodeId node,
                     std::chrono::milliseconds timeout) override;
  [[nodiscard]] const spca::NetworkStats& stats() const noexcept override {
    return inner_.stats();
  }
  void reset_stats() noexcept override { inner_.reset_stats(); }

  /// Running totals over the decorator's lifetime (nanoseconds).
  [[nodiscard]] double send_ns() const noexcept { return send_ns_; }
  [[nodiscard]] double recv_ns() const noexcept { return recv_ns_; }
  [[nodiscard]] double wait_ns() const noexcept { return wait_ns_; }
  [[nodiscard]] double wire_ns() const noexcept {
    return send_ns_ + recv_ns_ + wait_ns_;
  }
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }

  /// Per-interval view (empty unless constructed with an interval count).
  [[nodiscard]] const std::vector<IntervalWire>& per_interval() const noexcept {
    return per_interval_;
  }

 private:
  IntervalWire* slot(std::int64_t interval);
  void delivered(const std::vector<spca::Message>& msgs, Clock::time_point end);

  spca::Transport& inner_;
  double send_ns_ = 0.0;
  double recv_ns_ = 0.0;
  double wait_ns_ = 0.0;
  std::uint64_t messages_ = 0;
  std::vector<IntervalWire> per_interval_;
  double pending_recv_ns_ = 0.0;
  double pending_wait_ns_ = 0.0;
  bool request_pending_ = false;
  Clock::time_point request_delivered_{};
};

}  // namespace perfbench
