#include "timing_transport.hpp"

namespace perfbench {

namespace {

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

IntervalWire* TimingTransport::slot(std::int64_t interval) {
  if (interval < 0 ||
      static_cast<std::size_t>(interval) >= per_interval_.size()) {
    return nullptr;
  }
  return &per_interval_[static_cast<std::size_t>(interval)];
}

void TimingTransport::send(const spca::Message& msg) {
  const Clock::time_point begin = Clock::now();
  IntervalWire* s = slot(msg.interval);
  if (msg.type == spca::MessageType::kSketchResponse && request_pending_) {
    request_pending_ = false;
    if (s != nullptr) s->emit_ns += ns_between(request_delivered_, begin);
  }
  if (msg.type == spca::MessageType::kSketchRequest && s != nullptr &&
      s->pull_begin == Clock::time_point{}) {
    s->pull_begin = begin;
  }
  inner_.send(msg);
  const double ns = ns_between(begin, Clock::now());
  send_ns_ += ns;
  ++messages_;
  if (s != nullptr) {
    s->send_ns += ns;
    ++s->messages;
  }
}

std::vector<spca::Message> TimingTransport::drain(spca::NodeId node) {
  const Clock::time_point begin = Clock::now();
  std::vector<spca::Message> msgs = inner_.drain(node);
  const Clock::time_point end = Clock::now();
  const double ns = ns_between(begin, end);
  recv_ns_ += ns;
  pending_recv_ns_ += ns;
  delivered(msgs, end);
  return msgs;
}

std::vector<spca::Message> TimingTransport::take(spca::NodeId node,
                                                 spca::MessageType type) {
  const Clock::time_point begin = Clock::now();
  std::vector<spca::Message> msgs = inner_.take(node, type);
  const Clock::time_point end = Clock::now();
  const double ns = ns_between(begin, end);
  recv_ns_ += ns;
  pending_recv_ns_ += ns;
  delivered(msgs, end);
  return msgs;
}

bool TimingTransport::wait_for_mail(spca::NodeId node,
                                    std::chrono::milliseconds timeout) {
  const Clock::time_point begin = Clock::now();
  const bool mail = inner_.wait_for_mail(node, timeout);
  const double ns = ns_between(begin, Clock::now());
  wait_ns_ += ns;
  pending_wait_ns_ += ns;
  return mail;
}

void TimingTransport::delivered(const std::vector<spca::Message>& msgs,
                                Clock::time_point end) {
  if (msgs.empty()) return;
  if (IntervalWire* s = slot(msgs.front().interval)) {
    s->recv_ns += pending_recv_ns_;
    s->wait_ns += pending_wait_ns_;
  }
  pending_recv_ns_ = 0.0;
  pending_wait_ns_ = 0.0;
  for (const spca::Message& msg : msgs) {
    if (msg.type == spca::MessageType::kSketchRequest) {
      request_pending_ = true;
      request_delivered_ = end;
    } else if (msg.type == spca::MessageType::kSketchResponse) {
      if (IntervalWire* s = slot(msg.interval)) s->pull_end = end;
    }
  }
}

}  // namespace perfbench
