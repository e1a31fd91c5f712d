#include "net/endpoint.hpp"

namespace msw {

Endpoint::~Endpoint() { cancel_all_timers(); }

TimerId Endpoint::set_timer(Duration delay, std::function<void()> fn) {
  const std::uint64_t tid = next_timer_++;
  const TransportTimer t = transport_.set_timer(id_, delay, [this, tid, fn = std::move(fn)]() {
    timers_.erase(tid);
    fn();
  });
  timers_.emplace(tid, t.v);
  return TimerId{tid};
}

void Endpoint::cancel_timer(TimerId id) {
  auto it = timers_.find(id.v);
  if (it == timers_.end()) return;
  transport_.cancel_timer(id_, TransportTimer{it->second});
  timers_.erase(it);
}

void Endpoint::cancel_all_timers() {
  for (auto& [tid, handle] : timers_) transport_.cancel_timer(id_, TransportTimer{handle});
  timers_.clear();
}

}  // namespace msw
