#include "rt/sim_transport.hpp"

namespace msw {

TransportTimer SimTransport::set_timer(NodeId /*node*/, Duration delay,
                                       std::function<void()> fn) {
  const EventId ev = net_.scheduler().after(delay, std::move(fn));
  return TransportTimer{std::uint64_t{ev.slot} | (std::uint64_t{ev.gen} << 32)};
}

void SimTransport::cancel_timer(NodeId /*node*/, TransportTimer timer) {
  net_.scheduler().cancel(
      EventId{static_cast<std::uint32_t>(timer.v), static_cast<std::uint32_t>(timer.v >> 32)});
}

}  // namespace msw
