#include "stack/group.hpp"

namespace msw {

Group::Group(Simulation& sim, Network& net, std::size_t n, const LayerFactory& factory,
             bool capture_trace)
    : transport_(net) {
  TelemetryHub& hub = sim.telemetry();
  if (hub.network() != &net) {
    // First group on this network: make it the incarnation source and hook
    // its counters into the simulation-scope registry.
    hub.attach_network(&net);
    net.bind_metrics(hub.global());
  }
  members_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) members_.push_back(transport_.add_node());
  stacks_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stacks_.push_back(std::make_unique<Stack>(transport_, members_[i], members_,
                                              factory(members_[i], members_), sim.fork_rng(),
                                              capture_trace ? &capture_ : nullptr, &hub));
  }
}

void Group::start() {
  for (auto& s : stacks_) s->start();
}

std::uint64_t Group::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& s : stacks_) n += s->delivered();
  return n;
}

std::uint64_t Group::total_sent() const {
  std::uint64_t n = 0;
  for (const auto& s : stacks_) n += s->sent();
  return n;
}

}  // namespace msw
