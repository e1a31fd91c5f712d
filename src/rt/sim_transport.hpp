// Transport backend over the deterministic discrete-event simulator.
//
// This is the simulator's medium, compiled in every build (it needs no
// epoll and no threads): Group builds its stacks over one. It is a
// stateless forwarding shim that holds only its Network. Every operation
// maps 1:1 onto a Network/Scheduler call, in the same order, drawing the
// same RNG streams, so the simulator stays the reproducible substrate for
// tests and fuzzing. A timer token is the Scheduler's EventId itself.
#pragma once

#include "rt/transport.hpp"

namespace msw {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(Network& net) : net_(net) {}

  NodeId add_node(std::size_t /*shard_hint*/ = 0) override { return net_.add_node(); }

  void set_handler(NodeId node, PacketHandler handler) override {
    net_.set_handler(node, std::move(handler));
  }
  void set_run_handler(NodeId node, PacketRunHandler handler) override {
    net_.set_run_handler(node, std::move(handler));
  }

  void send(NodeId from, NodeId to, Payload data) override {
    net_.send(from, to, std::move(data));
  }
  void multicast(NodeId from, const std::vector<NodeId>& to, Payload data) override {
    net_.multicast(from, to, std::move(data));
  }
  void multicast_run(NodeId from, const std::vector<NodeId>& to,
                     std::span<const Payload> msgs) override {
    net_.multicast_run(from, to, msgs);
  }

  /// The token is the packed EventId (slot | gen << 32); never 0, because
  /// generations start at 1.
  TransportTimer set_timer(NodeId /*node*/, Duration delay, std::function<void()> fn) override;
  /// Scheduler::cancel ignores ids that already fired, so this needs no
  /// bookkeeping of its own.
  void cancel_timer(NodeId /*node*/, TransportTimer timer) override;

  Time now() const override { return net_.scheduler().now(); }
  void consume_cpu(NodeId node, Duration d) override { net_.consume_cpu(node, d); }
  TickArena* tick_arena() override { return &net_.scheduler().tick_arena(); }

 private:
  Network& net_;
};

}  // namespace msw
