// Per-node transport handle.
//
// An Endpoint binds one NodeId to its Transport and owns that node's timer
// registrations. Protocol stacks talk to the world below them exclusively
// through an Endpoint, which keeps the Transport interface free of
// per-node state.
//
// There is one path: every call goes through the Transport interface, so
// the same stack runs over the simulator (SimTransport, compiled in every
// build), the threaded loopback backend, or real UDP sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/node_id.hpp"
#include "rt/transport.hpp"

namespace msw {

/// Handle for a pending timer; see Endpoint::set_timer.
struct TimerId {
  std::uint64_t v = 0;
  bool valid() const { return v != 0; }
  friend bool operator==(TimerId a, TimerId b) { return a.v == b.v; }
};

class Endpoint {
 public:
  Endpoint(Transport& transport, NodeId id) : transport_(transport), id_(id) {}
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId id() const { return id_; }

  Time now() const { return transport_.now(); }

  void set_handler(PacketHandler handler) { transport_.set_handler(id_, std::move(handler)); }
  void set_run_handler(PacketRunHandler handler) {
    transport_.set_run_handler(id_, std::move(handler));
  }

  void send(NodeId to, Payload data) { transport_.send(id_, to, std::move(data)); }
  void multicast(const std::vector<NodeId>& to, Payload data) {
    transport_.multicast(id_, to, std::move(data));
  }
  void multicast_run(const std::vector<NodeId>& to, std::span<const Payload> msgs) {
    transport_.multicast_run(id_, to, msgs);
  }

  /// Model protocol processing cost (sim charges the node's serial CPU;
  /// real transports do nothing — their processing time is real).
  void consume_cpu(Duration d) { transport_.consume_cpu(id_, d); }

  /// Per-tick allocator for batch paths, or nullptr when the medium has no
  /// deterministic tick (real transports).
  TickArena* tick_arena() { return transport_.tick_arena(); }

  /// One-shot timer. The callback is dropped (not fired) if cancelled or if
  /// the Endpoint is destroyed first.
  TimerId set_timer(Duration delay, std::function<void()> fn);
  void cancel_timer(TimerId id);
  void cancel_all_timers();

 private:
  Transport& transport_;
  NodeId id_;
  std::uint64_t next_timer_ = 1;
  /// TimerId -> the transport's TransportTimer token.
  std::unordered_map<std::uint64_t, std::uint64_t> timers_;
};

}  // namespace msw
