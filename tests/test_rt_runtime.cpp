// Runtime-boundary unit tests: the event loop's MPSC inbox and timers, the
// executor lifecycle, the threaded loopback and UDP backends, and the
// SimTransport trace pinned to the digest of the removed direct Network
// path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "rt/event_loop.hpp"
#include "rt/executor.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/rt_group.hpp"
#include "rt/sim_transport.hpp"
#include "rt/udp_transport.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"
#include "trace/trace.hpp"

#include "helpers.hpp"

namespace msw {
namespace {

using testing::ideal_net;

Bytes body_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Spin until `pred` holds or ~5 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(EventLoop, RunsPostedTasksInFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) loop.post([&order, i] { order.push_back(i); });
  loop.post([&loop] { loop.stop(); });
  loop.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_GE(loop.tasks_run(), 101u);
}

TEST(EventLoop, ManyProducersAllTasksArrive) {
  EventLoop loop;
  std::thread runner([&loop] { loop.run(); });
  std::atomic<int> count{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&loop, &count] {
      for (int i = 0; i < kPerProducer; ++i) {
        loop.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(eventually([&] { return count.load() == kProducers * kPerProducer; }));
  loop.stop();
  runner.join();
  EXPECT_EQ(count.load(), kProducers * kPerProducer);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  const std::int64_t now = EventLoop::now_ns();
  std::vector<int> order;
  // Registered out of order; must fire by deadline.
  loop.add_timer(now + 30'000'000, [&order] { order.push_back(3); });
  loop.add_timer(now + 10'000'000, [&order] { order.push_back(1); });
  loop.add_timer(now + 20'000'000, [&order] { order.push_back(2); });
  loop.add_timer(now + 40'000'000, [&loop] { loop.stop(); });
  loop.run();
  ASSERT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.timers_fired(), 4u);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  const std::int64_t now = EventLoop::now_ns();
  bool fired = false;
  const std::uint64_t t = loop.add_timer(now + 5'000'000, [&fired] { fired = true; });
  loop.cancel_timer(t);
  loop.cancel_timer(t);  // double-cancel is a no-op
  loop.add_timer(now + 15'000'000, [&loop] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.timers_fired(), 1u);
}

TEST(Executor, StartStopIsIdempotent) {
  Executor ex(3);
  EXPECT_EQ(ex.shards(), 3u);
  ex.start();
  std::atomic<int> ran{0};
  for (std::size_t s = 0; s < 3; ++s) ex.loop(s).post([&ran] { ++ran; });
  ASSERT_TRUE(eventually([&] { return ran.load() == 3; }));
  ex.stop();
  ex.stop();  // second stop is a no-op
  EXPECT_FALSE(ex.running());
}

TEST(LoopbackTransport, RawSendReachesHandlerOnOtherShard) {
  Executor ex(2);
  LoopbackTransport tr(ex);
  const NodeId a = tr.add_node(0);
  const NodeId b = tr.add_node(1);
  std::atomic<int> got{0};
  // Ping-pong: b echoes back to a; a counts.
  tr.set_handler(b, [&tr, a, b](Packet p) { tr.send(b, a, std::move(p.data)); });
  tr.set_handler(a, [&got](Packet) { got.fetch_add(1); });
  ex.start();
  for (int i = 0; i < 100; ++i) tr.send(a, b, Payload(body_of("ping")));
  ASSERT_TRUE(eventually([&] { return got.load() == 100; }));
  ex.stop();
  EXPECT_EQ(tr.packets_sent(), 200u);
  EXPECT_EQ(tr.packets_delivered(), 200u);
}

TEST(LoopbackTransport, ReliableFifoGroupDeliversEverythingInSenderOrder) {
  Executor ex(2);
  LoopbackTransport tr(ex);
  RtGroup group(tr, 3, make_reliable_fifo_factory(), /*shard=*/1);
  // Per-receiver, per-sender sequence log. Installed before start, read
  // after stop — the shard thread is the only writer in between.
  constexpr std::size_t kN = 3;
  std::vector<std::vector<std::vector<std::uint64_t>>> seqs(
      kN, std::vector<std::vector<std::uint64_t>>(kN));
  for (std::size_t i = 0; i < kN; ++i) {
    group.stack(i).set_on_deliver([&seqs, i](const MsgId& id, std::span<const Byte>) {
      seqs[i][id.sender].push_back(id.seq);
    });
  }
  ex.start();
  group.start();
  constexpr std::uint64_t kMsgs = 50;
  for (std::uint64_t m = 0; m < kMsgs; ++m) {
    for (std::size_t i = 0; i < kN; ++i) group.send(i, body_of("m"));
  }
  ASSERT_TRUE(eventually([&] { return group.total_delivered() == kN * kN * kMsgs; }));
  ex.stop();
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t s = 0; s < kN; ++s) {
      ASSERT_EQ(seqs[i][s].size(), kMsgs) << "receiver " << i << " sender " << s;
      for (std::uint64_t m = 0; m < kMsgs; ++m) {
        ASSERT_EQ(seqs[i][s][m], m) << "FIFO violated at receiver " << i;
      }
    }
  }
}

TEST(UdpTransport, ReliableFifoGroupDeliversOverRealSockets) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(2);
  UdpTransport tr(ex);
  RtGroup group(tr, 4, make_reliable_fifo_factory());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(tr.port_of(group.node(i)), 0u);
  ex.start();
  group.start();
  constexpr std::uint64_t kMsgs = 100;
  for (std::uint64_t m = 0; m < kMsgs; ++m) {
    for (std::size_t i = 0; i < 4; ++i) group.send(i, body_of("udp"));
  }
  // The ReliableLayer's NACK/heartbeat machinery recovers kernel-dropped
  // datagrams, so full delivery is guaranteed, not probabilistic.
  ASSERT_TRUE(eventually([&] { return group.total_delivered() == 4u * 4u * kMsgs; }));
  ex.stop();
  EXPECT_EQ(group.total_sent(), 4u * kMsgs);
}

TEST(UdpTransport, OversizedDatagramCountsAsDropped) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(1);
  UdpTransport tr(ex);
  const NodeId a = tr.add_node();
  const NodeId b = tr.add_node();
  tr.set_handler(b, [](Packet) {});
  ex.start();
  tr.send(a, b, Payload(Bytes(70000, Byte{0})));
  ex.stop();
  EXPECT_EQ(tr.packets_dropped(), 1u);
}

/// Drives a seeded reliable-fifo workload over a group of stacks built on a
/// SimTransport and returns the captured trace.
Trace sim_trace() {
  Simulation sim(/*seed=*/42);
  Network net(sim.scheduler(), sim.fork_rng(), testing::lossy_net(0.05));
  constexpr std::size_t kN = 3;
  const LayerFactory factory = make_reliable_fifo_factory();
  TraceCapture capture;
  SimTransport transport(net);
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < kN; ++i) members.push_back(transport.add_node());
  std::vector<std::unique_ptr<Stack>> stacks;
  for (std::size_t i = 0; i < kN; ++i) {
    stacks.push_back(std::make_unique<Stack>(transport, members[i], members,
                                             factory(members[i], members), sim.fork_rng(),
                                             &capture));
  }
  for (auto& s : stacks) s->start();
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < kN; ++i) {
      stacks[i]->send(body_of("r" + std::to_string(round) + "n" + std::to_string(i)));
    }
    sim.run_for(5 * kMillisecond);
  }
  sim.run_for(2 * kSecond);
  return capture.trace();
}

TEST(SimTransport, ByteIdenticalTraceVersusDirectNetworkPath) {
  // trace_digest of the same workload with the stacks driving the Network
  // directly, the sim path before SimTransport became the only one. The
  // digest hashes every event's time, so the boundary must not even shift
  // an event by a microsecond.
  constexpr std::uint64_t kDirectNetworkPathDigest = 0xfc2484bc2050431fULL;
  const Trace trace = sim_trace();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace_digest(trace), kDirectNetworkPathDigest);
}

}  // namespace
}  // namespace msw
