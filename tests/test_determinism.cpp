// End-to-end determinism: the whole stack — scheduler tie-breaking, RNG
// forking, network jitter/loss, protocol timers, SP token rotation — must
// reproduce bit-identical traces for a given seed. Every experiment in
// EXPERIMENTS.md rests on this.
#include <gtest/gtest.h>

#include "harness/workload.hpp"
#include "helpers.hpp"
#include "net/fault.hpp"
#include "switch/hybrid.hpp"
#include "trace/trace.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

Trace run_scenario(std::uint64_t seed) {
  GroupHarness h(5, make_hybrid_total_order_factory(), testing::lossy_net(0.1), seed);
  Rng rng(seed + 1);
  for (int k = 0; k < 30; ++k) {
    const std::size_t sender = rng.index(5);
    h.sim.scheduler().at(static_cast<Time>(rng.below(800)) * kMillisecond, [&h, sender, k] {
      h.group.send(sender, to_bytes("d" + std::to_string(k)));
    });
  }
  h.sim.scheduler().at(300 * kMillisecond,
                       [&h] { switch_layer_of(h.group.stack(2)).request_switch(); });
  h.sim.run_for(20 * kSecond);
  return h.group.trace();
}

bool traces_identical_with_times(const Trace& a, const Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i]) || a[i].time != b[i].time) return false;
  }
  return true;
}

// Digests pinned on the last build whose Group drove the Network without a
// Transport in between: the simulator's medium may change shape, but never
// the traces it produces.
constexpr std::uint64_t kScenario77Digest = 0x9b422d7b1d70d35eULL;
constexpr std::uint64_t kFaulted4242Digest = 0x9edbf6f3922114a1ULL;

TEST(Determinism, IdenticalSeedIdenticalTrace) {
  const Trace first = run_scenario(77);
  const Trace second = run_scenario(77);
  EXPECT_TRUE(traces_identical_with_times(first, second))
      << "a seeded run must be bit-reproducible, timestamps included";
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(trace_digest(first), kScenario77Digest);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const Trace a = run_scenario(77);
  const Trace b = run_scenario(78);
  EXPECT_FALSE(traces_identical_with_times(a, b))
      << "jitter and loss must actually depend on the seed";
}

TEST(Determinism, WorkloadHarnessIsReproducible) {
  const auto run = [] {
    Simulation sim(9);
    Network net(sim.scheduler(), sim.fork_rng(), testing::era_net());
    Group group(sim, net, 6, make_sequencer_factory());
    group.start();
    WorkloadConfig cfg;
    cfg.senders = 3;
    cfg.duration = 2 * kSecond;
    cfg.poisson = true;
    const auto res = run_workload(sim, group, cfg);
    return std::make_tuple(res.sent, res.delivered, res.latency_ms.mean());
  };
  EXPECT_EQ(run(), run());
}

std::uint64_t faulted_run_digest(std::uint64_t seed, const FaultSchedule& schedule) {
  Simulation sim(seed);
  Network net(sim.scheduler(), sim.fork_rng(), testing::lossy_net(0.05));
  Group group(sim, net, 4, make_hybrid_total_order_factory());
  FaultPlane plane(net, sim.fork_rng(), schedule);
  plane.install();
  group.start();
  for (int k = 0; k < 20; ++k) {
    sim.scheduler().at((30 + k * 40) * kMillisecond,
                       [&group, k] { group.send(k % 4, to_bytes("f" + std::to_string(k))); });
  }
  sim.scheduler().at(350 * kMillisecond,
                     [&group] { switch_layer_of(group.stack(1)).request_switch(); });
  sim.run_for(20 * kSecond);
  return trace_digest(group.trace());
}

TEST(Determinism, IdenticalFaultScheduleIdenticalDigest) {
  // Same seed + same FaultSchedule across two fresh Simulations => the
  // same trace digest; the fault plane's per-link streams must not leak
  // nondeterminism. The fuzzer's minimal reproducers rest on this.
  const auto schedule = FaultSchedule::parse(
      "dup=0.05@40000;reorder=0.1@20000;linkdown@200000:0-2;linkup@450000:0-2;"
      "part@600000:x2;heal@800000:x2;jitter@300000:150000:5000");
  ASSERT_TRUE(schedule.has_value());
  const std::uint64_t digest = faulted_run_digest(4242, *schedule);
  EXPECT_EQ(digest, kFaulted4242Digest);
  EXPECT_EQ(digest, faulted_run_digest(4242, *schedule));
  EXPECT_NE(digest, faulted_run_digest(4243, *schedule))
      << "the simulation seed must actually feed the faulted run";

  FaultSchedule harder = *schedule;
  harder.dup_prob = 0.2;
  EXPECT_NE(digest, faulted_run_digest(4242, harder))
      << "the schedule's knobs must actually perturb the run";
}

TEST(Determinism, NetworkStatsReproducible) {
  const auto run = [] {
    GroupHarness h(4, make_token_factory(), testing::lossy_net(0.2), 31);
    for (int i = 0; i < 10; ++i) h.group.send(i % 4, to_bytes("n" + std::to_string(i)));
    h.sim.run_for(5 * kSecond);
    const auto& s = h.net.stats();
    return std::make_tuple(s.unicasts_sent, s.multicasts_sent, s.copies_delivered,
                           s.copies_dropped_loss, s.bytes_on_wire);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace msw
