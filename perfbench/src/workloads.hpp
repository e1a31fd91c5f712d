// The benchmark's workloads. Each builds its stacks through the public
// APIs, sends on a fixed open-loop schedule, checks every delivery and
// reports one RunResult.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where a traced run writes its Chrome trace; empty = nowhere.
  std::string trace_out;
};

/// Reliable FIFO (FifoLayer over ReliableLayer), 32 members over
/// UdpTransport, per-message sends at 2000 multicasts/s.
RunResult run_udp_fanout32(const Args& a);
/// The hybrid stack, 8 members over LoopbackTransport, batches of 8 at
/// 2000 multicasts/s, a switch requested every 250 ms.
RunResult run_loopback_hybrid_switch(const Args& a);
/// The hybrid stack, 12 members in the simulator with loss, duplication
/// and reordering.
RunResult run_sim_hybrid_lossy(const Args& a);

/// One simulated round of sim-hybrid-lossy, as the probe self-test needs
/// it: every member's delivery sequence and every simulated latency.
struct SimTrace {
  std::vector<std::vector<std::uint32_t>> logs;
  std::vector<std::int64_t> latency_ns;
  std::uint64_t failed = 0;
  bool switches_ok = false;
};
SimTrace sim_round_trace(std::uint64_t seed, int sim_seconds, bool probes);

/// Checker and probe self-tests; returns the process exit code.
int run_selftest();

}  // namespace perfbench
