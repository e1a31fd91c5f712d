// Self-tests of the benchmark's own instruments.
//
// Checker: hand-made delivery logs with one dropped, one duplicated, one
// swapped and one corrupted delivery must each fail exactly one operation,
// and clean logs none.
//
// Probes: one round of sim-hybrid-lossy with probes and one without must
// give identical per-member delivery sequences and identical simulated
// latencies — the probes observe and do not steer.
#include <cstdio>
#include <functional>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSenders = 3;
constexpr std::size_t kPerSender = 4;
constexpr std::size_t kMembers = 3;

struct Case {
  const char* name;
  Order order;
  std::uint64_t want_failed;
  /// Edits member logs (sequences of operation indices) before replay;
  /// `corrupt` names an (member, op) whose bytes get one bit flipped.
  std::function<void(std::vector<std::vector<std::uint32_t>>&)> edit;
  int corrupt_member = -1;
  std::uint32_t corrupt_op = 0;
};

bool run_case(const Case& c) {
  Schedule s(kSenders);
  for (std::size_t q = 0; q < kPerSender; ++q) {
    for (std::uint32_t snd = 0; snd < kSenders; ++snd) {
      s.add(snd, static_cast<std::int64_t>(q * 1000 + snd));
    }
  }
  std::vector<std::vector<std::uint32_t>> logs(kMembers);
  for (auto& l : logs) {
    for (std::uint32_t op = 0; op < s.size(); ++op) l.push_back(op);
  }
  if (c.edit) c.edit(logs);

  DeliveryChecker chk(s, kMembers, c.order);
  for (std::size_t m = 0; m < kMembers; ++m) {
    for (const std::uint32_t op : logs[m]) {
      msw::Bytes body = s.payload(op);
      if (static_cast<int>(m) == c.corrupt_member && op == c.corrupt_op) body[8] ^= 0x01;
      chk.on_deliver(m, body, s.op(op).due_ns + 50);
    }
  }
  const DeliveryChecker::Result r = chk.finish();
  const bool ok = r.failed == c.want_failed && r.spurious == 0 && r.attempted == s.size();
  std::fprintf(stderr, "  checker %-22s failed %llu (want %llu)%s%s\n", c.name,
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(c.want_failed), ok ? "" : "  MISMATCH",
               r.notes.empty() ? "" : ("  [" + r.notes.front() + "]").c_str());
  return ok;
}

bool checker_selftest() {
  const std::vector<Case> cases = {
      {"clean fifo", Order::kFifo, 0, nullptr},
      {"clean total", Order::kTotal, 0, nullptr},
      {"dropped", Order::kFifo, 1, [](auto& l) { l[1].erase(l[1].begin() + 5); }},
      {"duplicated", Order::kTotal, 1, [](auto& l) { l[2].insert(l[2].begin() + 9, 3); }},
      // Ops 1 and 4 are sender 1's seq 0 and seq 1.
      {"swapped in sender order", Order::kFifo, 1, [](auto& l) { std::swap(l[0][1], l[0][4]); }},
      // Ops 6 and 7 come from different senders: FIFO holds, total order not.
      {"swapped in total order", Order::kTotal, 1, [](auto& l) { std::swap(l[2][6], l[2][7]); }},
      {"corrupted", Order::kFifo, 1, nullptr, 1, 7},
  };
  bool ok = true;
  for (const Case& c : cases) ok = run_case(c) && ok;
  return ok;
}

bool probe_selftest() {
  constexpr std::uint64_t kSeed = 7;
  constexpr int kSeconds = 6;  // one switch, at 5 s
  const SimTrace plain = sim_round_trace(kSeed, kSeconds, false);
  const SimTrace probed = sim_round_trace(kSeed, kSeconds, true);
  const bool same = plain.logs == probed.logs && plain.latency_ns == probed.latency_ns;
  const bool clean = plain.failed == 0 && plain.switches_ok && !plain.latency_ns.empty();
  std::fprintf(stderr, "  probes: %zu deliveries, sequences and latencies %s, run %s\n",
               plain.latency_ns.size(), same ? "identical" : "DIFFER", clean ? "clean" : "NOT CLEAN");
  return same && clean;
}

}  // namespace

int run_selftest() {
  std::fprintf(stderr, "perfbench self-test\n");
  const bool checker_ok = checker_selftest();
  const bool probe_ok = probe_selftest();
  std::fprintf(stderr, "perfbench self-test %s\n", checker_ok && probe_ok ? "passed" : "FAILED");
  return checker_ok && probe_ok ? 0 : 1;
}

}  // namespace perfbench
