// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out F]
//   perfbench --selftest
//
// Workloads: udp-fanout32, loopback-hybrid-switch, sim-hybrid-lossy. Each
// run prints its metrics on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload udp-fanout32|loopback-hybrid-switch|sim-hybrid-lossy\n"
               "                 --seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--selftest") {
      selftest = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::atoi(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) != "0";
    } else if (k == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) return run_selftest();
  if (a.seconds < 1) return usage();

  try {
    RunResult r;
    if (a.workload == "udp-fanout32") {
      r = run_udp_fanout32(a);
    } else if (a.workload == "loopback-hybrid-switch") {
      r = run_loopback_hybrid_switch(a);
    } else if (a.workload == "sim-hybrid-lossy") {
      r = run_sim_hybrid_lossy(a);
    } else {
      return usage();
    }
    print_result(r, a.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
