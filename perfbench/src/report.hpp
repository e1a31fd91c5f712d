// Metric names, the result line, and the measurement helpers the
// workloads share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker.hpp"
#include "probe.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // filled by traced runs only
  std::vector<std::string> notes; // diagnostics for stderr
};

/// Prints the metrics of one run: both sets to stderr, then the result
/// line (end-to-end metrics, or per-layer ones when `traced`) as the last
/// line of stdout.
void print_result(const RunResult& r, bool traced);

// --- measurement helpers ---------------------------------------------------

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();
double peak_rss_mib();

/// Everything a traced run feeds into the per-layer metrics. A field a
/// workload cannot measure stays zero, and so does every metric of a layer
/// its stack does not contain.
struct LayerInputs {
  const SpanRecorder* rec = nullptr;
  std::uint64_t msgs = 0;          // multicasts sent (operations)
  std::uint64_t deliveries = 0;    // application deliveries, all members
  std::uint64_t copies_in = 0;     // datagrams/packets received, all members
  std::int64_t exec_cpu_ns = 0;    // CPU of the thread running the stacks
  std::int64_t outside_probes_ns = 0;  // that CPU outside every probe span
  std::uint64_t datagrams = 0;     // transport copies sent
  std::uint64_t drops = 0;         // transport copies dropped
  std::uint64_t wakeups = 0;       // event-loop wakeups (rt)
  std::uint64_t inbox_hwm = 0;
  double loop_lag_p99_us = 0;
  std::uint64_t reliable_ctrl_frames = 0;
  std::uint64_t reliable_retransmits = 0;
  std::uint64_t sequencer_gap_nacks = 0;
  std::uint64_t token_retransmits = 0;
  std::uint64_t token_visits = 0;
  std::uint64_t switch_token_hops = 0;
  std::uint64_t switch_buffered_max = 0;
  double local_switch_us = 0;      // median member-side switch duration
  double switch_us = 0;            // median request-to-last-switchover
  std::uint64_t net_packets = 0;   // simulated network sends
  double gen_late_p99_us = 0;
  double handoff_p50_us = 0;       // due time to the shard starting the send
};

/// The per-layer metrics, always the same names in the same order.
std::vector<Metric> layer_metrics(const LayerInputs& in);

/// The end-to-end metrics, always the same names in the same order.
std::vector<Metric> end_to_end_metrics(double setup_s, double msgs_per_cpu_s, double lat_p50_us,
                                       double peak_rss);

/// One stderr line with the latency quantiles that are not gated (see
/// perfbench/README.md) and how late the generator ran.
std::string latency_note(const LatencySummary& lat, const std::vector<double>& late_us);

}  // namespace perfbench
