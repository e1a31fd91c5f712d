#include "report.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_metrics(std::FILE* f, const std::vector<Metric>& ms) {
  bool first = true;
  for (const Metric& m : ms) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                 m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

}  // namespace

void print_result(const RunResult& r, bool traced) {
  for (const std::string& n : r.notes) std::fprintf(stderr, "perfbench: %s\n", n.c_str());
  for (const auto* set : {&r.end_to_end, &r.per_layer}) {
    for (const Metric& m : *set) {
      std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(stdout, traced ? r.per_layer : r.end_to_end);
  std::printf("}}\n");
  std::fflush(stdout);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> end_to_end_metrics(double setup_s, double msgs_per_cpu_s, double lat_p50_us,
                                       double peak_rss) {
  return {
      {"setup_s", setup_s, "s"},
      {"msgs_per_cpu_s", msgs_per_cpu_s, "msg/s"},
      {"lat_p50_us", lat_p50_us, "us"},
      {"peak_rss_mib", peak_rss, "MiB"},
  };
}

std::string latency_note(const LatencySummary& lat, const std::vector<double>& late_us) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "latency us: p50 %.1f p90 %.1f p99 %.1f", lat.p50_us,
                lat.p90_us, lat.p99_us);
  std::string out = buf;
  if (!late_us.empty()) {
    std::snprintf(buf, sizeof buf, "; generator late us: p50 %.1f p99 %.1f max %.1f",
                  percentile(late_us, 0.5), percentile(late_us, 0.99), percentile(late_us, 1.0));
    out += buf;
  }
  return out;
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  static const SpanRecorder kEmpty(0);
  const SpanRecorder& rec = in.rec != nullptr ? *in.rec : kEmpty;
  const double msgs = static_cast<double>(in.msgs);
  auto self_per_msg = [&](const char* span) {
    const SpanRecorder::Totals t = rec.totals(span);
    return per(static_cast<double>(t.self_ns), static_cast<double>(t.entry_msgs));
  };
  const SpanRecorder::Totals transport = rec.totals("transport.down");
  const SpanRecorder::Totals send = rec.totals("stack.send");
  const SpanRecorder::Totals sim_run = rec.totals("sim.run");

  return {
      {"rt.shard_cpu_us_per_msg", per(static_cast<double>(in.exec_cpu_ns) / 1e3, msgs), "us"},
      {"rt.send_ns_per_copy",
       per(static_cast<double>(transport.self_ns), static_cast<double>(transport.copies)), "ns"},
      {"rt.recv_residual_ns_per_copy",
       per(static_cast<double>(in.outside_probes_ns), static_cast<double>(in.copies_in)), "ns"},
      {"rt.datagrams_per_msg", per(static_cast<double>(in.datagrams), msgs), "count"},
      {"rt.drops", static_cast<double>(in.drops), "count"},
      {"rt.wakeups_per_msg", per(static_cast<double>(in.wakeups), msgs), "count"},
      {"rt.inbox_hwm", static_cast<double>(in.inbox_hwm), "count"},
      {"rt.loop_lag_p99_us", in.loop_lag_p99_us, "us"},
      {"rt.handoff_p50_us", in.handoff_p50_us, "us"},
      {"stack.send_ns_per_msg",
       per(static_cast<double>(send.total_ns), static_cast<double>(send.entry_msgs)), "ns"},
      {"stack.header_bytes_per_msg", per(static_cast<double>(transport.header_bytes), msgs), "B"},
      {"app.up_ns", self_per_msg("app.up"), "ns"},
      {"fifo.down_ns", self_per_msg("fifo.down"), "ns"},
      {"fifo.up_ns", self_per_msg("fifo.up"), "ns"},
      {"reliable.down_ns", self_per_msg("reliable.down"), "ns"},
      {"reliable.up_ns", self_per_msg("reliable.up"), "ns"},
      {"reliable.ctrl_frames_per_msg", per(static_cast<double>(in.reliable_ctrl_frames), msgs),
       "count"},
      {"reliable.retransmits_per_kmsg",
       per(1e3 * static_cast<double>(in.reliable_retransmits), msgs), "count"},
      {"sequencer.down_ns", self_per_msg("sequencer.down"), "ns"},
      {"sequencer.up_ns", self_per_msg("sequencer.up"), "ns"},
      {"token.down_ns", self_per_msg("token.down"), "ns"},
      {"token.up_ns", self_per_msg("token.up"), "ns"},
      {"sequencer.gap_nacks_per_kmsg",
       per(1e3 * static_cast<double>(in.sequencer_gap_nacks), msgs), "count"},
      {"token.retransmits_per_kmsg", per(1e3 * static_cast<double>(in.token_retransmits), msgs),
       "count"},
      {"token.visits_per_msg", per(static_cast<double>(in.token_visits), msgs), "count"},
      {"switch.down_ns", self_per_msg("switch.down"), "ns"},
      {"switch.up_ns", self_per_msg("switch.up"), "ns"},
      {"switch.token_hops_per_msg", per(static_cast<double>(in.switch_token_hops), msgs),
       "count"},
      {"switch.buffered_max", static_cast<double>(in.switch_buffered_max), "count"},
      {"switch.local_switch_us", in.local_switch_us, "us"},
      {"switch.switch_us", in.switch_us, "us"},
      {"sim.run_ns_per_delivery",
       per(static_cast<double>(sim_run.total_ns), static_cast<double>(in.deliveries)), "ns"},
      {"sim.residual_ns_per_delivery",
       per(static_cast<double>(sim_run.self_ns), static_cast<double>(in.deliveries)), "ns"},
      {"net.packets_per_msg", per(static_cast<double>(in.net_packets), msgs), "count"},
      {"gen.late_p99_us", in.gen_late_p99_us, "us"},
  };
}

}  // namespace perfbench
