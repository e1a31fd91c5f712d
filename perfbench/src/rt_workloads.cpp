// The two real-runtime workloads: udp-fanout32 and loopback-hybrid-switch.
//
// Threads: the executor's one shard runs every stack; the calling thread
// is the open-loop generator. It sleeps until each send is due, spins the
// last stretch (timer slack would otherwise add tens of µs to every
// latency), and posts the send to the shard. Each send records when the
// shard began it: latency is timed from there to delivery, and the handoff
// from the due time to that start (generator lateness, inbox wait, waking
// the shard) is reported beside it.
#include <time.h>

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "rt/executor.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/rt_group.hpp"
#include "rt/stats/stats_plane.hpp"
#include "rt/udp_transport.hpp"
#include "stacks.hpp"
#include "switch/hybrid.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct RtSpec {
  bool udp = false;
  std::size_t members = 0;
  bool hybrid = false;
  std::size_t batch = 1;              // messages per send call
  std::int64_t period_ns = 0;         // between send calls
  std::int64_t switch_every_ns = 0;   // 0: no switches
};

constexpr int kSetups = 31;  // setup_s is their median
constexpr std::int64_t kLeadNs = 20'000'000;     // wiring to first send
constexpr std::int64_t kSpinNs = 80'000;         // generator spins this close to a due time
constexpr std::int64_t kDrainLimitNs = 10'000'000'000;

void sleep_until(std::int64_t t) {
  if (t - mono_ns() > kSpinNs) {
    const std::int64_t wake = t - kSpinNs;
    const timespec ts{static_cast<time_t>(wake / 1000000000), static_cast<long>(wake % 1000000000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
  }
  while (mono_ns() < t) {
  }
}

/// Executor, transport and group of one setup. Declared in construction
/// order; the destructor stops the shard before anything it uses goes.
struct Rig {
  Rig() = default;
  ~Rig() {
    if (ex) ex->stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  std::unique_ptr<msw::Executor> ex;
  std::unique_ptr<msw::ThreadedTransport> transport;
  std::unique_ptr<msw::RtGroup> group;
  std::unique_ptr<msw::RtStatsPlane> stats;  // traced runs only
};

std::unique_ptr<Rig> make_rig(const RtSpec& s, std::uint64_t seed, SpanRecorder* rec) {
  auto rig = std::make_unique<Rig>();
  rig->ex = std::make_unique<msw::Executor>(1);
  if (s.udp) {
    rig->transport = std::make_unique<msw::UdpTransport>(*rig->ex);
  } else {
    rig->transport = std::make_unique<msw::LoopbackTransport>(*rig->ex);
  }
  msw::LayerFactory factory;
  if (rec != nullptr) {
    factory = s.hybrid ? traced_hybrid_factory(*rec) : traced_reliable_fifo_factory(*rec);
  } else {
    factory = s.hybrid ? msw::make_hybrid_total_order_factory() : msw::make_reliable_fifo_factory();
  }
  rig->group = std::make_unique<msw::RtGroup>(*rig->transport, s.members, factory, 0,
                                              /*capture_trace=*/false, nullptr, seed);
  if (rec != nullptr) rig->stats = std::make_unique<msw::RtStatsPlane>(*rig->ex, rig->transport.get());
  rig->ex->start();
  if (rig->stats) rig->stats->start();
  rig->group->start();
  return rig;
}

/// One generator step: a send call or a switch request.
struct Event {
  std::int64_t due_ns = 0;  // after the time origin
  bool is_switch = false;
  std::uint32_t member = 0;
  std::uint32_t first_op = 0;  // sends: schedule index of the first message
  std::uint32_t ops = 0;
};

/// Shard snapshot at the edges of the measured window.
struct Window {
  std::int64_t shard_cpu_ns = 0;
  std::uint64_t sent = 0, delivered = 0, dropped = 0;
  std::uint64_t wakeups = 0;
  StackCounters stacks;
};

class RtRun {
 public:
  RtRun(const RtSpec& spec, const Args& args) : spec_(spec), args_(args) {}

  RunResult run();

 private:
  void build_schedule();
  void poll_switch(std::size_t k);
  Window snapshot();

  const RtSpec spec_;
  const Args args_;
  Schedule schedule_{0};
  std::vector<Event> events_;
  std::unique_ptr<SpanRecorder> rec_;
  std::unique_ptr<Rig> rig_;
  std::vector<msw::SwitchLayer*> switch_layers_;
  std::vector<SwitchWatch> watches_;  // shard thread only
  std::vector<double> local_switch_us_;
  std::atomic<std::size_t> switches_done_{0};
  /// When the shard began each operation's send, after the time origin.
  std::vector<std::int64_t> start_ns_;
};

void RtRun::build_schedule() {
  const std::size_t n = spec_.members;
  schedule_ = Schedule(n);
  // The seed picks where the round-robin starts and which member
  // initiates each switch; the load itself is fixed.
  const std::size_t send_offset = args_.seed % n;
  const std::size_t switch_offset = (args_.seed / n) % n;
  const std::int64_t end = static_cast<std::int64_t>(args_.seconds) * 1'000'000'000;
  for (std::int64_t j = 0; j * spec_.period_ns < end; ++j) {
    Event e;
    e.due_ns = j * spec_.period_ns;
    e.member = static_cast<std::uint32_t>((send_offset + static_cast<std::size_t>(j)) % n);
    e.first_op = static_cast<std::uint32_t>(schedule_.size());
    e.ops = static_cast<std::uint32_t>(spec_.batch);
    for (std::size_t b = 0; b < spec_.batch; ++b) schedule_.add(e.member, e.due_ns);
    events_.push_back(e);
  }
  if (spec_.switch_every_ns > 0) {
    std::vector<Event> merged;
    std::size_t k = 0;
    for (std::int64_t t = spec_.switch_every_ns; t < end; t += spec_.switch_every_ns, ++k) {
      Event e;
      e.due_ns = t;
      e.is_switch = true;
      e.member = static_cast<std::uint32_t>((switch_offset + k) % n);
      e.first_op = static_cast<std::uint32_t>(k);  // index of its SwitchWatch
      merged.push_back(e);
    }
    watches_.resize(merged.size());
    merged.insert(merged.end(), events_.begin(), events_.end());
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Event& a, const Event& b) { return a.due_ns < b.due_ns; });
    events_ = std::move(merged);
  }
}

void RtRun::poll_switch(std::size_t k) {
  if (watches_[k].poll(switch_layers_, k, mono_ns(), local_switch_us_)) {
    switches_done_.fetch_add(1, std::memory_order_release);
    return;
  }
  // Re-check after the work queued behind this poll: the shard stays
  // responsive and the switchover is seen within one pass of its inbox.
  rig_->group->post([this, k] { poll_switch(k); });
}

Window RtRun::snapshot() {
  Window w;
  rig_->group->call([&] {
    w.shard_cpu_ns = thread_cpu_ns();
    for (std::size_t i = 0; i < spec_.members; ++i) w.stacks.add(rig_->group->stack(i), rec_ != nullptr);
  });
  w.sent = rig_->transport->packets_sent();
  w.delivered = rig_->transport->packets_delivered();
  w.dropped = rig_->transport->packets_dropped();
  if (rig_->stats) {
    const auto snaps = rig_->stats->collect();
    if (const auto* s = snaps.at(0).find_scalar("rt.loop.wakeups")) w.wakeups = s->value;
  }
  return w;
}

RunResult RtRun::run() {
  if (spec_.udp && !msw::UdpTransport::available()) {
    throw std::runtime_error("UDP sockets on 127.0.0.1 are unavailable");
  }
  const std::size_t n = spec_.members;
  if (args_.trace) rec_ = std::make_unique<SpanRecorder>();
  // Interned before any shard runs: id() may grow the recorder's tables,
  // which the shard reads while it traces.
  const std::uint32_t send_id = rec_ ? rec_->id("stack.send") : 0;

  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    rig_.reset();
    const std::int64_t t = process_cpu_ns();
    rig_ = make_rig(spec_, args_.seed, rec_.get());
    setup_s.push_back(static_cast<double>(process_cpu_ns() - t) / 1e9);
  }

  build_schedule();
  DeliveryChecker checker(schedule_, n, spec_.hybrid ? Order::kTotal : Order::kFifo);
  start_ns_.assign(schedule_.size(), 0);

  const std::int64_t t0 = mono_ns() + kLeadNs;
  msw::RtGroup& group = *rig_->group;
  group.call([&] {
    for (std::size_t i = 0; i < n; ++i) {
      msw::Stack& s = group.stack(i);
      s.set_on_deliver([&checker, i, t0](const msw::MsgId& id, std::span<const Byte> body) {
        if (id.kind == msw::MsgId::Kind::kData) checker.on_deliver(i, body, mono_ns() - t0);
      });
      if (spec_.hybrid) switch_layers_.push_back(find_layer<msw::SwitchLayer>(s));
    }
  });

  if (rec_) group.call([&] { rec_->reset_totals(); });
  const Window before = snapshot();

  sleep_until(t0);
  const std::int64_t proc0 = process_cpu_ns();
  const std::int64_t gen0 = thread_cpu_ns();
  std::vector<double> late_us;
  late_us.reserve(events_.size());
  for (const Event& e : events_) {
    const std::int64_t due = t0 + e.due_ns;
    sleep_until(due);
    late_us.push_back(static_cast<double>(mono_ns() - due) / 1e3);
    if (e.is_switch) {
      group.post([this, m = e.member, k = e.first_op] {
        watches_[k].requested = mono_ns();
        switch_layers_[m]->request_switch();
        poll_switch(k);
      });
      continue;
    }
    std::vector<msw::Bytes> bodies;
    bodies.reserve(e.ops);
    for (std::uint32_t i = 0; i < e.ops; ++i) bodies.push_back(schedule_.payload(e.first_op + i));
    // What RtGroup::send/send_batch post, plus the time the shard starts
    // the send (and, traced, a span around the Stack call).
    group.post([this, &group, t0, send_id, m = e.member, first = e.first_op,
                bodies = std::move(bodies)]() mutable {
      const std::int64_t start = mono_ns() - t0;
      for (std::size_t i = 0; i < bodies.size(); ++i) start_ns_[first + i] = start;
      std::optional<ScopedSpan> span;
      if (rec_) span.emplace(*rec_, send_id, static_cast<std::uint32_t>(bodies.size()), true);
      if (bodies.size() == 1) {
        group.stack(m).send(std::move(bodies[0]));
      } else {
        group.stack(m).send_batch(std::move(bodies));
      }
    });
  }
  sleep_until(t0 + static_cast<std::int64_t>(args_.seconds) * 1'000'000'000);
  const std::int64_t proc_cpu = process_cpu_ns() - proc0;
  const std::int64_t gen_cpu = thread_cpu_ns() - gen0;

  const std::int64_t drain_deadline = mono_ns() + kDrainLimitNs;
  while (mono_ns() < drain_deadline &&
         (checker.delivered() < checker.expected() ||
          switches_done_.load(std::memory_order_acquire) < watches_.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::unique_ptr<SpanRecorder> spans;
  if (rec_) group.call([&] { spans = std::make_unique<SpanRecorder>(*rec_); });
  const Window after = snapshot();
  double loop_lag_p99_us = 0;
  std::uint64_t inbox_hwm = 0;
  if (rig_->stats) {
    const auto snaps = rig_->stats->collect();
    if (const auto* h = snaps.at(0).find_hist("rt.loop.lag_us")) loop_lag_p99_us = h->p99;
    if (const auto* s = snaps.at(0).find_scalar("rt.loop.inbox_hwm")) inbox_hwm = s->value;
  }
  rig_.reset();  // stops the shard: its state is ours to read from here on

  DeliveryChecker::Result cr = checker.finish();
  RunResult res;
  res.attempted = cr.attempted;
  res.failed = cr.failed;
  res.notes = cr.notes;
  if (cr.spurious != 0) {
    res.correct = false;
    res.notes.push_back(std::to_string(cr.spurious) + " deliveries of messages never sent");
  }
  if (const std::string shortfall = after.stacks.switch_shortfall(watches_.size());
      !shortfall.empty()) {
    res.correct = false;
    res.notes.push_back(shortfall);
  }

  // The gated latency starts when the shard begins the send. The handoff
  // before it (generator lateness, inbox wait, waking an idle shard) is
  // reported apart: on a virtual machine whose CPUs the host also
  // schedules, waking an idle shard costs a varying 50-150 µs, which makes
  // a due-time median move by a quarter between runs of unchanged code.
  const LatencySummary lat = summarize_latency(schedule_, cr, &start_ns_);
  const LatencySummary due_lat = summarize_latency(schedule_, cr);
  std::vector<double> handoff_us(schedule_.size());
  for (std::uint32_t op = 0; op < schedule_.size(); ++op) {
    handoff_us[op] = static_cast<double>(start_ns_[op] - schedule_.op(op).due_ns) / 1e3;
  }
  res.notes.push_back("from the due time, " + latency_note(due_lat, late_us));
  res.notes.push_back("from the send start, " + latency_note(lat, {}));
  const double msgs = static_cast<double>(schedule_.size());
  const double cpu_s = static_cast<double>(proc_cpu - gen_cpu) / 1e9;
  res.end_to_end = end_to_end_metrics(median(setup_s), cpu_s > 0 ? msgs / cpu_s : 0, lat.p50_us,
                                      peak_rss_mib());

  if (rec_) {
    std::vector<double> switch_us;
    for (const SwitchWatch& w : watches_) {
      switch_us.push_back(static_cast<double>(w.last_done - w.requested) / 1e3);
    }
    const StackCounters d = after.stacks.since(before.stacks);
    LayerInputs in;
    in.rec = spans.get();
    in.msgs = schedule_.size();
    in.deliveries = schedule_.size() * n;
    in.copies_in = after.delivered - before.delivered;
    in.exec_cpu_ns = after.shard_cpu_ns - before.shard_cpu_ns;
    in.outside_probes_ns = in.exec_cpu_ns - spans->root_ns();
    in.datagrams = after.sent - before.sent;
    in.drops = after.dropped - before.dropped;
    in.wakeups = after.wakeups - before.wakeups;
    in.inbox_hwm = inbox_hwm;
    in.loop_lag_p99_us = loop_lag_p99_us;
    if (!spec_.hybrid) {
      const SpanRecorder::Totals bottom = spans->totals("transport.down");
      in.reliable_ctrl_frames = bottom.entry_msgs - bottom.data_frames;
    }
    in.reliable_retransmits = d.reliable_retransmits;
    in.sequencer_gap_nacks = d.sequencer_gap_nacks;
    in.token_retransmits = d.token_retransmits;
    in.token_visits = d.token_visits;
    in.switch_token_hops = d.switch_token_hops;
    in.switch_buffered_max = d.switch_buffered_max;
    in.local_switch_us = median(local_switch_us_);
    in.switch_us = median(switch_us);
    in.gen_late_p99_us = percentile(late_us, 0.99);
    in.handoff_p50_us = percentile(handoff_us, 0.5);
    res.per_layer = layer_metrics(in);
    if (!args_.trace_out.empty() && !spans->write_chrome_trace(args_.trace_out)) {
      res.notes.push_back("could not write " + args_.trace_out);
    }
  }
  return res;
}

}  // namespace

RunResult run_udp_fanout32(const Args& a) {
  RtSpec s;
  s.udp = true;
  s.members = 32;
  s.batch = 1;
  s.period_ns = 1'000'000;  // 1000 multicasts/s
  return RtRun(s, a).run();
}

RunResult run_loopback_hybrid_switch(const Args& a) {
  RtSpec s;
  s.members = 8;
  s.hybrid = true;
  s.batch = 8;
  s.period_ns = 4'000'000;  // 250 batches/s = 2000 multicasts/s
  s.switch_every_ns = 250'000'000;
  return RtRun(s, a).run();
}

}  // namespace perfbench
