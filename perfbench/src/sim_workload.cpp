// sim-hybrid-lossy: the hybrid stack with 12 members in the deterministic
// simulator, under 1% loss, 1% duplication and 2% reordering, no crashes.
//
// One thread runs the scheduler, the network, the fault plane and every
// layer. A round is one seeded scenario of fixed simulated length; a run
// repeats the same round until its wall-clock budget is spent, so every
// run attempts whole rounds of the same operations and the simulated
// latencies of a seed repeat exactly.
#include <memory>
#include <optional>

#include "net/fault.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "stacks.hpp"
#include "switch/hybrid.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMembers = 12;
constexpr std::size_t kBatch = 4;                     // messages per send call
constexpr msw::Duration kTick = msw::kMillisecond;    // between send calls
constexpr msw::Duration kSwitchEvery = 5 * msw::kSecond;
constexpr msw::Time kStart = 100 * msw::kMillisecond;
constexpr int kRoundSeconds = 20;                     // simulated, per round
constexpr msw::Duration kDrainLimit = 30 * msw::kSecond;
constexpr msw::Duration kDrainStep = 10 * msw::kMillisecond;
constexpr msw::Duration kSwitchPoll = 20 * msw::kMicrosecond;
constexpr int kSetups = 61;  // setup_s is their median

msw::NetConfig net_config() {
  // A LAN whose processing costs are not modelled: the cost measured is
  // that of the code, and the losses come from the network and the plane.
  msw::NetConfig nc;
  nc.base_latency = 1 * msw::kMillisecond;
  nc.jitter = 500 * msw::kMicrosecond;
  nc.loopback_latency = 20 * msw::kMicrosecond;
  nc.cpu_send = 0;
  nc.cpu_recv = 0;
  nc.bandwidth_bps = 0;
  nc.wire_overhead_bytes = 0;
  nc.loss = 0.01;
  return nc;
}

msw::FaultSchedule fault_schedule() {
  msw::FaultSchedule fs;
  fs.dup_prob = 0.01;
  fs.reorder_prob = 0.02;
  return fs;
}

/// Simulator, network, fault plane and group of one round.
struct SimRig {
  SimRig(std::uint64_t seed, SpanRecorder* rec)
      : sim(seed),
        net(sim.scheduler(), sim.fork_rng(), net_config()),
        plane(net, sim.fork_rng(), fault_schedule()),
        group(sim, net, kMembers,
              rec != nullptr ? traced_hybrid_factory(*rec) : msw::make_hybrid_total_order_factory(),
              /*capture_trace=*/false) {
    plane.install();
    group.start();
  }

  msw::Simulation sim;
  msw::Network net;
  msw::FaultPlane plane;
  msw::Group group;
};

struct RoundOut {
  DeliveryChecker::Result check;
  LatencySummary lat;  // simulated time
  std::vector<std::vector<std::uint32_t>> logs;
  std::int64_t cpu_ns = 0;
  std::uint64_t msgs = 0;
  std::string switch_shortfall;  // empty when every member switched as asked
  std::vector<double> switch_us;        // request to last switchover, simulated
  std::vector<double> local_switch_us;  // member-side, simulated
  StackCounters stacks;
  msw::NetStats net;
};

class Round {
 public:
  Round(std::uint64_t seed, int sim_seconds, SpanRecorder* rec)
      : seed_(seed), sim_seconds_(sim_seconds), rec_(rec) {}

  RoundOut run();

 private:
  void run_until(msw::Time t);
  void poll_switch(std::size_t k);

  std::uint64_t seed_;
  int sim_seconds_;
  SpanRecorder* rec_;
  std::unique_ptr<SimRig> rig_;
  std::vector<msw::SwitchLayer*> switch_layers_;
  std::vector<SwitchWatch> watches_;
  std::size_t switches_done_ = 0;
  std::vector<double> local_switch_us_;
};

void Round::run_until(msw::Time t) {
  if (rec_ == nullptr) {
    rig_->sim.run_until(t);
    return;
  }
  ScopedSpan span(*rec_, rec_->id("sim.run"), 0, false);
  rig_->sim.run_until(t);
}

void Round::poll_switch(std::size_t k) {
  if (watches_[k].poll(switch_layers_, k, rig_->sim.now(), local_switch_us_)) {
    ++switches_done_;
    return;
  }
  rig_->sim.scheduler().after(kSwitchPoll, [this, k] { poll_switch(k); });
}

RoundOut Round::run() {
  // The seed picks the scenario: network and fault draws, where the
  // round-robin starts and which member initiates each switch.
  const std::size_t send_offset = seed_ % kMembers;
  const std::size_t switch_offset = (seed_ / kMembers) % kMembers;
  const msw::Time end = kStart + static_cast<msw::Time>(sim_seconds_) * msw::kSecond;

  Schedule schedule(kMembers);
  for (msw::Time t = kStart; t < end; t += kTick) {
    const auto member = static_cast<std::uint32_t>((send_offset + (t - kStart) / kTick) % kMembers);
    for (std::size_t b = 0; b < kBatch; ++b) schedule.add(member, t * 1000);
  }
  for (msw::Time t = kStart + kSwitchEvery; t < end; t += kSwitchEvery) watches_.emplace_back();

  rig_ = std::make_unique<SimRig>(seed_, rec_);
  DeliveryChecker checker(schedule, kMembers, Order::kTotal);
  msw::Simulation& sim = rig_->sim;
  for (std::size_t i = 0; i < kMembers; ++i) {
    msw::Stack& s = rig_->group.stack(i);
    s.set_on_deliver([&checker, &sim, i](const msw::MsgId& id, std::span<const Byte> body) {
      if (id.kind == msw::MsgId::Kind::kData) checker.on_deliver(i, body, sim.now() * 1000);
    });
    switch_layers_.push_back(find_layer<msw::SwitchLayer>(s));
  }

  const std::uint32_t send_id = rec_ != nullptr ? rec_->id("stack.send") : 0;
  const std::int64_t cpu0 = thread_cpu_ns();
  std::uint32_t op = 0;
  std::size_t next_switch = 0;
  for (msw::Time t = kStart; t < end; t += kTick) {
    run_until(t);
    if (next_switch < watches_.size() &&
        t == kStart + static_cast<msw::Time>(next_switch + 1) * kSwitchEvery) {
      const std::size_t k = next_switch++;
      watches_[k].requested = t;
      switch_layers_[(switch_offset + k) % kMembers]->request_switch();
      poll_switch(k);
    }
    std::vector<msw::Bytes> bodies;
    bodies.reserve(kBatch);
    for (std::size_t b = 0; b < kBatch; ++b) bodies.push_back(schedule.payload(op++));
    const std::uint32_t sender = schedule.op(op - 1).sender;
    if (rec_ != nullptr) {
      ScopedSpan span(*rec_, send_id, static_cast<std::uint32_t>(kBatch), true);
      rig_->group.send_batch(sender, std::move(bodies));
    } else {
      rig_->group.send_batch(sender, std::move(bodies));
    }
  }
  auto settled = [&] {
    return switches_done_ == watches_.size() && checker.delivered() >= checker.expected();
  };
  const msw::Time drain_end = end + kDrainLimit;
  while (!settled() && sim.now() < drain_end) run_until(sim.now() + kDrainStep);

  RoundOut out;
  out.cpu_ns = thread_cpu_ns() - cpu0;
  out.msgs = schedule.size();
  for (std::size_t i = 0; i < kMembers; ++i) {
    out.stacks.add(rig_->group.stack(i), rec_ != nullptr);
    out.logs.push_back(checker.log(i));
  }
  out.switch_shortfall = out.stacks.switch_shortfall(watches_.size());
  for (const SwitchWatch& w : watches_) out.switch_us.push_back(static_cast<double>(w.last_done - w.requested));
  out.local_switch_us = local_switch_us_;
  out.net = rig_->net.stats();
  out.check = checker.finish();
  out.lat = summarize_latency(schedule, out.check);
  return out;
}

}  // namespace

SimTrace sim_round_trace(std::uint64_t seed, int sim_seconds, bool probes) {
  SpanRecorder rec(0);
  RoundOut r = Round(seed, sim_seconds, probes ? &rec : nullptr).run();
  SimTrace t;
  t.logs = std::move(r.logs);
  t.latency_ns = std::move(r.check.latency_ns);
  t.failed = r.check.failed;
  t.switches_ok = r.switch_shortfall.empty();
  return t;
}

RunResult run_sim_hybrid_lossy(const Args& a) {
  std::unique_ptr<SpanRecorder> rec;
  if (a.trace) rec = std::make_unique<SpanRecorder>();

  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t = process_cpu_ns();
    auto rig = std::make_unique<SimRig>(a.seed, nullptr);
    setup_s.push_back(static_cast<double>(process_cpu_ns() - t) / 1e9);
  }

  // Round 0 is kept whole; every later round is compared with it and
  // dropped, so memory does not grow with the number of rounds.
  RunResult res;
  std::optional<RoundOut> first;
  std::size_t rounds = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t msgs = 0;
  LayerInputs in;
  const std::int64_t budget_end = mono_ns() + static_cast<std::int64_t>(a.seconds) * 1'000'000'000;
  do {
    RoundOut r = Round(a.seed, kRoundSeconds, rec.get()).run();
    ++rounds;
    cpu_ns += r.cpu_ns;
    msgs += r.msgs;
    in.copies_in += r.net.copies_delivered;
    in.datagrams += r.net.copies_delivered + r.net.copies_dropped_loss + r.net.copies_dropped_fault;
    in.drops += r.net.copies_dropped_loss + r.net.copies_dropped_fault;
    in.net_packets += r.net.unicasts_sent + r.net.multicasts_sent;
    in.sequencer_gap_nacks += r.stacks.sequencer_gap_nacks;
    in.token_retransmits += r.stacks.token_retransmits;
    in.token_visits += r.stacks.token_visits;
    in.switch_token_hops += r.stacks.switch_token_hops;
    in.switch_buffered_max = std::max(in.switch_buffered_max, r.stacks.switch_buffered_max);
    res.attempted += r.check.attempted;
    res.failed += r.check.failed;
    for (const std::string& n : r.check.notes) res.notes.push_back(n);
    if (r.check.spurious != 0) {
      res.correct = false;
      res.notes.push_back(std::to_string(r.check.spurious) + " deliveries of messages never sent");
    }
    if (!r.switch_shortfall.empty()) {
      res.correct = false;
      res.notes.push_back(r.switch_shortfall);
    }
    if (!first) {
      first = std::move(r);
    } else if (r.logs != first->logs || r.check.latency_ns != first->check.latency_ns) {
      // Same seed, same round: a difference is a determinism fault.
      res.correct = false;
      res.notes.push_back("round " + std::to_string(rounds - 1) + " differs from round 0");
    }
  } while (mono_ns() < budget_end);

  res.end_to_end = end_to_end_metrics(
      median(setup_s), cpu_ns > 0 ? static_cast<double>(msgs) / (static_cast<double>(cpu_ns) / 1e9) : 0,
      first->lat.p50_us, peak_rss_mib());
  res.notes.push_back(latency_note(first->lat, {}));
  res.notes.push_back(std::to_string(rounds) + " rounds of " + std::to_string(kRoundSeconds) +
                      " simulated seconds");

  if (rec) {
    in.rec = rec.get();
    in.msgs = msgs;
    in.deliveries = msgs * kMembers;
    in.exec_cpu_ns = cpu_ns;
    in.outside_probes_ns = rec->totals("sim.run").self_ns;
    in.local_switch_us = median(first->local_switch_us);
    in.switch_us = median(first->switch_us);
    res.per_layer = layer_metrics(in);
    if (!a.trace_out.empty() && !rec->write_chrome_trace(a.trace_out)) {
      res.notes.push_back("could not write " + a.trace_out);
    }
  }
  return res;
}

}  // namespace perfbench
