#include "switch/switch_layer.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace msw {
namespace {

// Mux channels (Figure 1: each protocol, and SP itself, gets a private
// channel over the shared endpoint).
constexpr std::uint16_t kChanProtoA = 0;
constexpr std::uint16_t kChanProtoB = 1;
constexpr std::uint16_t kChanControl = 2;

// SP data-path header type.
enum class DataType : std::uint8_t { kData = 0, kPass = 1 };

// SP control-channel message type.
enum class CtlType : std::uint8_t { kToken = 0, kAck = 1 };

}  // namespace

SwitchLayer::SwitchLayer(std::vector<std::unique_ptr<Layer>> proto_a,
                         std::vector<std::unique_ptr<Layer>> proto_b,
                         std::unique_ptr<Oracle> oracle, SwitchConfig cfg)
    : cfg_(cfg),
      oracle_(std::move(oracle)),
      layers_a_(std::move(proto_a)),
      layers_b_(std::move(proto_b)),
      epoch_(cfg.initial_epoch) {}

SwitchLayer::~SwitchLayer() = default;

void SwitchLayer::start() {
  Services* services = ctx().services();
  tr_ = &services->tracer();
  tr_->set_epoch(epoch_);
  n_sp_switch_ = tr_->intern("sp.switch");
  n_rot_prepare_ = tr_->intern("sp.rotation.prepare");
  n_rot_switch_ = tr_->intern("sp.rotation.switch");
  n_rot_flush_ = tr_->intern("sp.rotation.flush");
  n_local_ = tr_->intern("sp.switch.local");
  n_ph_prepare_ = tr_->intern("sp.phase.prepare");
  n_ph_drain_ = tr_->intern("sp.phase.drain");
  n_ph_release_ = tr_->intern("sp.phase.release");
  n_tok_forward_ = tr_->intern("sp.token.forward");
  n_tok_retx_ = tr_->intern("sp.token.retransmit");
  n_stale_ = tr_->intern("sp.stale_drop");
  n_buf_ = tr_->intern("sp.buffer.enqueue");
  n_epoch_install_ = tr_->intern("sp.epoch.install");
  if (MetricsRegistry* reg = services->metrics()) {
    reg->attach_counter("sp.switches_completed", &stats_.switches_completed);
    reg->attach_counter("sp.switches_initiated", &stats_.switches_initiated);
    reg->attach_counter("sp.token_hops", &stats_.token_hops);
    reg->attach_counter("sp.token_retransmissions", &stats_.token_retransmissions);
    reg->attach_counter("sp.stale_dropped", &stats_.stale_dropped);
    reg->attach_counter("sp.max_buffered", &stats_.max_buffered);
  }
  chain_a_ = std::make_unique<LayerChain>(
      *services, std::move(layers_a_),
      [this](Message m) {
        Mux::push(m, kChanProtoA);
        ctx().send_down(std::move(m));
      },
      [this](Message m) { on_subprotocol_deliver(0, std::move(m)); },
      [this](MessageBatch b) {
        for (Message& m : b) Mux::push(m, kChanProtoA);
        ctx().send_down(std::move(b));
      },
      [this](MessageBatch b) {
        for (Message& m : b) on_subprotocol_deliver(0, std::move(m));
      });
  chain_b_ = std::make_unique<LayerChain>(
      *services, std::move(layers_b_),
      [this](Message m) {
        Mux::push(m, kChanProtoB);
        ctx().send_down(std::move(m));
      },
      [this](Message m) { on_subprotocol_deliver(1, std::move(m)); },
      [this](MessageBatch b) {
        for (Message& m : b) Mux::push(m, kChanProtoB);
        ctx().send_down(std::move(b));
      },
      [this](MessageBatch b) {
        for (Message& m : b) on_subprotocol_deliver(1, std::move(m));
      });
  chain_a_->start();
  chain_b_->start();

  // Seed the dwell clock: "time since last switch" is measured from layer
  // start until the first real switch. Without this the first consult sees
  // since_last_switch == now, which under a nonzero time base (wall-clock
  // runtime, delayed group start) vacuously satisfies any dwell guard.
  last_switch_time_ = ctx().now();
  oracle_->attach(*services);

  if (ctx().self_index() == 0) {
    // Originate the perpetually-circulating NORMAL token.
    Token t;
    t.mode = TokenMode::kNormal;
    t.serial = 1;
    t.epoch = epoch_;
    last_serial_seen_ = 1;
    handle_token(std::move(t));
  }
}

Layer& SwitchLayer::sub_layer(int protocol, std::size_t i) {
  return chain(protocol).layer(i);
}

// --------------------------------------------------------------------------
// Telemetry helpers: rotation spans on the control track, phase spans on
// the data track. Both tracks keep strict begin/end nesting so the Chrome
// exporter renders them as clean nested slices.
// --------------------------------------------------------------------------

void SwitchLayer::trace_rotation(std::uint32_t name, std::uint64_t arg) {
  if (open_rotation_ != 0) {
    tr_->end(open_rotation_, TelemetryTrack::kControl);
  } else {
    // First rotation seen for this switch on this node: open the enclosing
    // whole-switch span.
    tr_->begin(n_sp_switch_, TelemetryTrack::kControl, arg);
  }
  tr_->begin(name, TelemetryTrack::kControl, arg);
  open_rotation_ = name;
}

void SwitchLayer::trace_rotation_done(bool close_switch) {
  if (open_rotation_ == 0) return;
  tr_->end(open_rotation_, TelemetryTrack::kControl);
  open_rotation_ = 0;
  if (close_switch) tr_->end(n_sp_switch_, TelemetryTrack::kControl);
}

void SwitchLayer::trace_counts_arrived() {
  tr_->end(n_ph_prepare_, TelemetryTrack::kData);
  tr_->begin(n_ph_drain_, TelemetryTrack::kData);
}

// --------------------------------------------------------------------------
// Data path
// --------------------------------------------------------------------------

void SwitchLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(DataType::kPass)); });
    chain(active_protocol()).down_from_top(std::move(m));
    return;
  }
  // Sends submitted after PREPARE travel on the NEW protocol under the next
  // epoch — the application is never blocked (paper section 2/7).
  const std::uint64_t target_epoch = prepared_ ? epoch_ + 1 : epoch_;
  const std::uint64_t seq = prepared_ ? sent_next_epoch_++ : sent_this_epoch_++;
  const std::uint32_t sender = ctx().self().v;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(DataType::kData));
    w.u64(target_epoch);
    w.u32(sender);
    w.u64(seq);
  });
  chain(static_cast<int>(target_epoch % 2)).down_from_top(std::move(m));
}

void SwitchLayer::down_batch(MessageBatch b) {
  for (const Message& m : b) {
    if (m.is_p2p()) {
      Layer::down_batch(std::move(b));
      return;
    }
  }
  // prepared_ only flips on token processing, never mid-batch, so the whole
  // batch targets one epoch and one sub-protocol chain. Sends straddling a
  // PREPARE necessarily arrive in different batches (the SP epoch boundary
  // is a batch split by construction).
  const std::uint64_t target_epoch = prepared_ ? epoch_ + 1 : epoch_;
  const std::uint32_t sender = ctx().self().v;
  constexpr std::size_t kHdr = 1 + 8 + 4 + 8;
  Bytes& scratch = ctx().scratch();
  Writer w(scratch);
  w.reserve(kHdr * b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    w.u8(static_cast<std::uint8_t>(DataType::kData));
    w.u64(target_epoch);
    w.u32(sender);
    w.u64(prepared_ ? sent_next_epoch_++ : sent_this_epoch_++);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i].push_header_raw(std::span<const Byte>(scratch.data() + i * kHdr, kHdr));
  }
  chain(static_cast<int>(target_epoch % 2)).down_from_top_batch(std::move(b));
}

void SwitchLayer::up_batch(MessageBatch b) {
  // Forward consecutive same-channel runs as sub-batches; control frames
  // flush the pending run first so wire-visible side effects (acks, token
  // forwards, buffered releases) keep their unbatched ordering.
  MessageBatch run;
  std::uint16_t run_chan = 0;
  auto flush = [&] {
    if (run.empty()) return;
    if (run_chan == kChanProtoA) chain_a_->up_from_bottom_batch(std::move(run));
    else chain_b_->up_from_bottom_batch(std::move(run));
    run = MessageBatch{};
  };
  for (Message& m : b) {
    std::uint16_t channel = 0;
    try {
      channel = Mux::pop(m);
    } catch (const DecodeError&) {
      continue;
    }
    switch (channel) {
      case kChanProtoA:
      case kChanProtoB:
        if (!run.empty() && run_chan != channel) flush();
        run_chan = channel;
        run.push_back(std::move(m));
        break;
      case kChanControl:
        flush();
        on_control(std::move(m));
        break;
      default:
        break;
    }
  }
  flush();
}

void SwitchLayer::up(Message m) {
  std::uint16_t channel = 0;
  try {
    channel = Mux::pop(m);
  } catch (const DecodeError&) {
    return;
  }
  switch (channel) {
    case kChanProtoA:
      chain_a_->up_from_bottom(std::move(m));
      break;
    case kChanProtoB:
      chain_b_->up_from_bottom(std::move(m));
      break;
    case kChanControl:
      on_control(std::move(m));
      break;
    default:
      break;
  }
}

void SwitchLayer::on_subprotocol_deliver(int protocol, Message m) {
  DataType type{};
  std::uint64_t epoch = 0;
  std::uint32_t sender = 0;
  try {
    m.pop_header([&](Reader& r) {
      type = static_cast<DataType>(r.u8());
      if (type == DataType::kData) {
        epoch = r.u64();
        sender = r.u32();
        r.u64();  // per-epoch sequence, diagnostic only
      }
    });
  } catch (const DecodeError&) {
    return;
  }
  if (type == DataType::kPass) {
    ctx().deliver_up(std::move(m));
    return;
  }
  if (static_cast<int>(epoch % 2) != protocol) {
    // A message tagged for one protocol surfaced from the other: a bug in
    // the composition, not a runtime condition.
    assert(false && "epoch/protocol mismatch");
    return;
  }
  if (epoch == epoch_) {
    deliver_counted(sender, std::move(m));
    maybe_complete_switch();
  } else if (epoch == epoch_ + 1) {
    // The sender has already moved on; we are still draining. Buffer in
    // arrival order, which is the new protocol's delivery order.
    buffered_next_.push_back(BufferedDeliver{sender, std::move(m)});
    tr_->instant(n_buf_, TelemetryTrack::kData, buffered_next_.size());
    stats_.max_buffered = std::max(stats_.max_buffered,
                                   static_cast<std::uint64_t>(buffered_next_.size()));
  } else {
    // Older epochs: late retransmissions, already delivered before we
    // switched — the at-most-once assumption makes these safe to drop.
    ++stats_.stale_dropped;
    tr_->instant(n_stale_, TelemetryTrack::kData, epoch);
  }
}

void SwitchLayer::deliver_counted(std::uint32_t sender, Message m) {
  ++delivered_this_epoch_[sender];
  last_seen_sender_[sender] = ctx().now();
  if (epoch_tap_) epoch_tap_(epoch_);
  ctx().deliver_up(std::move(m));
}

void SwitchLayer::maybe_complete_switch() {
  if (!prepared_ || !have_counts_) return;
  const auto& members = ctx().members();
  for (std::size_t j = 0; j < members.size(); ++j) {
    if (members[j].v == cfg_.fault_skip_count_sender) continue;  // injected bug
    const auto it = delivered_this_epoch_.find(members[j].v);
    const std::uint64_t delivered = it == delivered_this_epoch_.end() ? 0 : it->second;
    if (delivered < counts_[j]) return;  // still draining the old protocol
  }
  complete_local_switch();
}

void SwitchLayer::complete_local_switch() {
  tr_->end(n_ph_drain_, TelemetryTrack::kData);
  ++epoch_;
  tr_->set_epoch(epoch_);
  // Streaming monitors key epoch-lifecycle state off this instant: arg is
  // the epoch now installed, arg2 the protocol index it runs.
  tr_->instant(n_epoch_install_, TelemetryTrack::kMembership, epoch_, active_protocol());
  sent_this_epoch_ = sent_next_epoch_;
  sent_next_epoch_ = 0;
  delivered_this_epoch_.clear();
  prepared_ = false;
  have_counts_ = false;
  counts_.clear();
  ++stats_.switches_completed;
  stats_.last_local_switch_duration = ctx().now() - local_switch_started_;
  last_switch_time_ = ctx().now();
  MSW_LOG(kInfo, "switch", ctx().now())
      << to_string(ctx().self()) << " switched to epoch " << epoch_ << " (protocol "
      << active_protocol() << "), releasing " << buffered_next_.size() << " buffered";

  // Release new-epoch deliveries in the new protocol's order.
  std::vector<BufferedDeliver> buffered = std::move(buffered_next_);
  buffered_next_.clear();
  tr_->begin(n_ph_release_, TelemetryTrack::kData, buffered.size());
  for (auto& b : buffered) deliver_counted(b.sender, std::move(b.m));
  tr_->end(n_ph_release_, TelemetryTrack::kData, buffered.size());
  tr_->end(n_local_, TelemetryTrack::kData);

  if (held_flush_) {
    Token flush = std::move(*held_flush_);
    held_flush_.reset();
    forward_token(std::move(flush));
    // The FLUSH has left this node; unless we initiated (and so await its
    // return), the switch is over here — close the rotation spans.
    if (!i_am_initiator_) trace_rotation_done(/*close_switch=*/true);
  }
}

// --------------------------------------------------------------------------
// Control path: the three-rotation switch token
// --------------------------------------------------------------------------

Payload SwitchLayer::encode_token(const Token& t) const {
  Message m = Message::group({});
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(CtlType::kToken));
    w.u8(static_cast<std::uint8_t>(t.mode));
    w.u64(t.serial);
    w.u64(t.epoch);
    w.u32(t.initiator);
    w.u32(static_cast<std::uint32_t>(t.counts.size()));
    for (std::uint64_t c : t.counts) w.u64(c);
  });
  return std::move(m.data);
}

SwitchLayer::Token SwitchLayer::decode_token(Reader& r) {
  Token t;
  t.mode = static_cast<TokenMode>(r.u8());
  t.serial = r.u64();
  t.epoch = r.u64();
  t.initiator = r.u32();
  const std::uint32_t n = r.count(8);
  t.counts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) t.counts.push_back(r.u64());
  return t;
}

void SwitchLayer::on_control(Message m) {
  CtlType type{};
  Token token;
  std::uint64_t ack_serial = 0;
  try {
    m.pop_header([&](Reader& r) {
      type = static_cast<CtlType>(r.u8());
      if (type == CtlType::kToken) {
        token = decode_token(r);
      } else {
        ack_serial = r.u64();
      }
    });
  } catch (const DecodeError&) {
    return;
  }
  if (type == CtlType::kAck) {
    if (ack_serial == outstanding_serial_) {
      outstanding_serial_ = 0;
      outstanding_bytes_.clear();
    }
    return;
  }
  on_token(std::move(token), m.wire_src);
}

void SwitchLayer::on_token(Token t, NodeId from) {
  // Ack unconditionally; the predecessor retransmits until it hears us.
  {
    Message ack = Message::p2p(from, {});
    const std::uint64_t serial = t.serial;
    ack.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(CtlType::kAck));
      w.u64(serial);
    });
    Mux::push(ack, kChanControl);
    ctx().send_down(std::move(ack));
  }
  if (t.serial <= last_serial_seen_) return;  // duplicate handoff
  last_serial_seen_ = t.serial;
  handle_token(std::move(t));
}

void SwitchLayer::begin_prepare_local() {
  prepared_ = true;
  local_switch_started_ = ctx().now();
  last_normal_visit_ = -1;  // rotation measurements restart after the switch
  tr_->begin(n_local_, TelemetryTrack::kData, epoch_);
  tr_->begin(n_ph_prepare_, TelemetryTrack::kData, epoch_);
  // sent_this_epoch_ is now frozen: subsequent sends count toward the next
  // epoch and travel on the new protocol.
}

void SwitchLayer::handle_token(Token t) {
  const std::uint32_t self = ctx().self().v;
  switch (t.mode) {
    case TokenMode::kNormal: {
      const Time now = ctx().now();
      // Ring-rotation measurement: consecutive NORMAL arrivals here are one
      // full rotation apart. Reset across switches (begin_prepare_local),
      // so post-switch samples never include switch-rotation time.
      if (last_normal_visit_ >= 0) normal_rotation_ = now - last_normal_visit_;
      last_normal_visit_ = now;
      prune_sender_window(now);
      OracleView view;
      view.self = ctx().self();
      view.active_protocol = active_protocol();
      view.now = now;
      view.active_senders = active_senders();
      view.since_last_switch = now - last_switch_time_;
      view.normal_rotation = normal_rotation_;
      view.last_switch_overhead = stats_.last_local_switch_duration;
      view.switches_completed = stats_.switches_completed;
      const bool initiate = switch_requested_ || oracle_->should_switch(view);
      if (initiate) {
        switch_requested_ = false;
        i_am_initiator_ = true;
        switch_started_ = ctx().now();
        ++stats_.switches_initiated;
        MSW_LOG(kInfo, "switch", ctx().now())
            << to_string(ctx().self()) << " initiating switch away from protocol "
            << active_protocol() << " (epoch " << epoch_ << ")";
        t.mode = TokenMode::kPrepare;
        t.epoch = epoch_;
        t.initiator = self;
        t.counts.assign(ctx().member_count(), 0);
        trace_rotation(n_rot_prepare_, epoch_);
        begin_prepare_local();
        t.counts[ctx().self_index()] = sent_this_epoch_;
        forward_token(std::move(t));
        return;
      }
      if (cfg_.normal_hold > 0) {
        ctx().set_timer(cfg_.normal_hold,
                        [this, t = std::move(t)]() mutable { forward_token(std::move(t)); });
      } else {
        forward_token(std::move(t));
      }
      return;
    }

    case TokenMode::kPrepare: {
      if (t.initiator == self) {
        // Second rotation: every member's count is on board.
        t.mode = TokenMode::kSwitch;
        counts_ = t.counts;
        have_counts_ = true;
        trace_rotation(n_rot_switch_, t.epoch);
        trace_counts_arrived();
        forward_token(std::move(t));
        maybe_complete_switch();
        return;
      }
      if (t.epoch == epoch_ && !prepared_) {
        trace_rotation(n_rot_prepare_, t.epoch);
        begin_prepare_local();
        t.counts[ctx().self_index()] = sent_this_epoch_;
      }
      forward_token(std::move(t));
      return;
    }

    case TokenMode::kSwitch: {
      if (t.initiator == self) {
        // Third rotation: disseminate FLUSH, but only once we ourselves
        // have completed the local switch. A member's epoch is t.epoch
        // until it switches and t.epoch + 1 after, so the wrap-safe test
        // for "switched" is inequality, not ordering.
        t.mode = TokenMode::kFlush;
        trace_rotation(n_rot_flush_, t.epoch);
        if (epoch_ != t.epoch) {
          forward_token(std::move(t));
        } else {
          held_flush_ = std::move(t);
        }
        return;
      }
      if (t.epoch == epoch_ && prepared_) {
        counts_ = t.counts;
        const bool counts_were_new = !have_counts_;
        have_counts_ = true;
        trace_rotation(n_rot_switch_, t.epoch);
        if (counts_were_new) trace_counts_arrived();
      }
      forward_token(std::move(t));
      maybe_complete_switch();
      return;
    }

    case TokenMode::kFlush: {
      if (t.initiator == self) {
        // The FLUSH made it through every member: the switch has truly
        // completed at each member (paper section 2).
        trace_rotation_done(/*close_switch=*/true);
        stats_.last_switch_duration = ctx().now() - switch_started_;
        stats_.switch_durations.add(to_ms(stats_.last_switch_duration));
        i_am_initiator_ = false;
        MSW_LOG(kInfo, "switch", ctx().now())
            << to_string(ctx().self()) << " switch complete in "
            << to_ms(stats_.last_switch_duration) << " ms";
        t.mode = TokenMode::kNormal;
        t.epoch = epoch_;
        t.initiator = 0;
        t.counts.clear();
        forward_token(std::move(t));
        return;
      }
      trace_rotation(n_rot_flush_, t.epoch);
      if (epoch_ != t.epoch) {
        forward_token(std::move(t));
        trace_rotation_done(/*close_switch=*/true);
      } else {
        // Still draining; forward once the local switch completes (which
        // also closes the flush rotation span).
        held_flush_ = std::move(t);
      }
      return;
    }
  }
}

void SwitchLayer::forward_token(Token t, bool count_hop) {
  if (count_hop) ++stats_.token_hops;
  ++t.serial;
  tr_->instant(n_tok_forward_, TelemetryTrack::kControl, t.serial);
  outstanding_serial_ = t.serial;
  outstanding_bytes_ = encode_token(t);
  Message m = Message::p2p(ctx().ring_successor(), outstanding_bytes_);
  Mux::push(m, kChanControl);
  ctx().send_down(std::move(m));
  arm_token_retransmit(t.serial);
}

void SwitchLayer::arm_token_retransmit(std::uint64_t serial) {
  ctx().set_timer(cfg_.token_rto, [this, serial] {
    if (outstanding_serial_ != serial) return;  // acked meanwhile
    ++stats_.token_retransmissions;
    tr_->instant(n_tok_retx_, TelemetryTrack::kControl, serial);
    Message m = Message::p2p(ctx().ring_successor(), outstanding_bytes_);
    Mux::push(m, kChanControl);
    ctx().send_down(std::move(m));
    arm_token_retransmit(serial);
  });
}

void SwitchLayer::prune_sender_window(Time now) {
  for (auto it = last_seen_sender_.begin(); it != last_seen_sender_.end();) {
    if (now - it->second > cfg_.sender_window) {
      it = last_seen_sender_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t SwitchLayer::active_senders() const {
  // Count against the consult-time clock instead of trusting the last
  // prune: a member whose token visits are slow (large normal_hold, lossy
  // ring) must not report senders that went quiet a whole window ago.
  const Time now = ctx().now();
  std::size_t n = 0;
  for (const auto& [sender, seen] : last_seen_sender_) {
    if (now - seen <= cfg_.sender_window) ++n;
  }
  return n;
}

}  // namespace msw
