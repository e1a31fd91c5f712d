#include "switch/vsync_switch.hpp"

#include <algorithm>
#include <cassert>

#include "proto/vsync_layer.hpp"  // encode_view_body
#include "stack/stack.hpp"
#include "util/log.hpp"

namespace msw {
namespace {

constexpr std::uint16_t kChanProtoA = 0;
constexpr std::uint16_t kChanProtoB = 1;
constexpr std::uint16_t kChanControl = 2;

enum class DataType : std::uint8_t { kData = 0, kPass = 1 };

enum class CtlType : std::uint8_t {
  kReq = 0,       // member -> coordinator: please switch
  kFlushReq = 1,  // coordinator -> all: stop sending, report counts
  kFlushOk = 2,   // member -> coordinator: my sent count
  kCut = 3,       // coordinator -> all: the exact per-member counts
  kDone = 4,      // member -> coordinator: installed the new epoch
};

}  // namespace

VsyncSwitchLayer::VsyncSwitchLayer(std::vector<std::unique_ptr<Layer>> proto_a,
                                   std::vector<std::unique_ptr<Layer>> proto_b,
                                   VsyncSwitchConfig cfg)
    : cfg_(cfg), layers_a_(std::move(proto_a)), layers_b_(std::move(proto_b)) {}

VsyncSwitchLayer::~VsyncSwitchLayer() = default;

void VsyncSwitchLayer::start() {
  Services* services = ctx().services();
  chain_a_ = std::make_unique<LayerChain>(
      *services, std::move(layers_a_),
      [this](Message m) {
        Mux::push(m, kChanProtoA);
        ctx().send_down(std::move(m));
      },
      [this](Message m) { on_subprotocol_deliver(0, std::move(m)); });
  chain_b_ = std::make_unique<LayerChain>(
      *services, std::move(layers_b_),
      [this](Message m) {
        Mux::push(m, kChanProtoB);
        ctx().send_down(std::move(m));
      },
      [this](Message m) { on_subprotocol_deliver(1, std::move(m)); });
  chain_a_->start();
  chain_b_->start();

  // Initial view marker, so traces open with a consistent epoch boundary.
  std::vector<std::uint32_t> ids;
  for (NodeId m : ctx().members()) ids.push_back(m.v);
  Message note = Message::group(encode_view_body(ids));
  AppHeader::push(note, AppHeader{AppHeader::Kind::kView, coordinator().v, 0});
  ctx().deliver_up(std::move(note));
}

// --------------------------------------------------------------------------
// Data path
// --------------------------------------------------------------------------

void VsyncSwitchLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(DataType::kPass)); });
    chain(active_protocol()).down_from_top(std::move(m));
    return;
  }
  if (flushing_) {
    // Unlike SP, senders ARE blocked during a vsync switch.
    queued_.push_back(std::move(m));
    return;
  }
  const std::uint64_t epoch = epoch_;
  const std::uint64_t seq = sent_this_epoch_++;
  const std::uint32_t sender = ctx().self().v;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(DataType::kData));
    w.u64(epoch);
    w.u32(sender);
    w.u64(seq);
  });
  chain(static_cast<int>(epoch % 2)).down_from_top(std::move(m));
}

void VsyncSwitchLayer::up(Message m) {
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

void VsyncSwitchLayer::on_subprotocol_deliver(int protocol, Message m) {
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
    assert(false && "epoch/protocol mismatch");
    return;
  }
  if (epoch == epoch_) {
    deliver_counted(sender, std::move(m));
    maybe_install();
  } else if (epoch == epoch_ + 1) {
    buffered_next_.push_back(BufferedDeliver{sender, std::move(m)});
  }
  // Older epochs: late duplicates, drop.
}

void VsyncSwitchLayer::deliver_counted(std::uint32_t sender, Message m) {
  ++delivered_this_epoch_[sender];
  ctx().deliver_up(std::move(m));
}

void VsyncSwitchLayer::maybe_install() {
  if (!flushing_ || !have_cut_) return;
  for (const auto& [member, count] : cut_counts_) {
    const auto it = delivered_this_epoch_.find(member);
    const std::uint64_t delivered = it == delivered_this_epoch_.end() ? 0 : it->second;
    if (delivered < count) return;
  }
  install_epoch();
}

void VsyncSwitchLayer::install_epoch() {
  ++epoch_;
  sent_this_epoch_ = 0;
  delivered_this_epoch_.clear();
  flushing_ = false;
  have_cut_ = false;
  cut_counts_.clear();
  ++stats_.switches_completed;
  MSW_LOG(kInfo, "vswitch", ctx().now())
      << to_string(ctx().self()) << " installed epoch " << epoch_ << " (protocol "
      << active_protocol() << ")";

  // The view notification is the epoch boundary every member shares.
  std::vector<std::uint32_t> ids;
  for (NodeId m : ctx().members()) ids.push_back(m.v);
  Message note = Message::group(encode_view_body(ids));
  AppHeader::push(note, AppHeader{AppHeader::Kind::kView, coordinator().v, epoch_});
  ctx().deliver_up(std::move(note));

  // New-epoch deliveries buffered while draining.
  std::vector<BufferedDeliver> buffered = std::move(buffered_next_);
  buffered_next_.clear();
  for (auto& b : buffered) deliver_counted(b.sender, std::move(b.m));

  // Sends blocked during the flush go out in the new epoch.
  std::deque<Message> queued = std::move(queued_);
  queued_.clear();
  for (auto& q : queued) down(std::move(q));

  // Tell the coordinator we are done.
  Message done = Message::p2p(coordinator(), {});
  const std::uint64_t closing = epoch_ - 1;
  const std::uint32_t self = ctx().self().v;
  done.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(CtlType::kDone));
    w.u64(closing);
    w.u32(self);
  });
  Mux::push(done, kChanControl);
  ctx().send_down(std::move(done));
}

// --------------------------------------------------------------------------
// Control path
// --------------------------------------------------------------------------

void VsyncSwitchLayer::request_switch() {
  if (is_coordinator()) {
    if (phase_ != Phase::kIdle || flushing_) return;  // one switch at a time
    phase_ = Phase::kCollectingOks;
    closing_epoch_ = epoch_;
    flush_oks_.clear();
    done_.clear();
    switch_started_ = ctx().now();
    Message m = Message::group({});
    const std::uint64_t closing = closing_epoch_;
    m.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(CtlType::kFlushReq));
      w.u64(closing);
    });
    Mux::push(m, kChanControl);
    ctx().send_down(std::move(m));
    ctx().set_timer(cfg_.control_rto, [this] { coordinator_tick(); });
    return;
  }
  Message m = Message::p2p(coordinator(), {});
  m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(CtlType::kReq)); });
  Mux::push(m, kChanControl);
  ctx().send_down(std::move(m));
}

void VsyncSwitchLayer::coordinator_tick() {
  if (phase_ == Phase::kIdle) return;
  ++stats_.control_retransmissions;
  if (phase_ == Phase::kCollectingOks) {
    Message m = Message::group({});
    const std::uint64_t closing = closing_epoch_;
    m.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(CtlType::kFlushReq));
      w.u64(closing);
    });
    Mux::push(m, kChanControl);
    ctx().send_down(std::move(m));
  } else {
    send_cut();
  }
  ctx().set_timer(cfg_.control_rto, [this] { coordinator_tick(); });
}

void VsyncSwitchLayer::begin_flush(std::uint64_t closing_epoch) {
  if (closing_epoch < epoch_) {
    // Already installed; remind the coordinator.
    Message done = Message::p2p(coordinator(), {});
    const std::uint32_t self = ctx().self().v;
    done.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(CtlType::kDone));
      w.u64(closing_epoch);
      w.u32(self);
    });
    Mux::push(done, kChanControl);
    ctx().send_down(std::move(done));
    return;
  }
  if (closing_epoch != epoch_) return;  // future epoch: impossible by phases
  flushing_ = true;
  send_flush_ok();
}

void VsyncSwitchLayer::send_flush_ok() {
  Message ok = Message::p2p(coordinator(), {});
  const std::uint64_t closing = epoch_;
  const std::uint32_t self = ctx().self().v;
  const std::uint64_t sent = sent_this_epoch_;
  ok.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(CtlType::kFlushOk));
    w.u64(closing);
    w.u32(self);
    w.u64(sent);
  });
  Mux::push(ok, kChanControl);
  ctx().send_down(std::move(ok));
}

void VsyncSwitchLayer::send_cut() {
  Message m = Message::group({});
  const std::uint64_t closing = closing_epoch_;
  const auto counts = flush_oks_;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(CtlType::kCut));
    w.u64(closing);
    w.u32(static_cast<std::uint32_t>(counts.size()));
    for (const auto& [member, count] : counts) {
      w.u32(member);
      w.u64(count);
    }
  });
  Mux::push(m, kChanControl);
  ctx().send_down(std::move(m));
}

void VsyncSwitchLayer::on_control(Message m) {
  CtlType type{};
  std::uint64_t closing = 0;
  std::uint32_t from = 0;
  std::uint64_t sent = 0;
  std::map<std::uint32_t, std::uint64_t> counts;
  try {
    m.pop_header([&](Reader& r) {
      type = static_cast<CtlType>(r.u8());
      switch (type) {
        case CtlType::kReq:
          break;
        case CtlType::kFlushReq:
          closing = r.u64();
          break;
        case CtlType::kFlushOk:
          closing = r.u64();
          from = r.u32();
          sent = r.u64();
          break;
        case CtlType::kCut: {
          closing = r.u64();
          const std::uint32_t n = r.count(12);
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t member = r.u32();
            const std::uint64_t count = r.u64();
            counts.emplace(member, count);
          }
          break;
        }
        case CtlType::kDone:
          closing = r.u64();
          from = r.u32();
          break;
      }
    });
  } catch (const DecodeError&) {
    return;
  }
  switch (type) {
    case CtlType::kReq:
      if (is_coordinator()) request_switch();
      return;
    case CtlType::kFlushReq:
      begin_flush(closing);
      return;
    case CtlType::kFlushOk:
      if (!is_coordinator() || phase_ != Phase::kCollectingOks || closing != closing_epoch_)
        return;
      flush_oks_.emplace(from, sent);
      if (flush_oks_.size() == ctx().member_count()) {
        phase_ = Phase::kAwaitingDone;
        send_cut();
      }
      return;
    case CtlType::kCut:
      if (closing == epoch_ && flushing_) {
        have_cut_ = true;
        cut_counts_ = std::move(counts);
        maybe_install();
      } else if (closing < epoch_) {
        // Duplicate of a completed switch; re-confirm.
        Message done = Message::p2p(coordinator(), {});
        const std::uint32_t self = ctx().self().v;
        done.push_header([&](Writer& w) {
          w.u8(static_cast<std::uint8_t>(CtlType::kDone));
          w.u64(closing);
          w.u32(self);
        });
        Mux::push(done, kChanControl);
        ctx().send_down(std::move(done));
      }
      return;
    case CtlType::kDone:
      if (!is_coordinator() || phase_ != Phase::kAwaitingDone || closing != closing_epoch_)
        return;
      done_.insert(from);
      if (done_.size() == ctx().member_count()) {
        phase_ = Phase::kIdle;
        stats_.last_switch_duration = ctx().now() - switch_started_;
        MSW_LOG(kInfo, "vswitch", ctx().now())
            << "coordinated switch complete in " << to_ms(stats_.last_switch_duration) << " ms";
      }
      return;
  }
}

LayerFactory make_vsync_switch_factory(LayerFactory proto_a, LayerFactory proto_b,
                                       VsyncSwitchConfig cfg) {
  return [proto_a = std::move(proto_a), proto_b = std::move(proto_b),
          cfg](NodeId self, const std::vector<NodeId>& members) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<VsyncSwitchLayer>(proto_a(self, members),
                                                        proto_b(self, members), cfg));
    return layers;
  };
}

VsyncSwitchLayer& vsync_switch_layer_of(Stack& stack) {
  return static_cast<VsyncSwitchLayer&>(stack.chain().layer(0));
}

}  // namespace msw
