#include "proto/vsync_layer.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace msw {
namespace {

enum class Type : std::uint8_t {
  kData = 0,
  kFlushReq = 1,
  kFlushOk = 2,
  kCut = 3,
  kPass = 4,
};

}  // namespace

Bytes encode_view_body(const std::vector<std::uint32_t>& members) {
  Bytes b;
  Writer w(b);
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (std::uint32_t m : members) w.u32(m);
  return b;
}

std::vector<std::uint32_t> decode_view_body(std::span<const Byte> body) {
  Reader r(body);
  const std::uint32_t n = r.count(4);
  std::vector<std::uint32_t> members;
  members.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) members.push_back(r.u32());
  return members;
}

void VsyncLayer::start() {
  tr_ = &ctx().tracer();
  n_flush_ = tr_->intern("vsync.flush");
  n_view_ = tr_->intern("vsync.view_installed");
  if (MetricsRegistry* reg = ctx().metrics()) {
    reg->attach_counter("vsync.views_installed", &views_installed_);
  }
  view_members_.clear();
  for (NodeId m : ctx().members()) view_members_.push_back(m.v);
  // Every member delivers the initial view notification so captured traces
  // open with a consistent view marker.
  Message note = Message::group(encode_view_body(view_members_));
  AppHeader::push(note, AppHeader{AppHeader::Kind::kView, ctx().members().front().v, view_id_});
  ctx().deliver_up(std::move(note));
}

void VsyncLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  if (flushing_) {
    queued_.push_back(std::move(m));
    return;
  }
  const std::uint64_t view = view_id_;
  const std::uint32_t origin = ctx().self().v;
  ++sent_in_view_;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kData));
    w.u64(view);
    w.u32(origin);
  });
  ctx().send_down(std::move(m));
}

void VsyncLayer::up(Message m) {
  Type type{};
  std::uint64_t view_id = 0;
  std::uint32_t origin = 0;
  std::uint64_t sent = 0;
  std::vector<std::uint32_t> member_list;
  std::map<std::uint32_t, std::uint64_t> counts;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    switch (type) {
      case Type::kData:
        view_id = r.u64();
        origin = r.u32();
        break;
      case Type::kFlushReq: {
        view_id = r.u64();
        const std::uint32_t n = r.count(4);
        member_list.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) member_list.push_back(r.u32());
        break;
      }
      case Type::kFlushOk: {
        view_id = r.u64();
        origin = r.u32();
        sent = r.u64();
        const std::uint32_t n = r.count(12);
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::uint32_t o = r.u32();
          const std::uint64_t delivered = r.u64();
          counts.emplace(o, delivered);
        }
        break;
      }
      case Type::kCut: {
        view_id = r.u64();
        const std::uint32_t mn = r.count(4);
        member_list.reserve(mn);
        for (std::uint32_t i = 0; i < mn; ++i) member_list.push_back(r.u32());
        const std::uint32_t n = r.count(12);
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::uint32_t member = r.u32();
          const std::uint64_t count = r.u64();
          counts.emplace(member, count);
        }
        break;
      }
      case Type::kPass:
        break;
    }
  });
  switch (type) {
    case Type::kData:
      on_data(view_id, origin, std::move(m));
      break;
    case Type::kFlushReq:
      on_flush_req(view_id, std::move(member_list));
      break;
    case Type::kFlushOk:
      on_flush_ok(view_id, origin, sent, std::move(counts));
      break;
    case Type::kCut:
      on_cut(view_id, std::move(member_list), std::move(counts));
      break;
    case Type::kPass:
      ctx().deliver_up(std::move(m));
      break;
  }
}

bool VsyncLayer::request_view_change(std::vector<std::uint32_t> new_members) {
  if (!is_coordinator() || change_in_progress_) return false;
  change_in_progress_ = true;
  const std::uint64_t new_view_id = view_id_ + 1;
  Message m = Message::group({});
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kFlushReq));
    w.u64(new_view_id);
    w.u32(static_cast<std::uint32_t>(new_members.size()));
    for (std::uint32_t member : new_members) w.u32(member);
  });
  ctx().send_down(std::move(m));
  if (cfg_.flush_timeout > 0) {
    flush_timer_ = ctx().set_timer(cfg_.flush_timeout, [this, new_view_id] {
      // Not everyone replied in time: exclude the silent members and cut
      // with what the survivors reported.
      if (!change_in_progress_ || pending_view_id_ != new_view_id || have_cut_) return;
      if (flush_oks_.empty()) return;  // not even our own loopback yet
      MSW_LOG(kInfo, "vsync", ctx().now())
          << "flush timeout: cutting view " << new_view_id << " with "
          << flush_oks_.size() << " responsive members";
      send_cut();
    });
  }
  return true;
}

void VsyncLayer::on_data(std::uint64_t view_id, std::uint32_t origin, Message m) {
  if (view_id < view_id_) return;  // stale duplicate from a past view
  if (view_id > view_id_) {
    // Sent in a view we have not installed yet; hold until we catch up.
    future_.push_back(FutureMsg{view_id, origin, std::move(m)});
    return;
  }
  if (flushing_ && !have_cut_) {
    // After our FLUSH_OK snapshot, deliveries pause: the cut decides how
    // far each stream goes in this view.
    held_.push_back(FutureMsg{view_id, origin, std::move(m)});
    return;
  }
  if (flushing_ && have_cut_) {
    const auto it = cut_counts_.find(origin);
    const std::uint64_t allowed = it == cut_counts_.end() ? 0 : it->second;
    const std::uint64_t delivered = delivered_in_view_[origin];
    if (delivered >= allowed) return;  // beyond the agreed cut: discard
    deliver_counted(origin, std::move(m));
    maybe_install_view();
    return;
  }
  deliver_counted(origin, std::move(m));
}

void VsyncLayer::deliver_counted(std::uint32_t origin, Message m) {
  ++delivered_in_view_[origin];
  ctx().deliver_up(std::move(m));
}

void VsyncLayer::on_flush_req(std::uint64_t new_view_id, std::vector<std::uint32_t> new_members) {
  if (new_view_id <= view_id_ || (flushing_ && new_view_id == pending_view_id_)) return;
  // Membership track keeps the flush span clear of data-track nesting (the
  // flush delivers buffered data mid-span).
  tr_->begin(n_flush_, TelemetryTrack::kMembership, new_view_id);
  flushing_ = true;
  pending_view_id_ = new_view_id;
  pending_members_ = std::move(new_members);
  have_cut_ = false;
  // Report how many messages we sent in the closing view, and how much of
  // every stream we have delivered (the exclusion cut needs the latter).
  Message ok = Message::p2p(ctx().members().front(), {});
  const std::uint32_t self = ctx().self().v;
  const std::uint64_t sent = sent_in_view_;
  const auto delivered = delivered_in_view_;
  ok.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kFlushOk));
    w.u64(new_view_id);
    w.u32(self);
    w.u64(sent);
    w.u32(static_cast<std::uint32_t>(delivered.size()));
    for (const auto& [origin, count] : delivered) {
      w.u32(origin);
      w.u64(count);
    }
  });
  ctx().send_down(std::move(ok));
}

void VsyncLayer::on_flush_ok(std::uint64_t new_view_id, std::uint32_t from, std::uint64_t sent,
                             std::map<std::uint32_t, std::uint64_t> delivered) {
  if (!is_coordinator() || new_view_id != pending_view_id_ || have_cut_) return;
  flush_oks_.emplace(from, FlushOk{sent, std::move(delivered)});
  if (flush_oks_.size() < ctx().member_count()) return;
  ctx().cancel_timer(flush_timer_);
  send_cut();
}

void VsyncLayer::send_cut() {
  // Responsive members close the view at their reported sent count;
  // excluded members' streams close at the furthest any survivor got
  // (peer-assisted retransmission below recovers the difference).
  std::map<std::uint32_t, std::uint64_t> counts;
  std::vector<std::uint32_t> responsive;
  for (const auto& [member, ok] : flush_oks_) {
    responsive.push_back(member);
    counts[member] = ok.sent;
  }
  for (const NodeId member : ctx().members()) {
    if (counts.count(member.v) > 0) continue;  // responsive
    std::uint64_t max_delivered = 0;
    for (const auto& [from, ok] : flush_oks_) {
      const auto it = ok.delivered.find(member.v);
      if (it != ok.delivered.end()) max_delivered = std::max(max_delivered, it->second);
    }
    counts[member.v] = max_delivered;
  }
  std::vector<std::uint32_t> final_members;
  for (std::uint32_t m : pending_members_) {
    if (std::find(responsive.begin(), responsive.end(), m) != responsive.end()) {
      final_members.push_back(m);
    }
  }

  Message m = Message::group({});
  const std::uint64_t view_id = pending_view_id_;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kCut));
    w.u64(view_id);
    w.u32(static_cast<std::uint32_t>(final_members.size()));
    for (std::uint32_t member : final_members) w.u32(member);
    w.u32(static_cast<std::uint32_t>(counts.size()));
    for (const auto& [member, count] : counts) {
      w.u32(member);
      w.u64(count);
    }
  });
  flush_oks_.clear();
  ctx().send_down(std::move(m));
}

void VsyncLayer::on_cut(std::uint64_t new_view_id, std::vector<std::uint32_t> final_members,
                        std::map<std::uint32_t, std::uint64_t> counts) {
  if (new_view_id != pending_view_id_ || !flushing_ || have_cut_) return;
  have_cut_ = true;
  cut_counts_ = std::move(counts);
  cut_members_ = std::move(final_members);
  // Release held deliveries up to the cut; discard beyond it.
  std::vector<FutureMsg> held = std::move(held_);
  held_.clear();
  for (auto& h : held) {
    const auto it = cut_counts_.find(h.origin);
    const std::uint64_t allowed = it == cut_counts_.end() ? 0 : it->second;
    if (delivered_in_view_[h.origin] < allowed) {
      deliver_counted(h.origin, std::move(h.m));
    }
  }
  maybe_install_view();
}

void VsyncLayer::maybe_install_view() {
  if (!flushing_ || !have_cut_) return;
  for (const auto& [member, count] : cut_counts_) {
    auto it = delivered_in_view_.find(member);
    const std::uint64_t delivered = it == delivered_in_view_.end() ? 0 : it->second;
    if (delivered < count) return;  // still draining the closing view
  }
  install_view();
}

void VsyncLayer::install_view() {
  tr_->end(n_flush_, TelemetryTrack::kMembership, pending_view_id_);
  tr_->instant(n_view_, TelemetryTrack::kMembership, pending_view_id_);
  ++views_installed_;
  view_id_ = pending_view_id_;
  view_members_ = cut_members_;
  sent_in_view_ = 0;
  delivered_in_view_.clear();
  flushing_ = false;
  have_cut_ = false;
  cut_counts_.clear();
  change_in_progress_ = false;
  MSW_LOG(kInfo, "vsync", ctx().now())
      << to_string(ctx().self()) << " installed view " << view_id_ << " ("
      << view_members_.size() << " members)";

  // Deliver the view notification before any new-view data.
  Message note = Message::group(encode_view_body(view_members_));
  AppHeader::push(note, AppHeader{AppHeader::Kind::kView, ctx().members().front().v, view_id_});
  ctx().deliver_up(std::move(note));

  // Release sends queued during the flush into the new view.
  std::deque<Message> queued = std::move(queued_);
  queued_.clear();
  for (auto& m : queued) down(std::move(m));

  // Re-process data buffered for this (or a later) view.
  std::vector<FutureMsg> future = std::move(future_);
  future_.clear();
  for (auto& f : future) on_data(f.view_id, f.origin, std::move(f.m));
}

}  // namespace msw
