#include "proto/causal_layer.hpp"

#include <cassert>

#include "telemetry/metrics.hpp"

namespace msw {
namespace {

enum class Type : std::uint8_t { kData = 0, kPass = 1 };

}  // namespace

void CausalLayer::start() {
  tr_ = &ctx().tracer();
  n_blocked_ = tr_->intern("causal.blocked");
  if (MetricsRegistry* reg = ctx().metrics()) {
    reg->attach_counter("causal.blocked_total", &blocked_total_);
  }
  delivered_.assign(ctx().member_count(), 0);
}

std::size_t CausalLayer::index_of(std::uint32_t member) const {
  const auto& members = ctx().members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].v == member) return i;
  }
  assert(false && "unknown member");
  return 0;
}

void CausalLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  // The vector clock: deliveries seen, with our own slot = sends made
  // before this one.
  std::vector<std::uint64_t> vc = delivered_;
  vc[ctx().self_index()] = sent_++;
  const std::uint32_t origin = ctx().self().v;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kData));
    w.u32(origin);
    w.u32(static_cast<std::uint32_t>(vc.size()));
    for (std::uint64_t v : vc) w.u64(v);
  });
  ctx().send_down(std::move(m));
}

void CausalLayer::down_batch(MessageBatch b) {
  for (const Message& m : b) {
    if (m.is_p2p()) {
      Layer::down_batch(std::move(b));
      return;
    }
  }
  // Flat encode: every header is 1 + 4 + 4 + 8 * member_count bytes. Each
  // message gets its own vector clock (our slot advances per send), but the
  // other slots are identical across the batch, so encode from delivered_
  // directly instead of materializing a vc copy per message.
  const std::size_t n = ctx().member_count();
  const std::size_t kHdr = 1 + 4 + 4 + 8 * n;
  const std::uint32_t origin = ctx().self().v;
  const std::size_t self_idx = ctx().self_index();
  Bytes& scratch = ctx().scratch();
  Writer w(scratch);
  w.reserve(kHdr * b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    w.u8(static_cast<std::uint8_t>(Type::kData));
    w.u32(origin);
    w.u32(static_cast<std::uint32_t>(n));
    for (std::size_t k = 0; k < n; ++k) {
      w.u64(k == self_idx ? sent_ : delivered_[k]);
    }
    ++sent_;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i].push_header_raw(std::span<const Byte>(scratch.data() + i * kHdr, kHdr));
  }
  ctx().send_down(std::move(b));
}

void CausalLayer::up(Message m) {
  Type type{};
  std::uint32_t origin = 0;
  std::vector<std::uint64_t> vc;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    if (type == Type::kData) {
      origin = r.u32();
      const std::uint32_t n = r.count(8);
      vc.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) vc.push_back(r.u64());
    }
  });
  if (type == Type::kPass) {
    ctx().deliver_up(std::move(m));
    return;
  }
  if (vc.size() != ctx().member_count()) return;  // malformed
  pending_.push_back(Pending{index_of(origin), std::move(vc), std::move(m)});
  if (!deliverable(pending_.back())) {
    ++blocked_total_;
    tr_->instant(n_blocked_, TelemetryTrack::kData, pending_.size());
  }
  drain();
}

void CausalLayer::up_batch(MessageBatch b) {
  MessageBatch out;
  for (Message& m : b) {
    Type type{};
    std::uint32_t origin = 0;
    std::vector<std::uint64_t> vc;
    try {
      m.pop_header([&](Reader& r) {
        type = static_cast<Type>(r.u8());
        if (type == Type::kData) {
          origin = r.u32();
          const std::uint32_t n = r.count(8);
          vc.reserve(n);
          for (std::uint32_t i = 0; i < n; ++i) vc.push_back(r.u64());
        }
      });
    } catch (const DecodeError&) {
      continue;  // matches the unbatched per-packet drop at the stack
    }
    if (type == Type::kPass) {
      out.push_back(std::move(m));
      continue;
    }
    if (vc.size() != ctx().member_count()) continue;  // malformed
    pending_.push_back(Pending{index_of(origin), std::move(vc), std::move(m)});
    if (!deliverable(pending_.back())) {
      ++blocked_total_;
      tr_->instant(n_blocked_, TelemetryTrack::kData, pending_.size());
    }
    drain(&out);
  }
  ctx().deliver_up(std::move(out));
}

bool CausalLayer::deliverable(const Pending& p) const {
  // Next in the origin's stream, and every causal dependency satisfied.
  if (delivered_[p.origin_idx] != p.vc[p.origin_idx]) return false;
  for (std::size_t k = 0; k < delivered_.size(); ++k) {
    if (k == p.origin_idx) continue;
    if (delivered_[k] < p.vc[k]) return false;
  }
  return true;
}

void CausalLayer::drain(MessageBatch* out) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (!deliverable(pending_[i])) continue;
      Pending ready = std::move(pending_[i]);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      ++delivered_[ready.origin_idx];
      if (out != nullptr) out->push_back(std::move(ready.m));
      else ctx().deliver_up(std::move(ready.m));
      progressed = true;
      break;  // restart: delivery may enable earlier entries
    }
  }
}

}  // namespace msw
