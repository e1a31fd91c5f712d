#include "proto/sequencer_layer.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace msw {
namespace {

enum class Type : std::uint8_t {
  kOrderReq = 0,
  kSequenced = 1,
  kGapNack = 2,
  kGcAck = 3,
  kPass = 4,
  kHeartbeat = 5,
};

constexpr std::size_t kMaxNackBatch = 64;

}  // namespace

void SequencerLayer::start() {
  tr_ = &ctx().tracer();
  n_gap_nack_ = tr_->intern("seq.gap_nack");
  n_retx_ = tr_->intern("seq.history_retransmit");
  if (MetricsRegistry* reg = ctx().metrics()) {
    reg->attach_counter("seq.requests_retransmitted", &stats_.requests_retransmitted);
    reg->attach_counter("seq.gap_nacks_sent", &stats_.gap_nacks_sent);
    reg->attach_counter("seq.history_retransmissions", &stats_.history_retransmissions);
    reg->attach_counter("seq.duplicates_dropped", &stats_.duplicates_dropped);
    reg->attach_counter("seq.sequenced", &stats_.sequenced);
    // Queue depth the switch policy's SignalPlane reads: order requests this
    // sender has submitted that the sequencer has not echoed back yet. It
    // grows exactly when the sequencer saturates (Figure 2's rising curve).
    pending_gauge_ = &reg->gauge("seq.pending");
  }
  ctx().set_timer(cfg_.request_rto, [this] { retransmit_pending(); });
  ctx().set_timer(cfg_.nack_interval, [this] { send_gap_nacks(); });
  ctx().set_timer(cfg_.ack_interval, [this] { send_gc_ack(); });
  if (is_sequencer()) {
    ctx().set_timer(cfg_.heartbeat_interval, [this] { send_heartbeat(); });
  }
}

void SequencerLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  const std::uint32_t origin = ctx().self().v;
  const std::uint64_t oseq = next_oseq_++;
  if (is_sequencer()) {
    // Local short-circuit: the sequencer orders its own messages directly;
    // no request can be lost, so nothing is buffered for retransmission.
    sequence_and_multicast(origin, oseq, std::move(m));
    return;
  }
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kOrderReq));
    w.u32(origin);
    w.u64(oseq);
  });
  pending_.emplace(oseq, m.data);
  if (pending_gauge_) pending_gauge_->set(static_cast<std::int64_t>(pending_.size()));
  m.point_to = sequencer();
  ctx().send_down(std::move(m));
}

void SequencerLayer::up(Message m) {
  Type type{};
  std::uint32_t origin = 0;
  std::uint64_t oseq = 0;
  std::uint64_t gseq = 0;
  std::vector<std::uint64_t> nack_gseqs;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    switch (type) {
      case Type::kOrderReq:
        origin = r.u32();
        oseq = r.u64();
        break;
      case Type::kSequenced:
        gseq = r.u64();
        origin = r.u32();
        oseq = r.u64();
        break;
      case Type::kGapNack: {
        const std::uint32_t count = r.count(8);
        nack_gseqs.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) nack_gseqs.push_back(r.u64());
        break;
      }
      case Type::kGcAck:
        origin = r.u32();
        gseq = r.u64();
        break;
      case Type::kHeartbeat:
        gseq = r.u64();
        break;
      case Type::kPass:
        break;
    }
  });
  switch (type) {
    case Type::kOrderReq:
      on_order_req(origin, oseq, std::move(m));
      break;
    case Type::kSequenced:
      on_sequenced(gseq, origin, oseq, std::move(m));
      break;
    case Type::kGapNack:
      on_gap_nack(m.wire_src, nack_gseqs);
      break;
    case Type::kGcAck:
      on_gc_ack(origin, gseq);
      break;
    case Type::kHeartbeat:
      highest_gseq_seen_ = std::max(highest_gseq_seen_, gseq);
      break;
    case Type::kPass:
      ctx().deliver_up(std::move(m));
      break;
  }
}

void SequencerLayer::down_batch(MessageBatch b) {
  for (const Message& m : b) {
    if (m.is_p2p()) {
      Layer::down_batch(std::move(b));  // mixed run: per-message path
      return;
    }
  }
  if (!is_sequencer()) {
    // Order requests leave point-to-point (one per message by design — the
    // sequencer acks them individually); nothing to amortize here.
    Layer::down_batch(std::move(b));
    return;
  }
  // Sequencer fast path: assign the whole run's global sequence numbers in
  // one pass — flat header encode, one amortized ordering charge (same
  // total CPU as per-message), one batched multicast below.
  const std::uint32_t origin = ctx().self().v;
  constexpr std::size_t kHdr = 21;  // u8 type + u64 gseq + u32 origin + u64 oseq
  Bytes& scratch = ctx().scratch();
  Writer w(scratch);
  w.reserve(kHdr * b.size());
  MessageBatch out;
  out.reserve(b.size());
  std::uint64_t ordered = 0;
  for (Message& m : b) {
    const std::uint64_t oseq = next_oseq_++;
    if (!sequenced_oseqs_[origin].insert(oseq)) {
      ++stats_.duplicates_dropped;  // unreachable for fresh oseqs; kept for parity
      continue;
    }
    const std::uint64_t gseq = next_gseq_++;
    ++stats_.sequenced;
    ++ordered;
    const std::size_t off = scratch.size();
    w.u8(static_cast<std::uint8_t>(Type::kSequenced));
    w.u64(gseq);
    w.u32(origin);
    w.u64(oseq);
    m.push_header_raw(std::span<const Byte>(scratch.data() + off, kHdr));
    history_.emplace(gseq, m.data);
    assigned_.emplace(std::make_pair(origin, oseq), gseq);
    m.point_to.reset();
    out.push_back(std::move(m));
  }
  ctx().consume_cpu(static_cast<Duration>(ordered) * cfg_.order_cost);
  ctx().send_down(std::move(out));
}

void SequencerLayer::up_batch(MessageBatch b) {
  MessageBatch out;
  // Handlers that may send (order requests, gap nacks) see the stack in the
  // same state as per-message execution: queued deliveries flush first.
  auto flush = [&] {
    if (!out.empty()) {
      ctx().deliver_up(std::move(out));
      out = MessageBatch{};
    }
  };
  for (Message& m : b) {
    Type type{};
    std::uint32_t origin = 0;
    std::uint64_t oseq = 0;
    std::uint64_t gseq = 0;
    std::vector<std::uint64_t> nack_gseqs;
    try {
      m.pop_header([&](Reader& r) {
        type = static_cast<Type>(r.u8());
        switch (type) {
          case Type::kOrderReq:
            origin = r.u32();
            oseq = r.u64();
            break;
          case Type::kSequenced:
            gseq = r.u64();
            origin = r.u32();
            oseq = r.u64();
            break;
          case Type::kGapNack: {
            const std::uint32_t count = r.count(8);
            nack_gseqs.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) nack_gseqs.push_back(r.u64());
            break;
          }
          case Type::kGcAck:
            origin = r.u32();
            gseq = r.u64();
            break;
          case Type::kHeartbeat:
            gseq = r.u64();
            break;
          case Type::kPass:
            break;
        }
      });
    } catch (const DecodeError&) {
      continue;  // drop the malformed message, keep its runmates
    }
    switch (type) {
      case Type::kOrderReq:
        flush();
        on_order_req(origin, oseq, std::move(m));
        break;
      case Type::kSequenced:
        on_sequenced(gseq, origin, oseq, std::move(m), &out);
        break;
      case Type::kGapNack:
        flush();
        on_gap_nack(m.wire_src, nack_gseqs);
        break;
      case Type::kGcAck:
        on_gc_ack(origin, gseq);
        break;
      case Type::kHeartbeat:
        highest_gseq_seen_ = std::max(highest_gseq_seen_, gseq);
        break;
      case Type::kPass:
        out.push_back(std::move(m));
        break;
    }
  }
  ctx().deliver_up(std::move(out));
}

void SequencerLayer::on_order_req(std::uint32_t origin, std::uint64_t oseq, Message m) {
  if (!is_sequencer()) return;  // misrouted
  sequence_and_multicast(origin, oseq, std::move(m));
}

void SequencerLayer::sequence_and_multicast(std::uint32_t origin, std::uint64_t oseq,
                                            Message m) {
  if (!sequenced_oseqs_[origin].insert(oseq)) {
    // Duplicate request: the original SEQUENCED copy to the origin was
    // probably lost. Retransmit it point-to-point if still in history.
    ++stats_.duplicates_dropped;
    auto at = assigned_.find({origin, oseq});
    if (at != assigned_.end()) {
      auto ht = history_.find(at->second);
      if (ht != history_.end()) {
        ++stats_.history_retransmissions;
        ctx().send_down(Message::p2p(NodeId{origin}, ht->second));
      }
    }
    return;
  }
  const std::uint64_t gseq = next_gseq_++;
  ++stats_.sequenced;
  ctx().consume_cpu(cfg_.order_cost);
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kSequenced));
    w.u64(gseq);
    w.u32(origin);
    w.u64(oseq);
  });
  history_.emplace(gseq, m.data);
  assigned_.emplace(std::make_pair(origin, oseq), gseq);
  m.point_to.reset();
  ctx().send_down(std::move(m));
}

void SequencerLayer::on_sequenced(std::uint64_t gseq, std::uint32_t origin, std::uint64_t oseq,
                                  Message m, MessageBatch* out) {
  highest_gseq_seen_ = std::max(highest_gseq_seen_, gseq + 1);
  if (origin == ctx().self().v) {
    pending_.erase(oseq);  // implicit ack
    if (pending_gauge_) pending_gauge_->set(static_cast<std::int64_t>(pending_.size()));
  }
  if (gseq < next_deliver_ || reorder_.count(gseq) > 0) {
    ++stats_.duplicates_dropped;
    return;
  }
  reorder_.emplace(gseq, std::move(m));
  for (auto it = reorder_.find(next_deliver_); it != reorder_.end();
       it = reorder_.find(next_deliver_)) {
    Message ready = std::move(it->second);
    reorder_.erase(it);
    ++next_deliver_;
    if (out != nullptr) {
      out->push_back(std::move(ready));
    } else {
      ctx().deliver_up(std::move(ready));
    }
  }
}

void SequencerLayer::on_gap_nack(NodeId requester, const std::vector<std::uint64_t>& gseqs) {
  if (!is_sequencer()) return;
  for (std::uint64_t gseq : gseqs) {
    auto it = history_.find(gseq);
    if (it == history_.end()) continue;
    ++stats_.history_retransmissions;
    ctx().send_down(Message::p2p(requester, it->second));
  }
}

void SequencerLayer::on_gc_ack(std::uint32_t from, std::uint64_t contiguous) {
  if (!is_sequencer()) return;
  auto& acked = gc_acked_[from];
  acked = std::max(acked, contiguous);
  if (gc_acked_.size() + 1 < ctx().member_count()) return;
  std::uint64_t min_acked = next_deliver_;  // the sequencer's own progress
  for (const auto& [member, a] : gc_acked_) min_acked = std::min(min_acked, a);
  while (!history_.empty() && history_.begin()->first < min_acked) {
    history_.erase(history_.begin());
  }
  // assigned_ is keyed by (origin, oseq), not gseq, so sweep it linearly.
  for (auto it = assigned_.begin(); it != assigned_.end();) {
    if (it->second < min_acked) {
      it = assigned_.erase(it);
    } else {
      ++it;
    }
  }
}

void SequencerLayer::retransmit_pending() {
  // Only nudge the oldest few requests per tick. Under sequencer overload
  // the pending set grows; blindly resending all of it floods the
  // sequencer with duplicates and collapses goodput entirely.
  constexpr std::size_t kMaxRetransmitBatch = 4;
  std::size_t n = 0;
  for (const auto& [oseq, bytes] : pending_) {
    if (++n > kMaxRetransmitBatch) break;
    ++stats_.requests_retransmitted;
    ctx().send_down(Message::p2p(sequencer(), bytes));
  }
  ctx().set_timer(cfg_.request_rto, [this] { retransmit_pending(); });
}

void SequencerLayer::send_gap_nacks() {
  // The sequencer's horizon is its own assignment counter: its loopback
  // SEQUENCED copies can be lost when the node crashes, and no other member
  // can serve a nack on its behalf — it refills such gaps straight from
  // local history instead (GC never collects below its own next_deliver_,
  // so the bytes are always still there).
  const std::uint64_t horizon = is_sequencer() ? next_gseq_ : highest_gseq_seen_;
  if (next_deliver_ < horizon) {
    // Enumerate gaps from the reorder buffer's keys — O(held + ranges),
    // not O(horizon - next_deliver_), which matters after a long partition.
    std::vector<std::uint64_t> missing;
    for (const SeqRange& r :
         missing_ranges_in(reorder_, next_deliver_, horizon, kMaxNackBatch)) {
      for (std::uint64_t g = r.begin; g < r.end; ++g) missing.push_back(g);
    }
    if (!missing.empty()) {
      if (is_sequencer()) {
        if (cfg_.fault_skip_self_refill) {
          // Injected bug: behave like the pre-fix sequencer that assumed
          // its loopback copies could never be lost.
          ctx().set_timer(cfg_.nack_interval, [this] { send_gap_nacks(); });
          return;
        }
        for (std::uint64_t g : missing) {
          auto it = history_.find(g);
          if (it == history_.end()) continue;
          ++stats_.history_retransmissions;
          ctx().send_down(Message::p2p(ctx().self(), it->second));
        }
      } else {
        ++stats_.gap_nacks_sent;
        tr_->instant(n_gap_nack_, TelemetryTrack::kData);
        Message m = Message::p2p(sequencer(), {});
        m.push_header([&](Writer& w) {
          w.u8(static_cast<std::uint8_t>(Type::kGapNack));
          w.u32(static_cast<std::uint32_t>(missing.size()));
          for (std::uint64_t g : missing) w.u64(g);
        });
        ctx().send_down(std::move(m));
      }
    }
  }
  ctx().set_timer(cfg_.nack_interval, [this] { send_gap_nacks(); });
}

void SequencerLayer::send_heartbeat() {
  if (next_gseq_ > 0) {
    Message m = Message::group({});
    const std::uint64_t horizon = next_gseq_;
    m.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(Type::kHeartbeat));
      w.u64(horizon);
    });
    ctx().send_down(std::move(m));
  }
  ctx().set_timer(cfg_.heartbeat_interval, [this] { send_heartbeat(); });
}

void SequencerLayer::send_gc_ack() {
  if (!is_sequencer()) {
    Message m = Message::p2p(sequencer(), {});
    const std::uint32_t self = ctx().self().v;
    const std::uint64_t contiguous = next_deliver_;
    m.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(Type::kGcAck));
      w.u32(self);
      w.u64(contiguous);
    });
    ctx().send_down(std::move(m));
  }
  ctx().set_timer(cfg_.ack_interval, [this] { send_gc_ack(); });
}

}  // namespace msw
