#include "proto/token_layer.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "util/log.hpp"
#include "util/seq_tracker.hpp"

namespace msw {
namespace {

enum class Type : std::uint8_t {
  kData = 0,
  kToken = 1,
  kTokenAck = 2,
  kNack = 3,
  kPass = 4,
};

constexpr std::size_t kMaxNackBatch = 64;

}  // namespace

void TokenLayer::start() {
  tr_ = &ctx().tracer();
  n_visit_ = tr_->intern("token.visit");
  n_gap_nack_ = tr_->intern("token.gap_nack");
  if (MetricsRegistry* reg = ctx().metrics()) {
    reg->attach_counter("token.visits", &stats_.token_visits);
    reg->attach_counter("token.retransmissions", &stats_.token_retransmissions);
    reg->attach_counter("token.gap_nacks_sent", &stats_.gap_nacks_sent);
    reg->attach_counter("token.history_retransmissions", &stats_.history_retransmissions);
    reg->attach_counter("token.duplicates_dropped", &stats_.duplicates_dropped);
  }
  ctx().set_timer(cfg_.nack_interval, [this] { send_gap_nacks(); });
  if (ctx().self_index() == 0) {
    // The first member originates the token. Processing it immediately
    // (serial 1) starts the perpetual rotation.
    Token t;
    t.serial = 1;
    t.delivered.assign(ctx().member_count(), 0);
    last_serial_seen_ = 1;
    ++stats_.token_visits;
    process_token(std::move(t));
  }
}

void TokenLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  // Group messages wait for the token.
  queued_.push_back(std::move(m));
}

void TokenLayer::up(Message m) {
  Type type{};
  std::uint64_t gseq = 0;
  std::uint64_t serial = 0;
  Token token;
  std::vector<std::uint64_t> nack_gseqs;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    switch (type) {
      case Type::kData:
        gseq = r.u64();
        break;
      case Type::kToken: {
        token.serial = r.u64();
        token.next_gseq = r.u64();
        const std::uint32_t n = r.count(8);
        token.delivered.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) token.delivered.push_back(r.u64());
        break;
      }
      case Type::kTokenAck:
        serial = r.u64();
        break;
      case Type::kNack: {
        const std::uint32_t count = r.count(8);
        nack_gseqs.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) nack_gseqs.push_back(r.u64());
        break;
      }
      case Type::kPass:
        break;
    }
  });
  switch (type) {
    case Type::kData:
      on_data(gseq, std::move(m));
      break;
    case Type::kToken:
      on_token(std::move(token), m.wire_src);
      break;
    case Type::kTokenAck:
      on_token_ack(serial);
      break;
    case Type::kNack:
      on_nack(m.wire_src, nack_gseqs);
      break;
    case Type::kPass:
      ctx().deliver_up(std::move(m));
      break;
  }
}

void TokenLayer::on_token(Token t, NodeId from) {
  // Always ack, even for duplicates: the predecessor keeps retransmitting
  // until it hears the ack.
  {
    Message ack = Message::p2p(from, {});
    const std::uint64_t serial = t.serial;
    ack.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(Type::kTokenAck));
      w.u64(serial);
    });
    ctx().send_down(std::move(ack));
  }
  if (t.serial <= last_serial_seen_) {
    ++stats_.duplicates_dropped;
    return;
  }
  last_serial_seen_ = t.serial;
  last_token_sender_ = from;
  ++stats_.token_visits;
  tr_->instant(n_visit_, TelemetryTrack::kData, queued_.size());
  process_token(std::move(t));
}

void TokenLayer::process_token(Token t) {
  if (t.delivered.size() != ctx().member_count()) {
    t.delivered.assign(ctx().member_count(), 0);  // defensive: malformed token
  }
  // The token's counter is the global-sequence horizon: even if the last
  // data multicast to us was lost, the next token visit exposes the gap.
  highest_gseq_seen_ = std::max(highest_gseq_seen_, t.next_gseq);
  ctx().consume_cpu(cfg_.token_process_cost);
  // Record our delivery progress for the stability watermark.
  t.delivered[ctx().self_index()] = next_deliver_;
  // Multicast queued messages, consuming global sequence numbers.
  std::size_t sent = 0;
  while (!queued_.empty() && sent < cfg_.batch_limit) {
    Message m = std::move(queued_.front());
    queued_.erase(queued_.begin());
    const std::uint64_t gseq = t.next_gseq++;
    m.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(Type::kData));
      w.u64(gseq);
    });
    history_.emplace(gseq, m.data);
    ctx().send_down(std::move(m));
    ++sent;
  }
  // Garbage-collect our history below the group-wide stability watermark.
  const std::uint64_t watermark =
      *std::min_element(t.delivered.begin(), t.delivered.end());
  while (!history_.empty() && history_.begin()->first < watermark) {
    history_.erase(history_.begin());
  }
  if (cfg_.idle_hold > 0) {
    ctx().set_timer(cfg_.idle_hold, [this, t = std::move(t)]() mutable {
      forward_token(std::move(t));
    });
  } else {
    forward_token(std::move(t));
  }
}

Payload TokenLayer::encode_token(const Token& t) const {
  Message m = Message::group({});
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kToken));
    w.u64(t.serial);
    w.u64(t.next_gseq);
    w.u32(static_cast<std::uint32_t>(t.delivered.size()));
    for (std::uint64_t d : t.delivered) w.u64(d);
  });
  return std::move(m.data);
}

void TokenLayer::forward_token(Token t) {
  ++t.serial;
  outstanding_serial_ = t.serial;
  outstanding_bytes_ = encode_token(t);
  const NodeId succ = ctx().ring_successor();
  ctx().send_down(Message::p2p(succ, outstanding_bytes_));
  arm_token_retransmit(t.serial);
}

void TokenLayer::arm_token_retransmit(std::uint64_t serial) {
  ctx().set_timer(cfg_.token_rto, [this, serial] {
    if (outstanding_serial_ != serial) return;  // acked meanwhile
    ++stats_.token_retransmissions;
    ctx().send_down(Message::p2p(ctx().ring_successor(), outstanding_bytes_));
    arm_token_retransmit(serial);
  });
}

void TokenLayer::on_token_ack(std::uint64_t serial) {
  if (serial == outstanding_serial_) {
    outstanding_serial_ = 0;
    outstanding_bytes_.clear();
  }
}

void TokenLayer::on_data(std::uint64_t gseq, Message m) {
  highest_gseq_seen_ = std::max(highest_gseq_seen_, gseq + 1);
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
    ctx().deliver_up(std::move(ready));
  }
}

void TokenLayer::on_nack(NodeId requester, const std::vector<std::uint64_t>& gseqs) {
  for (std::uint64_t gseq : gseqs) {
    auto it = history_.find(gseq);
    if (it == history_.end()) continue;  // not ours (or already collected)
    ++stats_.history_retransmissions;
    ctx().send_down(Message::p2p(requester, it->second));
  }
}

void TokenLayer::send_gap_nacks() {
  if (next_deliver_ < highest_gseq_seen_) {
    // Gap enumeration walks the reorder buffer's keys — O(held + ranges),
    // not O(highest_gseq_seen_ - next_deliver_).
    std::vector<std::uint64_t> missing;
    for (const SeqRange& r :
         missing_ranges_in(reorder_, next_deliver_, highest_gseq_seen_, kMaxNackBatch)) {
      for (std::uint64_t g = r.begin; g < r.end; ++g) missing.push_back(g);
    }
    if (!missing.empty()) {
      ++stats_.gap_nacks_sent;
      tr_->instant(n_gap_nack_, TelemetryTrack::kData, missing.size());
      Message m = Message::group({});
      m.push_header([&](Writer& w) {
        w.u8(static_cast<std::uint8_t>(Type::kNack));
        w.u32(static_cast<std::uint32_t>(missing.size()));
        for (std::uint64_t g : missing) w.u64(g);
      });
      ctx().send_down(std::move(m));
    }
  }
  ctx().set_timer(cfg_.nack_interval, [this] { send_gap_nacks(); });
}

}  // namespace msw
