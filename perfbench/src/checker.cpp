#include "checker.hpp"

#include "report.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

constexpr Byte kMagic = 0xB7;
constexpr std::size_t kSummed = 14;  // bytes covered by the checksum

std::uint16_t checksum(const Byte* p) {
  std::uint32_t h = 2166136261u;  // FNV-1a
  for (std::size_t i = 0; i < kSummed; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return static_cast<std::uint16_t>(h ^ (h >> 16));
}

template <typename T>
void put_le(Byte* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) out[i] = static_cast<Byte>(v >> (8 * i));
}

template <typename T>
T get_le(const Byte* in) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(in[i]) << (8 * i);
  return v;
}

constexpr std::size_t kMaxNotes = 8;

struct PayloadFields {
  std::uint32_t sender = 0;
  std::uint32_t seq = 0;
  std::int64_t due_ns = 0;
};

void encode_payload(const PayloadFields& f, Byte* out) {
  out[0] = kMagic;
  out[1] = static_cast<Byte>(f.sender);
  put_le<std::uint32_t>(out + 2, f.seq);
  put_le<std::uint64_t>(out + 6, static_cast<std::uint64_t>(f.due_ns));
  put_le<std::uint16_t>(out + 14, checksum(out));
}

/// The id fields, without validating the checksum. `b` holds at least
/// kPayloadBytes.
PayloadFields decode_payload(std::span<const Byte> b) {
  PayloadFields f;
  f.sender = b[1];
  f.seq = get_le<std::uint32_t>(b.data() + 2);
  f.due_ns = static_cast<std::int64_t>(get_le<std::uint64_t>(b.data() + 6));
  return f;
}

}  // namespace

bool looks_like_payload(std::span<const Byte> b) {
  return b.size() >= kPayloadBytes && b[0] == kMagic &&
         get_le<std::uint16_t>(b.data() + kSummed) == checksum(b.data());
}

std::uint32_t Schedule::add(std::uint32_t sender, std::int64_t due_ns) {
  auto& seqs = by_sender_.at(sender);
  const auto index = static_cast<std::uint32_t>(ops_.size());
  ops_.push_back(Op{sender, static_cast<std::uint32_t>(seqs.size()), due_ns});
  seqs.push_back(index);
  return index;
}

std::int64_t Schedule::find(std::uint32_t sender, std::uint32_t seq) const {
  if (sender >= by_sender_.size() || seq >= by_sender_[sender].size()) return -1;
  return by_sender_[sender][seq];
}

msw::Bytes Schedule::payload(std::uint32_t i) const {
  const Op& o = ops_[i];
  msw::Bytes b(kPayloadBytes);
  encode_payload(PayloadFields{o.sender, o.seq, o.due_ns}, b.data());
  return b;
}

DeliveryChecker::DeliveryChecker(const Schedule& schedule, std::size_t members, Order order)
    : schedule_(schedule), order_(order), logs_(members) {
  for (auto& l : logs_) l.reserve(schedule.size());
  latency_ns_.reserve(schedule.size() * members);
  latency_op_.reserve(schedule.size() * members);
}

void DeliveryChecker::on_deliver(std::size_t member, std::span<const Byte> body,
                                 std::int64_t now_ns) {
  std::int64_t op = -1;
  if (body.size() == kPayloadBytes) {
    const PayloadFields f = decode_payload(body);
    op = schedule_.find(f.sender, f.seq);
  }
  if (op < 0) {
    ++spurious_;
    return;
  }
  const auto i = static_cast<std::uint32_t>(op);
  const Schedule::Op& o = schedule_.op(i);
  Byte want[kPayloadBytes];
  encode_payload(PayloadFields{o.sender, o.seq, o.due_ns}, want);
  if (std::memcmp(want, body.data(), kPayloadBytes) != 0) {
    corrupt_.push_back(Corrupt{i, member});
    return;
  }
  logs_[member].push_back(i);
  latency_ns_.push_back(now_ns - o.due_ns);
  latency_op_.push_back(i);
  delivered_.fetch_add(1, std::memory_order_relaxed);
}

DeliveryChecker::Result DeliveryChecker::finish() {
  Result r;
  const std::size_t n_ops = schedule_.size();
  r.attempted = n_ops;
  r.spurious = spurious_;
  std::vector<bool> failed(n_ops, false);
  auto fail = [&](std::uint32_t op, std::size_t member, const char* why) {
    if (!failed[op] && r.notes.size() < kMaxNotes) {
      const Schedule::Op& o = schedule_.op(op);
      r.notes.push_back(std::string(why) + ": sender " + std::to_string(o.sender) + " seq " +
                        std::to_string(o.seq) + " at member " + std::to_string(member));
    }
    failed[op] = true;
  };

  for (const Corrupt& c : corrupt_) fail(c.op, c.member, "wrong payload bytes");

  // Exactly once at every member.
  std::vector<std::uint8_t> count(n_ops);
  for (std::size_t m = 0; m < logs_.size(); ++m) {
    std::fill(count.begin(), count.end(), 0);
    for (const std::uint32_t op : logs_[m]) count[op] = std::min(count[op] + 1, 2);
    for (std::uint32_t op = 0; op < n_ops; ++op) {
      if (count[op] == 0) fail(op, m, "not delivered");
      if (count[op] > 1) fail(op, m, "delivered twice");
    }
  }

  // Order. A delivery that comes after one it should precede fails; the
  // running maximum keeps one swap from failing every later message.
  if (order_ == Order::kFifo) {
    std::vector<std::int64_t> max_seq(schedule_.senders());
    for (std::size_t m = 0; m < logs_.size(); ++m) {
      std::fill(max_seq.begin(), max_seq.end(), -1);
      for (const std::uint32_t op : logs_[m]) {
        const Schedule::Op& o = schedule_.op(op);
        if (static_cast<std::int64_t>(o.seq) <= max_seq[o.sender]) {
          fail(op, m, "out of sender order");
        } else {
          max_seq[o.sender] = o.seq;
        }
      }
    }
  } else if (!logs_.empty()) {
    // Member 0's sequence is the reference; every other member must
    // deliver the operations it shares with member 0 in the same order.
    constexpr std::uint32_t kAbsent = 0xffffffffu;
    std::vector<std::uint32_t> rank(n_ops, kAbsent);
    std::uint32_t pos = 0;
    for (const std::uint32_t op : logs_[0]) {
      if (rank[op] == kAbsent) rank[op] = pos++;
    }
    for (std::size_t m = 1; m < logs_.size(); ++m) {
      std::int64_t max_rank = -1;
      for (const std::uint32_t op : logs_[m]) {
        if (rank[op] == kAbsent) continue;
        if (static_cast<std::int64_t>(rank[op]) <= max_rank) {
          fail(op, m, "total order differs from member 0");
        } else {
          max_rank = rank[op];
        }
      }
    }
  }

  r.failed = static_cast<std::uint64_t>(std::count(failed.begin(), failed.end(), true));
  r.latency_ns = std::move(latency_ns_);
  r.latency_op = std::move(latency_op_);
  return r;
}

LatencySummary summarize_latency(const Schedule& s, const DeliveryChecker::Result& r,
                                 const std::vector<std::int64_t>* start_ns) {
  std::vector<double> us(r.latency_ns.size());
  for (std::size_t i = 0; i < us.size(); ++i) {
    const std::uint32_t op = r.latency_op[i];
    const std::int64_t shift = start_ns != nullptr ? s.op(op).due_ns - (*start_ns)[op] : 0;
    us[i] = static_cast<double>(r.latency_ns[i] + shift) / 1e3;
  }
  LatencySummary out;
  out.p50_us = percentile(us, 0.50);
  out.p90_us = percentile(us, 0.90);
  out.p99_us = percentile(std::move(us), 0.99);
  return out;
}

}  // namespace perfbench
