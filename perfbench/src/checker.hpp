// Delivery checking shared by every workload.
//
// The benchmark writes its whole send schedule before the timed phase
// (open loop: every multicast has a fixed due time), so the schedule is
// the benchmark's own record of what was sent. Each application payload
// carries the sender, its per-sender sequence number, its due time and a
// checksum; the checker compares every delivery a member reports through
// Stack::set_on_deliver against the bytes the schedule says were sent.
//
// An operation is one application multicast. It fails when any member
// does not deliver it exactly once, with the right bytes, in the order the
// stack promises: per-sender FIFO, or one total order shared by every
// member.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace perfbench {

using msw::Byte;

/// Wire form of one application payload (16 bytes):
///   [0] magic, [1] sender index, [2..6) per-sender seq (LE),
///   [6..14) due time in ns after the run's time origin (LE),
///   [14..16) checksum of bytes [0..14).
inline constexpr std::size_t kPayloadBytes = 16;

/// True when `b` starts with a well-formed payload (magic and checksum).
/// The probe layer uses it to tell application data frames from control
/// frames at the bottom of a stack.
bool looks_like_payload(std::span<const Byte> b);

/// The open-loop send schedule: operations in due-time order.
class Schedule {
 public:
  struct Op {
    std::uint32_t sender = 0;
    std::uint32_t seq = 0;
    std::int64_t due_ns = 0;
  };

  explicit Schedule(std::size_t senders) : by_sender_(senders) {}

  /// Appends a multicast from `sender` due at `due_ns`; returns its index.
  std::uint32_t add(std::uint32_t sender, std::int64_t due_ns);

  std::size_t size() const { return ops_.size(); }
  std::size_t senders() const { return by_sender_.size(); }
  const Op& op(std::uint32_t i) const { return ops_[i]; }
  /// Operation index of (sender, seq), or -1 when no such send exists.
  std::int64_t find(std::uint32_t sender, std::uint32_t seq) const;
  /// The exact bytes sent for operation i.
  msw::Bytes payload(std::uint32_t i) const;

 private:
  std::vector<Op> ops_;
  std::vector<std::vector<std::uint32_t>> by_sender_;  // seq -> op index
};

enum class Order { kFifo, kTotal };

class DeliveryChecker {
 public:
  /// `schedule` must outlive the checker and stay unchanged while
  /// deliveries are reported.
  DeliveryChecker(const Schedule& schedule, std::size_t members, Order order);

  /// One application delivery at `member`, at `now_ns` on the clock the
  /// schedule's due times use. Called from the single thread that runs the
  /// stacks.
  void on_deliver(std::size_t member, std::span<const Byte> body, std::int64_t now_ns);

  /// Correct deliveries so far; safe to read from any thread.
  std::uint64_t delivered() const { return delivered_.load(std::memory_order_relaxed); }
  /// Deliveries needed for every member to deliver every operation.
  std::uint64_t expected() const { return schedule_.size() * logs_.size(); }

  struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Deliveries that name no scheduled operation.
    std::uint64_t spurious = 0;
    /// Due time to delivery, one entry per correct (operation, member)
    /// delivery, and the operation each entry belongs to.
    std::vector<std::int64_t> latency_ns;
    std::vector<std::uint32_t> latency_op;
    /// Human-readable reasons for the first few failures.
    std::vector<std::string> notes;
  };

  /// Evaluates every check. Call once, after the last delivery.
  Result finish();

  /// The delivery sequence (operation indices) seen at `member`.
  const std::vector<std::uint32_t>& log(std::size_t member) const { return logs_[member]; }

 private:
  const Schedule& schedule_;
  Order order_;
  std::vector<std::vector<std::uint32_t>> logs_;  // per member, op indices
  struct Corrupt {
    std::uint32_t op;
    std::size_t member;
  };
  std::vector<Corrupt> corrupt_;  // deliveries with wrong bytes
  std::vector<std::int64_t> latency_ns_;
  std::vector<std::uint32_t> latency_op_;
  std::uint64_t spurious_ = 0;
  std::atomic<std::uint64_t> delivered_{0};
};

/// Latency quantiles in µs over every (operation, member) delivery.
struct LatencySummary {
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};
/// Timed from each operation's due time, or, when `start_ns` is given,
/// from start_ns[op] on the same clock.
LatencySummary summarize_latency(const Schedule& s, const DeliveryChecker::Result& r,
                                 const std::vector<std::int64_t>* start_ns = nullptr);

}  // namespace perfbench
