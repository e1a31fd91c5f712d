// Probe layer and in-memory span recorder for the traced run.
//
// A ProbeLayer sits between two layers and passes every message through
// unchanged — single messages and whole batches alike (forwarding a batch
// whole keeps the layers below on their batched path; the Layer defaults
// would unroll it and change what is measured). Around each send_down and
// deliver_up it records a span. A span's self time is its duration minus
// the time covered by its child spans, so the self time of the span a
// probe opens on the way down is the cost of the layer directly below it,
// and on the way up the cost of the layer directly above it.
//
// One recorder serves one thread: the shard thread of a runtime workload,
// or the thread driving a simulation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stack/layer.hpp"

namespace perfbench {

/// Monotonic clock reading in ns.
std::int64_t mono_ns();

class SpanRecorder {
 public:
  /// `keep_limit` spans are kept for the Chrome trace; totals cover all.
  explicit SpanRecorder(std::size_t keep_limit = 200000);

  /// Interned id of a span name ("fifo.down", "stack.send", ...).
  std::uint32_t id(std::string_view name);

  /// Opens a span. `msgs` counts the messages it carries; `entry` marks
  /// the boundary where they enter the named layer, so per-message costs
  /// divide by messages that entered rather than by every crossing.
  void begin(std::uint32_t id, std::uint32_t msgs, bool entry);
  void end();

  struct Totals {
    std::uint64_t entry_msgs = 0;  // messages counted at entry boundaries
    std::int64_t total_ns = 0;     // sum of durations
    std::int64_t self_ns = 0;      // sum of durations minus child spans
    // Bottom-of-stack send counters (only the bottom probe sets them).
    std::uint64_t copies = 0;        // destinations of every frame sent
    std::uint64_t data_frames = 0;   // frames carrying an application payload
    std::uint64_t header_bytes = 0;  // their size beyond the payload
  };
  /// Totals for a span name; zeros when the name never occurred.
  Totals totals(std::string_view name) const;
  Totals& totals_mut(std::uint32_t id) { return totals_[id]; }

  /// Zeroes every total (not the kept spans). Call with no span open.
  void reset_totals();

  /// Time covered by spans with no parent.
  std::int64_t root_ns() const { return root_ns_; }

  /// Writes the kept spans as Chrome trace_event JSON (opens in Perfetto).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t id;
    std::int64_t start;
    std::int64_t child;
  };
  struct Kept {
    std::uint32_t id;
    std::int64_t start;
    std::int64_t dur;
  };
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::size_t keep_limit_;
  std::int64_t root_ns_ = 0;
  std::int64_t origin_ns_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& r, std::uint32_t id, std::uint32_t msgs, bool entry) : r_(r) {
    r_.begin(id, msgs, entry);
  }
  ~ScopedSpan() { r_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& r_;
};

class ProbeLayer final : public msw::Layer {
 public:
  /// Span name and entry flag for one direction.
  struct Side {
    std::uint32_t id = 0;
    bool entry = false;
  };
  /// `bottom` marks the probe directly above the stack's network boundary;
  /// it also counts copies, application data frames and their header bytes.
  ProbeLayer(SpanRecorder& rec, Side down, Side up, bool bottom)
      : rec_(rec), down_(down), up_(up), bottom_(bottom) {}

  std::string_view name() const override { return "probe"; }

  void down(msw::Message m) override;
  void up(msw::Message m) override;
  void down_batch(msw::MessageBatch b) override;
  void up_batch(msw::MessageBatch b) override;

 private:
  void count_sent(const msw::Message& m);

  SpanRecorder& rec_;
  Side down_;
  Side up_;
  bool bottom_;
};

/// The reliable-FIFO stack of make_reliable_fifo_factory, with a probe
/// above, between and below its layers. Spans are named "<layer>.down" /
/// "<layer>.up" after the layer whose cost they hold; "app" and
/// "transport" name what lies above and below the stack.
msw::LayerFactory traced_reliable_fifo_factory(SpanRecorder& rec);
/// The hybrid stack of make_hybrid_total_order_factory, probed around the
/// SwitchLayer and inside its sequencer and token sub-chains.
msw::LayerFactory traced_hybrid_factory(SpanRecorder& rec);

}  // namespace perfbench
