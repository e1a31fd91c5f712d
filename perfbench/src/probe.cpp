#include "probe.hpp"

#include <time.h>

#include <cstdio>

#include "checker.hpp"
#include "switch/hybrid.hpp"

namespace perfbench {

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

SpanRecorder::SpanRecorder(std::size_t keep_limit)
    : keep_limit_(keep_limit), origin_ns_(mono_ns()) {
  open_.reserve(64);
  kept_.reserve(keep_limit);
}

std::uint32_t SpanRecorder::id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanRecorder::begin(std::uint32_t id, std::uint32_t msgs, bool entry) {
  if (entry) totals_[id].entry_msgs += msgs;
  open_.push_back(Open{id, mono_ns(), 0});
}

void SpanRecorder::end() {
  const Open o = open_.back();
  open_.pop_back();
  const std::int64_t dur = mono_ns() - o.start;
  Totals& t = totals_[o.id];
  t.total_ns += dur;
  t.self_ns += dur - o.child;
  if (open_.empty()) {
    root_ns_ += dur;
  } else {
    open_.back().child += dur;
  }
  if (kept_.size() < keep_limit_) kept_.push_back(Kept{o.id, o.start, dur});
}

void SpanRecorder::reset_totals() {
  for (Totals& t : totals_) t = Totals{};
  root_ns_ = 0;
}

SpanRecorder::Totals SpanRecorder::totals(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return Totals{};
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  std::fputs(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"stack thread\"}}",
      f);
  for (const Kept& k : kept_) {
    std::fprintf(f, ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 names_[k.id].c_str(), static_cast<double>(k.start - origin_ns_) / 1e3,
                 static_cast<double>(k.dur) / 1e3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void ProbeLayer::count_sent(const msw::Message& m) {
  SpanRecorder::Totals& t = rec_.totals_mut(down_.id);
  t.copies += m.is_p2p() ? 1 : ctx().member_count();
  if (looks_like_payload(m.data.view())) {
    ++t.data_frames;
    t.header_bytes += m.size() - kPayloadBytes;
  }
}

void ProbeLayer::down(msw::Message m) {
  if (bottom_) count_sent(m);
  ScopedSpan s(rec_, down_.id, 1, down_.entry);
  ctx().send_down(std::move(m));
}

void ProbeLayer::up(msw::Message m) {
  ScopedSpan s(rec_, up_.id, 1, up_.entry);
  ctx().deliver_up(std::move(m));
}

void ProbeLayer::down_batch(msw::MessageBatch b) {
  if (bottom_) {
    for (const msw::Message& m : b) count_sent(m);
  }
  ScopedSpan s(rec_, down_.id, static_cast<std::uint32_t>(b.size()), down_.entry);
  ctx().send_down(std::move(b));
}

void ProbeLayer::up_batch(msw::MessageBatch b) {
  ScopedSpan s(rec_, up_.id, static_cast<std::uint32_t>(b.size()), up_.entry);
  ctx().deliver_up(std::move(b));
}

namespace {

/// The layers of `inner` with a probe above, between and below them.
/// `above` and `below` name what lies outside the chain ("app" and
/// "transport" for a whole stack, the enclosing layer for a sub-chain).
/// `outer_entry` is true for a whole stack: its outer boundaries are where
/// messages enter the app and the transport.
std::vector<std::unique_ptr<msw::Layer>> interleave_probes(
    SpanRecorder& rec, std::vector<std::unique_ptr<msw::Layer>> inner, std::string_view above,
    std::string_view below, bool outer_entry) {
  auto side = [&rec](std::string_view layer, const char* dir, bool entry) {
    return ProbeLayer::Side{rec.id(std::string(layer) + dir), entry};
  };
  std::vector<std::unique_ptr<msw::Layer>> out;
  std::string_view up_name = above;
  bool up_entry = outer_entry;
  for (auto& layer : inner) {
    const std::string_view name = layer->name();
    out.push_back(std::make_unique<ProbeLayer>(rec, side(name, ".down", true),
                                               side(up_name, ".up", up_entry), false));
    up_name = out.emplace_back(std::move(layer))->name();
    up_entry = true;
  }
  out.push_back(std::make_unique<ProbeLayer>(rec, side(below, ".down", outer_entry),
                                             side(up_name, ".up", up_entry), outer_entry));
  return out;
}

msw::LayerFactory probed_stack(SpanRecorder& rec, msw::LayerFactory inner) {
  return [&rec, inner = std::move(inner)](msw::NodeId self,
                                          const std::vector<msw::NodeId>& members) {
    return interleave_probes(rec, inner(self, members), "app", "transport", true);
  };
}

msw::LayerFactory probed_sub_chain(SpanRecorder& rec, msw::LayerFactory inner) {
  return [&rec, inner = std::move(inner)](msw::NodeId self,
                                          const std::vector<msw::NodeId>& members) {
    return interleave_probes(rec, inner(self, members), "switch", "switch", false);
  };
}

}  // namespace

msw::LayerFactory traced_reliable_fifo_factory(SpanRecorder& rec) {
  return probed_stack(rec, msw::make_reliable_fifo_factory());
}

msw::LayerFactory traced_hybrid_factory(SpanRecorder& rec) {
  const msw::HybridConfig cfg;
  return probed_stack(
      rec, msw::make_switch_factory(probed_sub_chain(rec, msw::make_sequencer_factory(cfg.sequencer)),
                                    probed_sub_chain(rec, msw::make_token_factory(cfg.token)),
                                    cfg.oracle, cfg.sp));
}

}  // namespace perfbench
