// Reading layer state out of the stacks the workloads build, with or
// without probes between the layers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "proto/reliable_layer.hpp"
#include "proto/sequencer_layer.hpp"
#include "proto/token_layer.hpp"
#include "stack/stack.hpp"
#include "switch/switch_layer.hpp"

namespace perfbench {

/// The first layer of type T in the stack's top-level chain.
template <typename T>
T* find_layer(msw::Stack& s) {
  for (std::size_t i = 0; i < s.chain().size(); ++i) {
    if (T* p = dynamic_cast<T*>(&s.chain().layer(i))) return p;
  }
  return nullptr;
}

/// Protocol counters summed over a group's members.
struct StackCounters {
  std::uint64_t reliable_retransmits = 0;
  std::uint64_t sequencer_gap_nacks = 0;
  std::uint64_t token_retransmits = 0;
  std::uint64_t token_visits = 0;
  std::uint64_t switch_token_hops = 0;
  std::uint64_t switch_buffered_max = 0;
  std::vector<std::uint64_t> switches;  // completed switchovers, per member

  /// Adds member `s`. In a probed stack each sub-chain holds a probe above
  /// its protocol layer, so the protocol sits at index 1 instead of 0.
  void add(msw::Stack& s, bool probed) {
    if (auto* rel = find_layer<msw::ReliableLayer>(s)) {
      reliable_retransmits += rel->stats().retransmissions;
    }
    if (auto* sw = find_layer<msw::SwitchLayer>(s)) {
      const std::size_t at = probed ? 1 : 0;
      const auto& seq = dynamic_cast<msw::SequencerLayer&>(sw->sub_layer(0, at));
      const auto& tok = dynamic_cast<msw::TokenLayer&>(sw->sub_layer(1, at));
      sequencer_gap_nacks += seq.stats().gap_nacks_sent;
      token_retransmits += tok.stats().history_retransmissions;
      token_visits += tok.stats().token_visits;
      switch_token_hops += sw->stats().token_hops;
      switch_buffered_max = std::max(switch_buffered_max, sw->stats().max_buffered);
      switches.push_back(sw->stats().switches_completed);
    }
  }

  /// Empty when every member completed `requested` switchovers, else which
  /// member fell short.
  std::string switch_shortfall(std::size_t requested) const {
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (switches[i] != requested) {
        return "member " + std::to_string(i) + " completed " + std::to_string(switches[i]) +
               " of " + std::to_string(requested) + " switches";
      }
    }
    return {};
  }

  /// Counts accumulated since `before` (maxima and per-member totals are
  /// kept as they are).
  StackCounters since(const StackCounters& before) const {
    StackCounters d = *this;
    d.reliable_retransmits -= before.reliable_retransmits;
    d.sequencer_gap_nacks -= before.sequencer_gap_nacks;
    d.token_retransmits -= before.token_retransmits;
    d.token_visits -= before.token_visits;
    d.switch_token_hops -= before.switch_token_hops;
    return d;
  }
};

/// One requested switch, watched from outside until every member has
/// switched over. Times are on the workload's clock.
struct SwitchWatch {
  std::int64_t requested = 0;
  std::int64_t last_done = 0;
  std::vector<bool> done;  // per member

  /// Marks the members whose switchover number k+1 has happened, as of
  /// `now`, and appends their member-side durations to `local_us`.
  /// Returns true once every member has switched over.
  bool poll(const std::vector<msw::SwitchLayer*>& layers, std::size_t k, std::int64_t now,
            std::vector<double>& local_us) {
    done.resize(layers.size());
    bool all = true;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (done[i]) continue;
      const auto& st = layers[i]->stats();
      if (st.switches_completed >= k + 1) {
        done[i] = true;
        last_done = now;
        local_us.push_back(static_cast<double>(st.last_local_switch_duration));
      } else {
        all = false;
      }
    }
    return all;
  }
};

}  // namespace perfbench
