// Untrusted element counts in the wire decoders: a frame that claims
// 0xFFFFFFFF entries while holding none must end as a dropped frame at every
// member, never as a reservation of gigabytes and a std::bad_alloc escaping
// the event loop. One test per layer that decodes a u32 count (the
// ReliableLayer legacy frames are covered in test_reliable_wire). Each frame
// is injected from a node outside the group, once on its own (the
// per-message receive path) and once as a run of two (the batched path),
// and the group must still deliver afterwards.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/causal_layer.hpp"
#include "proto/fifo_layer.hpp"
#include "proto/sequencer_layer.hpp"
#include "proto/token_layer.hpp"
#include "proto/vsync_layer.hpp"
#include "switch/hybrid.hpp"
#include "switch/multiplex_layer.hpp"
#include "telemetry/hub.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

constexpr std::uint32_t kHugeCount = 0xFFFFFFFF;

template <typename L>
LayerFactory single_layer() {
  return [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<L>());
    return layers;
  };
}

Payload frame(FunctionRef<void(Writer&)> fill) {
  Message m = Message::group({});
  m.push_header(fill);
  return m.data;
}

void inject_and_expect_drop(GroupHarness& h, const Payload& evil) {
  const NodeId stranger = h.net.add_node();
  h.net.multicast(stranger, h.group.members(), evil);
  const std::vector<Payload> run{evil, evil};
  h.net.multicast_run(stranger, h.group.members(), run);
  EXPECT_NO_THROW(h.sim.run_for(kSecond));
  // The frames changed nothing: the group still delivers.
  h.group.send(0, to_bytes("still-alive"));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < h.group.size(); ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
  }
}

TEST(WireCounts, SequencerGapNackHugeCountDropped) {
  GroupHarness h(3, single_layer<SequencerLayer>());
  const Payload evil = frame([](Writer& w) {
    w.u8(2);  // kGapNack
    w.u32(kHugeCount);
  });
  EXPECT_EQ(evil.size(), 9u);  // type, count and the header length word
  inject_and_expect_drop(h, evil);
}

TEST(WireCounts, TokenNackHugeCountDropped) {
  GroupHarness h(3, single_layer<TokenLayer>());
  inject_and_expect_drop(h, frame([](Writer& w) {
                           w.u8(3);  // kNack
                           w.u32(kHugeCount);
                         }));
}

TEST(WireCounts, TokenDeliveredListHugeCountDropped) {
  GroupHarness h(3, single_layer<TokenLayer>());
  inject_and_expect_drop(h, frame([](Writer& w) {
                           w.u8(1);   // kToken
                           w.u64(1);  // serial
                           w.u64(0);  // next gseq
                           w.u32(kHugeCount);
                         }));
}

TEST(WireCounts, SwitchTokenHugeCountDropped) {
  GroupHarness h(3, make_hybrid_total_order_factory());
  Message m = Message::group({});
  m.push_header([](Writer& w) {
    w.u8(0);   // CtlType::kToken
    w.u8(0);   // mode
    w.u64(1);  // serial
    w.u64(0);  // epoch
    w.u32(0);  // initiator
    w.u32(kHugeCount);
  });
  Mux::push(m, 2);  // SP control channel
  inject_and_expect_drop(h, m.data);
}

TEST(WireCounts, CausalVectorClockHugeCountDropped) {
  GroupHarness h(3, single_layer<CausalLayer>());
  inject_and_expect_drop(h, frame([](Writer& w) {
                           w.u8(0);   // kData
                           w.u32(0);  // origin
                           w.u32(kHugeCount);
                         }));
}

TEST(WireCounts, VsyncMemberListsHugeCountDropped) {
  GroupHarness h(3, single_layer<VsyncLayer>());
  const NodeId stranger = h.net.add_node();
  h.net.multicast(stranger, h.group.members(), frame([](Writer& w) {
                    w.u8(3);   // kCut
                    w.u64(1);  // view id
                    w.u32(kHugeCount);
                  }));
  inject_and_expect_drop(h, frame([](Writer& w) {
                           w.u8(1);   // kFlushReq
                           w.u64(1);  // view id
                           w.u32(kHugeCount);
                         }));
  Bytes body;
  Writer w(body);
  w.u32(kHugeCount);
  w.u32(0);
  EXPECT_THROW(decode_view_body(body), DecodeError);
}

TEST(WireCounts, OneByteFrameCountedAsStackDecodeDrop) {
  // FifoLayer lets a short header escape as DecodeError; the stack boundary
  // drops the frame and counts it once.
  GroupHarness h(3, single_layer<FifoLayer>());
  const MetricsRegistry& reg = h.sim.telemetry().node_metrics(h.group.node(1).v);
  const auto drops = [&reg] {
    const MetricsRegistry::Entry* e = reg.find("stack.decode_drops");
    return e == nullptr ? -1.0 : reg.value_of(*e);
  };
  ASSERT_EQ(drops(), 0.0);
  const NodeId stranger = h.net.add_node();
  h.net.send(stranger, h.group.node(1), Payload(Bytes{Byte{0}}));
  EXPECT_NO_THROW(h.sim.run_for(kSecond));
  EXPECT_EQ(drops(), 1.0);
  h.group.send(0, to_bytes("still-alive"));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < h.group.size(); ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
  }
  EXPECT_EQ(drops(), 1.0);
}

}  // namespace
}  // namespace msw
