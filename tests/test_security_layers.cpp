// Integrity, Confidentiality, and No Replay layers, including active
// adversaries: forged packets, spoofed senders, eavesdropping, and replay
// of recorded transmissions.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "proto/confidentiality_layer.hpp"
#include "proto/integrity_layer.hpp"
#include "proto/noreplay_layer.hpp"
#include "rt/sim_transport.hpp"
#include "util/digest.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

constexpr std::uint64_t kGroupKey = 0xfeedface;

std::vector<IntegrityLayer*> g_integrity;
std::vector<NoReplayLayer*> g_noreplay;

LayerFactory integrity_stack(std::uint64_t key) {
  return [key](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<IntegrityLayer>(key);
    g_integrity.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(l));
    return layers;
  };
}

/// Records every frame this node puts on the wire (below all layers).
class TapLayer : public Layer {
 public:
  std::string_view name() const override { return "tap"; }
  void down(Message m) override {
    frames.push_back(m.data);  // shares the wire buffer
    ctx().send_down(std::move(m));
  }
  std::vector<Payload> frames;
};

class SecurityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_integrity.clear();
    g_noreplay.clear();
  }
};

TEST_F(SecurityTest, LegitimateTrafficPassesIntegrity) {
  GroupHarness h(3, integrity_stack(kGroupKey));
  for (int i = 0; i < 5; ++i) h.group.send(0, to_bytes("ok"));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 5u);
  }
  for (auto* l : g_integrity) EXPECT_EQ(l->stats().rejected, 0u);
}

TEST_F(SecurityTest, ForgedMacRejected) {
  GroupHarness h(3, integrity_stack(kGroupKey));
  // Attacker node (not a member) crafts a wire-format message with a MAC
  // computed under the WRONG key.
  const NodeId attacker = h.net.add_node();
  Message forged = Message::group(to_bytes("evil"));
  AppHeader::push(forged, AppHeader{AppHeader::Kind::kData, 99, 0});
  const std::uint64_t bad_tag = mac(kGroupKey + 1, 99, forged.data);
  forged.push_header([&](Writer& w) {
    w.u32(99);
    w.u64(bad_tag);
  });
  h.net.multicast(attacker, h.group.members(), forged.data);
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(h.delivered_data(p).empty()) << "forged message delivered at member " << p;
  }
  std::uint64_t rejected = 0;
  for (auto* l : g_integrity) rejected += l->stats().rejected;
  EXPECT_EQ(rejected, 3u);
}

TEST_F(SecurityTest, SpoofedSenderRejected) {
  GroupHarness h(3, integrity_stack(kGroupKey));
  const NodeId attacker = h.net.add_node();
  // Attacker somehow learned a VALID tag for sender 99, then claims the
  // message came from member 0 instead: the MAC is bound to the sender id.
  Message spoofed = Message::group(to_bytes("evil"));
  AppHeader::push(spoofed, AppHeader{AppHeader::Kind::kData, 0, 0});
  const std::uint64_t tag_for_99 = mac(kGroupKey, 99, spoofed.data);
  spoofed.push_header([&](Writer& w) {
    w.u32(0);  // claimed sender
    w.u64(tag_for_99);
  });
  h.net.multicast(attacker, h.group.members(), spoofed.data);
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(h.delivered_data(p).empty());
  }
}

TEST_F(SecurityTest, CorruptedPayloadRejected) {
  // Record a genuine frame, flip a payload bit, re-inject.
  TapLayer* tap = nullptr;
  GroupHarness h2(3, [&](NodeId, const std::vector<NodeId>&) {
    auto integ = std::make_unique<IntegrityLayer>(kGroupKey);
    auto t = std::make_unique<TapLayer>();
    if (tap == nullptr) tap = t.get();
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(integ));
    layers.push_back(std::move(t));
    return layers;
  });
  h2.group.send(0, to_bytes("genuine"));
  h2.sim.run_for(100 * kMillisecond);
  ASSERT_NE(tap, nullptr);
  ASSERT_FALSE(tap->frames.empty());
  Bytes corrupted = tap->frames.front().bytes();
  corrupted[0] ^= 0x01;
  const NodeId attacker = h2.net.add_node();
  const std::size_t before = h2.delivered_data(1).size();
  h2.net.multicast(attacker, h2.group.members(), corrupted);
  h2.sim.run_for(kSecond);
  EXPECT_EQ(h2.delivered_data(1).size(), before);
}

TEST_F(SecurityTest, EavesdropperSeesOnlyCiphertext) {
  // Two keyed members plus a raw wiretap node included in the multicast
  // destination set (a hub network: everyone physically hears everything).
  Simulation sim(1);
  Network net(sim.scheduler(), sim.fork_rng(), testing::ideal_net());
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const NodeId spy = net.add_node();
  const std::vector<NodeId> wire_members = {a, b, spy};

  const auto keyed = [](std::uint64_t key) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<ConfidentialityLayer>(key));
    return layers;
  };
  SimTransport transport(net);
  Stack sa(transport, a, wire_members, keyed(kGroupKey), sim.fork_rng());
  Stack sb(transport, b, wire_members, keyed(kGroupKey), sim.fork_rng());
  sa.start();
  sb.start();

  Bytes spied;
  net.set_handler(spy, [&](Packet p) { spied = p.data.bytes(); });
  Bytes plain_delivered;
  sb.set_on_deliver([&](const MsgId&, std::span<const Byte> body) { plain_delivered.assign(body.begin(), body.end()); });

  const std::string secret = "the missile launch code is 0000";
  sa.send(to_bytes(secret));
  sim.run();

  ASSERT_FALSE(spied.empty());
  const std::string wire(reinterpret_cast<const char*>(spied.data()), spied.size());
  EXPECT_EQ(wire.find(secret), std::string::npos) << "plaintext visible on the wire";
  EXPECT_EQ(plain_delivered, to_bytes(secret)) << "key holder failed to decrypt";
}

TEST_F(SecurityTest, WrongKeyMemberCannotDecode) {
  Simulation sim(1);
  Network net(sim.scheduler(), sim.fork_rng(), testing::ideal_net());
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const std::vector<NodeId> members = {a, b};
  const auto keyed = [](std::uint64_t key) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<ConfidentialityLayer>(key));
    return layers;
  };
  SimTransport transport(net);
  Stack sa(transport, a, members, keyed(kGroupKey), sim.fork_rng());
  Stack sb(transport, b, members, keyed(kGroupKey + 1), sim.fork_rng());  // intruder
  sa.start();
  sb.start();
  Bytes intruder_got;
  bool intruder_delivered = false;
  sb.set_on_deliver([&](const MsgId&, std::span<const Byte> body) {
    intruder_delivered = true;
    intruder_got.assign(body.begin(), body.end());
  });
  sa.send(to_bytes("secret payload"));
  sim.run();
  // Decryption with the wrong key yields garbage: either the stack drops
  // the malformed result, or what arrives is not the plaintext.
  if (intruder_delivered) {
    EXPECT_NE(intruder_got, to_bytes("secret payload"));
  }
}

TEST_F(SecurityTest, ReplayedFrameDroppedOnce) {
  TapLayer* tap = nullptr;
  GroupHarness h(3, [&](NodeId, const std::vector<NodeId>&) {
    auto nr = std::make_unique<NoReplayLayer>();
    g_noreplay.push_back(nr.get());
    auto t = std::make_unique<TapLayer>();
    if (tap == nullptr) tap = t.get();
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(nr));
    layers.push_back(std::move(t));
    return layers;
  });
  h.group.send(0, to_bytes("pay $100 to mallory"));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(h.delivered_data(p).size(), 1u);

  // Attacker replays the recorded frame verbatim.
  ASSERT_NE(tap, nullptr);
  ASSERT_FALSE(tap->frames.empty());
  const NodeId attacker = h.net.add_node();
  h.net.multicast(attacker, h.group.members(), tap->frames.front());
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u) << "replay delivered at member " << p;
  }
  std::uint64_t drops = 0;
  for (auto* l : g_noreplay) drops += l->replays_dropped();
  EXPECT_EQ(drops, 3u);
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
}

TEST_F(SecurityTest, FreshMessageWithRepeatedBodyPasses) {
  GroupHarness h(2, [&](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<NoReplayLayer>());
    return layers;
  });
  h.group.send(0, to_bytes("same body"));
  h.group.send(0, to_bytes("same body"));  // new message, same content
  h.sim.run_for(kSecond);
  // Distinct app-level messages (different seq) both pass.
  EXPECT_EQ(h.delivered_data(1).size(), 2u);
}

TEST_F(SecurityTest, LayeredSecurityStackEndToEnd) {
  // Confidentiality over integrity over no-replay: all three combine.
  GroupHarness h(3, [&](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<NoReplayLayer>());
    layers.push_back(std::make_unique<IntegrityLayer>(kGroupKey));
    layers.push_back(std::make_unique<ConfidentialityLayer>(kGroupKey ^ 0x1234));
    return layers;
  });
  for (int i = 0; i < 4; ++i) h.group.send(i % 3, to_bytes("combo" + std::to_string(i)));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 4u);
  }
}

}  // namespace
}  // namespace msw
