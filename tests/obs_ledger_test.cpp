// Cost-ledger tests.
//
// The classifier in obs/ledger.cpp parses frames through the fbl wire
// codecs — the unit tests here check that it lands frames encoded by
// recovery::encode_control and the fbl frame codecs in the right category
// for every control kind, the app/piggyback split, reliable-transport
// unwrapping, and retransmissions flagged by Network::send's argument. The
// cluster-level tests cover the V10 conservation oracle, the sampled
// timeline's determinism across runs, and the Perfetto counter-track
// export.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "app/workloads.hpp"
#include "common/serde.hpp"
#include "fbl/frame.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "obs/ledger.hpp"
#include "obs/perfetto.hpp"
#include "recovery/messages.hpp"
#include "runtime/cluster.hpp"

namespace rr {
namespace {

using obs::CostCategory;
using obs::CostLedger;
using obs::CostLedgerConfig;

constexpr std::size_t kHeader = 32;  // mirrors net::Network::kHeaderBytes

CostLedgerConfig unit_config() {
  CostLedgerConfig cfg;
  cfg.num_nodes = 4;
  return cfg;
}

fbl::HeldDeterminant held_det(std::uint32_t source, std::uint64_t ssn) {
  fbl::HeldDeterminant d;
  d.det = fbl::Determinant{ProcessId{source}, ssn, ProcessId{source + 1}, ssn + 1};
  d.holders = 0b101;
  return d;
}

TEST(CostLedgerClassifier, EveryControlKindAgreesWithRecoveryCodec) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  // Variant order == CtrlKind wire order == the ledger's ctrl category
  // order; one frame of each kind, in order.
  const std::vector<recovery::ControlMessage> kinds = {
      recovery::OrdRequest{},       recovery::OrdReply{},
      recovery::RSetRequest{},      recovery::RSetReply{},
      recovery::IncRequest{},       recovery::IncReply{},
      recovery::DepRequest{},       recovery::DepReply{},
      recovery::DepInstall{},       recovery::RecoveryComplete{},
      recovery::ReplayRequest{},    recovery::ReplayData{},
      recovery::DetPush{},          recovery::DetAck{},
  };
  std::uint64_t expected_total = 0;
  for (const auto& msg : kinds) {
    const Bytes wire = recovery::encode_control(msg);
    ledger.on_wire(0, wire, kHeader, false);
    expected_total += wire.size() + kHeader;
  }
  for (std::size_t k = 0; k < obs::kCtrlCategoryCount; ++k) {
    const auto cat = static_cast<CostCategory>(obs::kFirstCtrlCategory + k);
    EXPECT_EQ(ledger.frames(cat), 1u)
        << "ctrl kind " << k + 1 << " (" << obs::to_string(cat)
        << ") not classified from its encoded bytes";
  }
  // Every byte of every frame landed somewhere (the default DepRequest's
  // incvector region splits into incvector_full, nothing is lost).
  EXPECT_EQ(ledger.total_bytes(), expected_total);
  EXPECT_EQ(ledger.frames(CostCategory::kOther), 0u);
}

TEST(CostLedgerClassifier, AppFrameSplitsPiggybackFromPayload) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  fbl::AppFrame frame;
  frame.inc = 1;
  frame.ssn = 7;
  frame.dets = {held_det(1, 5), held_det(2, 9)};
  frame.payload = Bytes(100, std::byte{0x42});
  const Bytes wire = frame.encode();
  ledger.on_wire(1, wire, kHeader, false);

  const std::uint64_t total = wire.size() + kHeader;
  EXPECT_EQ(ledger.bytes(CostCategory::kPiggybackPruned), frame.piggyback_bytes());
  EXPECT_EQ(ledger.bytes(CostCategory::kAppPayload), total - frame.piggyback_bytes());
  // One frame, counted once, under its primary category.
  EXPECT_EQ(ledger.frames(CostCategory::kAppPayload), 1u);
  EXPECT_EQ(ledger.frames(CostCategory::kPiggybackPruned), 0u);
  EXPECT_EQ(ledger.node_total_bytes(1), total);
  EXPECT_EQ(ledger.node_total_bytes(2), 0u);
}

TEST(CostLedgerClassifier, ReshipModeRecategorizesPiggyback) {
  metrics::Registry m;
  CostLedgerConfig cfg = unit_config();
  cfg.prune_piggyback = false;
  CostLedger ledger(cfg, m);

  fbl::AppFrame frame;
  frame.dets = {held_det(1, 5)};
  frame.payload = Bytes(10, std::byte{0x01});
  ledger.on_wire(0, frame.encode(), kHeader, false);
  EXPECT_EQ(ledger.bytes(CostCategory::kPiggybackReship), frame.piggyback_bytes());
  EXPECT_EQ(ledger.bytes(CostCategory::kPiggybackPruned), 0u);
}

TEST(CostLedgerClassifier, DepRequestCarvesIncvectorAndRelayBytes) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  recovery::DepRequest dep;
  dep.leader = ProcessId{2};
  dep.delta.full = false;
  dep.delta.version = 3;
  dep.delta.entries[ProcessId{1}] = 2;
  const Bytes wire = recovery::encode_control(recovery::ControlMessage{dep});

  // Sent by the leader itself: remainder stays under ctrl.dep_request.
  ledger.on_wire(2, wire, kHeader, false);
  const std::uint64_t inc_bytes = ledger.bytes(CostCategory::kIncVectorDelta);
  EXPECT_GT(inc_bytes, 0u);
  EXPECT_EQ(ledger.bytes(CostCategory::kGatherRelay), 0u);
  EXPECT_EQ(ledger.bytes(CostCategory::kCtrlDepRequest),
            wire.size() + kHeader - inc_bytes);

  // Relayed by a non-leader: the non-incvector remainder is fan-out cost.
  ledger.on_wire(0, wire, kHeader, false);
  EXPECT_EQ(ledger.bytes(CostCategory::kGatherRelay),
            wire.size() + kHeader - inc_bytes);
  EXPECT_EQ(ledger.frames(CostCategory::kCtrlDepRequest), 2u);
}

TEST(CostLedgerClassifier, UnwrapsReliableTransportFraming) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  const Bytes wire = fbl::encode_envelope(1, 9, 4, fbl::HeartbeatFrame{3}.encode());
  ledger.on_wire(0, wire, kHeader, false);
  // The whole packet (wrapper included) lands under the inner frame's
  // category — the wrapper never smears the attribution.
  EXPECT_EQ(ledger.bytes(CostCategory::kHeartbeat), wire.size() + kHeader);

  ledger.on_wire(0, fbl::encode_transport_ack({1, 9, 4, 1}), kHeader, false);
  EXPECT_EQ(ledger.frames(CostCategory::kTransportAck), 1u);
}

// ------------------------------------------------------------ network level

struct NullEndpoint : net::Endpoint {
  void deliver(ProcessId, Bytes payload) override {
    BufferPool::global().release(std::move(payload));
  }
};

/// Two endpoints on a perfect fabric with the ledger tapped into send().
struct LedgerOnNetwork {
  sim::Simulator sim{5};
  metrics::Registry metrics;
  net::Network net{sim, net::NetworkConfig{}, metrics};
  CostLedger ledger{unit_config(), metrics};
  NullEndpoint a;
  NullEndpoint b;

  LedgerOnNetwork() {
    net.attach(ProcessId{0}, a);
    net.attach(ProcessId{1}, b);
    net.set_ledger(&ledger);
  }
};

TEST(CostLedgerNetwork, RetransmitArgumentOverridesContent) {
  LedgerOnNetwork w;
  const Bytes wire = fbl::HeartbeatFrame{1}.encode();
  const std::size_t charged =
      w.net.send(ProcessId{0}, ProcessId{1}, Bytes(wire), /*retransmit=*/true);
  EXPECT_EQ(charged, wire.size() + kHeader);
  EXPECT_EQ(w.ledger.bytes(CostCategory::kTransportRetransmit), charged);
  EXPECT_EQ(w.ledger.frames(CostCategory::kTransportRetransmit), 1u);
  EXPECT_EQ(w.ledger.frames(CostCategory::kHeartbeat), 0u);

  // Without the argument the same bytes are classified by content.
  w.net.send(ProcessId{0}, ProcessId{1}, Bytes(wire));
  EXPECT_EQ(w.ledger.frames(CostCategory::kHeartbeat), 1u);
  EXPECT_EQ(w.ledger.frames(CostCategory::kTransportRetransmit), 1u);
}

TEST(CostLedgerNetwork, DroppedRetransmissionLeavesNextPacketClassifiedByContent) {
  LedgerOnNetwork w;
  w.net.set_fault_hook([](ProcessId, ProcessId, const Bytes&, std::uint64_t chan_index) {
    return net::FaultDecision{.drop = chan_index == 0};
  });
  const Bytes wire = fbl::HeartbeatFrame{1}.encode();
  EXPECT_EQ(w.net.send(ProcessId{0}, ProcessId{1}, Bytes(wire), /*retransmit=*/true), 0u);
  w.net.send(ProcessId{0}, ProcessId{1}, Bytes(wire));
  EXPECT_EQ(w.ledger.frames(CostCategory::kTransportRetransmit), 0u);
  EXPECT_EQ(w.ledger.frames(CostCategory::kHeartbeat), 1u);
  EXPECT_EQ(w.ledger.total_bytes(), w.metrics.counter_value("net.bytes"));
}

TEST(CostLedgerClassifier, MalformedFramesFallBackToOther) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  ledger.on_wire(0, Bytes{}, kHeader, false);                  // empty
  ledger.on_wire(0, Bytes{std::byte{0xEE}}, kHeader, false);   // unknown kind
  ledger.on_wire(0, Bytes{std::byte{4}}, kHeader, false);      // truncated control
  EXPECT_EQ(ledger.frames(CostCategory::kOther), 3u);
  EXPECT_EQ(ledger.total_bytes(), 3 * kHeader + 2);
}

// ------------------------------------------------------------- cluster level

runtime::ClusterConfig ledger_cluster(Duration sample_every = 0) {
  runtime::ClusterConfig cfg;
  cfg.num_processes = 4;
  cfg.f = 2;
  cfg.seed = 11;
  cfg.enable_ledger = true;
  cfg.ledger_sample_every = sample_every;
  return cfg;
}

app::AppFactory gossip_factory() {
  return [](ProcessId pid) {
    app::GossipConfig cfg;
    cfg.tokens_per_process = pid.value < 2 ? 1 : 0;
    cfg.seed = 42 + pid.value;
    return std::make_unique<app::GossipApp>(cfg);
  };
}

TEST(CostLedgerCluster, V10ConservesBytesAcrossARecovery) {
  runtime::Cluster cluster(ledger_cluster(), gossip_factory());
  cluster.start();
  cluster.crash_at(ProcessId{1}, seconds(5));
  cluster.run_until(seconds(20));
  ASSERT_TRUE(cluster.all_idle());

  const obs::CostLedger* ledger = cluster.ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->audit(cluster.metrics()), std::vector<std::string>{});
  EXPECT_EQ(ledger->total_bytes(), cluster.metrics().counter_value("net.bytes"));
  // A recovery happened, so control categories saw real traffic.
  EXPECT_GT(ledger->frames(CostCategory::kCtrlDepRequest), 0u);
  EXPECT_GT(ledger->bytes(CostCategory::kAppPayload), 0u);
}

TEST(CostLedgerCluster, TimelineAndExportAreDeterministicAcrossRuns) {
  auto run = [] {
    runtime::Cluster cluster(ledger_cluster(milliseconds(100)), gossip_factory());
    cluster.start();
    cluster.crash_at(ProcessId{1}, seconds(5));
    cluster.run_until(seconds(12));
    cluster.sample_ledger_now();
    return obs::export_metrics_json(cluster.metrics(), cluster.ledger());
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"timeline\""), std::string::npos);
  EXPECT_NE(a.find("\"ledger\""), std::string::npos);
}

TEST(CostLedgerCluster, FinalSampleMatchesScalarBlockedTime) {
  runtime::ClusterConfig cfg = ledger_cluster(milliseconds(50));
  cfg.algorithm = recovery::Algorithm::kBlocking;  // guarantees blocked > 0
  runtime::Cluster cluster(cfg, gossip_factory());
  cluster.start();
  cluster.crash_at(ProcessId{1}, seconds(5));
  cluster.run_until(seconds(20));
  cluster.sample_ledger_now();

  const obs::CostLedger* ledger = cluster.ledger();
  ASSERT_GT(ledger->sample_count(), 0u);
  const std::size_t last = ledger->sample_count() - 1;
  std::uint64_t timeline_blocked = 0;
  std::uint64_t timeline_sent = 0;
  for (std::uint32_t i = 0; i < ledger->num_nodes(); ++i) {
    timeline_blocked += ledger->sample_node(last, i).blocked_ns;
    timeline_sent += ledger->sample_node(last, i).sent_bytes;
  }
  EXPECT_EQ(timeline_blocked,
            static_cast<std::uint64_t>(cluster.total_blocked_time()));
  EXPECT_GT(timeline_blocked, 0u);
  // Per-node cumulative sent bytes cover everything except the service slot.
  EXPECT_EQ(timeline_sent + ledger->node_total_bytes(ledger->num_nodes()),
            ledger->sample_header(last).net_bytes);
}

TEST(CostLedgerCluster, PerfettoCounterTracksValidate) {
  runtime::ClusterConfig cfg = ledger_cluster(milliseconds(100));
  cfg.enable_spans = true;
  runtime::Cluster cluster(cfg, gossip_factory());
  cluster.start();
  cluster.crash_at(ProcessId{1}, seconds(5));
  cluster.run_until(seconds(12));
  cluster.sample_ledger_now();

  const std::string json =
      obs::export_trace_event_json(*cluster.spans(), cluster.ledger());
  std::string error;
  EXPECT_TRUE(obs::validate_trace_event_json(json, &error)) << error;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("net_kb"), std::string::npos);
  EXPECT_NE(json.find("blocked_ms"), std::string::npos);
}

}  // namespace
}  // namespace rr
