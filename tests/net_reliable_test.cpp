// Reliable-delivery transport: exactly-once under loss/dup/reorder,
// retransmission with backoff, bounded-retry escalation to peer-unreachable,
// epoch/stream restarts across incarnation bumps, and passthrough fidelity
// when disabled.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fbl/frame.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/simulator.hpp"

namespace rr::net {
namespace {

Bytes indexed(std::uint32_t i) {
  BufWriter w;
  w.u32(i);
  return std::move(w).take();
}

std::uint32_t index_of(const Bytes& payload) {
  BufReader r(payload);
  return r.u32();
}

/// One endpoint with a transport bolted on: the wire tap routes every
/// delivery through on_wire, exactly as the node runtime does.
struct Peer : Endpoint {
  ReliableTransport transport;
  std::vector<std::pair<ProcessId, Bytes>> delivered;
  std::vector<std::pair<ProcessId, bool>> signals;

  Peer(sim::Simulator& sim, Network& net, ProcessId id, const TransportConfig& cfg,
       metrics::Registry& metrics)
      : transport(sim, net, id, cfg, metrics) {
    transport.set_deliver([this](ProcessId src, const Bytes& payload, std::size_t offset) {
      delivered.emplace_back(
          src, Bytes(payload.begin() + static_cast<std::ptrdiff_t>(offset), payload.end()));
    });
    transport.set_peer_signal([this](ProcessId peer, bool unreachable) {
      signals.emplace_back(peer, unreachable);
    });
    net.attach(id, *this);
    transport.reset(1);
  }

  void deliver(ProcessId src, Bytes payload) override {
    transport.on_wire(src, std::move(payload));
  }
};

struct ReliableTransportTest : ::testing::Test {
  sim::Simulator sim{5};
  metrics::Registry metrics;
  NetworkConfig net_config;
  TransportConfig tp_config;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Peer> a_, b_;

  static constexpr ProcessId kA{0};
  static constexpr ProcessId kB{1};

  void make() {
    tp_config.enabled = true;
    net_ = std::make_unique<Network>(sim, net_config, metrics);
    a_ = std::make_unique<Peer>(sim, *net_, kA, tp_config, metrics);
    b_ = std::make_unique<Peer>(sim, *net_, kB, tp_config, metrics);
  }
};

TEST_F(ReliableTransportTest, DeliversInOrderOnCleanFabric) {
  make();
  for (std::uint32_t i = 0; i < 20; ++i) a_->transport.send(kB, indexed(i));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(index_of(b_->delivered[i].second), i);
  EXPECT_EQ(metrics.counter_value("net.retransmit"), 0u);
  // Fully acked: nothing outstanding, no unreachable edges.
  EXPECT_EQ(a_->transport.send_audit(kB).baseline_or_outstanding, 0u);
  EXPECT_EQ(a_->transport.send_audit(kB).progress, 20u);
  EXPECT_TRUE(a_->signals.empty());
}

TEST_F(ReliableTransportTest, ExactlyOnceUnderHeavyLoss) {
  net_config.faults.loss = 0.3;
  make();
  net_->set_fault_exempt(ProcessId{99});  // unrelated; loss hits kA<->kB only
  for (std::uint32_t i = 0; i < 100; ++i) a_->transport.send(kB, indexed(i));
  sim.run();
  // Every payload arrives exactly once, in order, despite ~30% link loss in
  // both directions (acks die too) — the V9 guarantee at unit scale.
  ASSERT_EQ(b_->delivered.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(index_of(b_->delivered[i].second), i);
  EXPECT_GT(metrics.counter_value("net.retransmit"), 0u);
  EXPECT_GT(metrics.counter_value("net.retransmit_bytes"), 0u);
  EXPECT_EQ(a_->transport.send_audit(kB).progress, 100u);
  EXPECT_EQ(b_->transport.recv_audit(kA).progress, 100u);
  EXPECT_EQ(b_->transport.recv_audit(kA).baseline_or_outstanding, 0u);
}

TEST_F(ReliableTransportTest, FabricDuplicatesAreSuppressed) {
  net_config.faults.dup = 0.5;
  make();
  for (std::uint32_t i = 0; i < 50; ++i) a_->transport.send(kB, indexed(i));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(index_of(b_->delivered[i].second), i);
  EXPECT_GT(metrics.counter_value("net.dup_suppressed"), 0u);
}

TEST_F(ReliableTransportTest, ReorderWindowIsResequenced) {
  net_config.jitter_max = 0;
  net_config.faults.reorder_window = milliseconds(2);
  make();
  for (std::uint32_t i = 0; i < 40; ++i) a_->transport.send(kB, indexed(i));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 40u);
  for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(index_of(b_->delivered[i].second), i);
  EXPECT_GT(metrics.counter_value("transport.held"), 0u);  // stash did work
}

TEST_F(ReliableTransportTest, BoundedRetryEscalatesThenRecovers) {
  tp_config.rto_initial = milliseconds(10);
  tp_config.rto_max = milliseconds(40);
  tp_config.rto_jitter = 0;
  tp_config.max_retries = 3;
  tp_config.probe_period = milliseconds(50);
  make();
  net_->set_partitioned(kB, true);
  a_->transport.send(kB, indexed(7));
  sim.run_until(seconds(1));
  // 3 back-to-back timeouts -> unreachable, reported exactly once.
  EXPECT_TRUE(a_->transport.unreachable(kB));
  ASSERT_EQ(a_->signals.size(), 1u);
  EXPECT_EQ(a_->signals[0], (std::pair{kB, true}));
  EXPECT_EQ(metrics.counter_value("transport.peer_unreachable"), 1u);
  EXPECT_TRUE(b_->delivered.empty());

  // Heal: the probe gets through, the backlog drains, the edge flips back.
  net_->set_partitioned(kB, false);
  a_->transport.send(kB, indexed(8));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 2u);
  EXPECT_EQ(index_of(b_->delivered[0].second), 7u);
  EXPECT_EQ(index_of(b_->delivered[1].second), 8u);
  EXPECT_FALSE(a_->transport.unreachable(kB));
  ASSERT_EQ(a_->signals.size(), 2u);
  EXPECT_EQ(a_->signals[1], (std::pair{kB, false}));
}

TEST_F(ReliableTransportTest, ReceiverRestartRestartsTheStream) {
  make();
  for (std::uint32_t i = 0; i < 5; ++i) a_->transport.send(kB, indexed(i));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 5u);

  // B restarts with a higher incarnation and speaks first. A's old stream
  // state is useless to the new B; on seeing epoch 2 traffic, A re-keys its
  // own sequence space (stream 2) so later sends are accepted from seq 1.
  b_->transport.reset(2);
  b_->transport.send(kA, indexed(100));
  sim.run();
  ASSERT_EQ(a_->delivered.size(), 1u);
  EXPECT_EQ(index_of(a_->delivered[0].second), 100u);

  a_->transport.send(kB, indexed(6));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 6u);
  EXPECT_EQ(index_of(b_->delivered[5].second), 6u);
  EXPECT_EQ(metrics.counter_value("transport.stream_restarts"), 1u);
  EXPECT_EQ(a_->transport.send_audit(kB).stream, 2u);
}

TEST_F(ReliableTransportTest, StaleEpochTrafficIsDropped) {
  make();
  a_->transport.send(kB, indexed(0));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 1u);

  // A frame hand-built from a *lower* epoch must be discarded, not applied.
  // (epoch 0, stream 1, seq 2): the epoch is below the live channel's.
  net_->inject(kA, kB, fbl::encode_envelope(0, 1, 2, indexed(13)), milliseconds(1));
  sim.run();
  EXPECT_EQ(b_->delivered.size(), 1u);
  EXPECT_EQ(metrics.counter_value("transport.stale_epoch"), 1u);
}

TEST_F(ReliableTransportTest, DisabledTransportIsExactPassthrough) {
  tp_config.enabled = false;
  net_ = std::make_unique<Network>(sim, net_config, metrics);
  a_ = std::make_unique<Peer>(sim, *net_, kA, tp_config, metrics);
  b_ = std::make_unique<Peer>(sim, *net_, kB, tp_config, metrics);
  const Bytes payload = indexed(42);
  a_->transport.send(kB, BufferPool::global().copy_of(payload));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 1u);
  EXPECT_EQ(b_->delivered[0].second, payload);  // byte-identical, no header
  EXPECT_EQ(metrics.counter_value("transport.acks"), 0u);
}

TEST_F(ReliableTransportTest, RawPeersBypassWrapping) {
  make();
  a_->transport.set_raw_peer(kB);
  a_->transport.send(kB, indexed(3));
  sim.run();
  ASSERT_EQ(b_->delivered.size(), 1u);
  EXPECT_EQ(index_of(b_->delivered[0].second), 3u);
  EXPECT_EQ(metrics.counter_value("transport.acks"), 0u);  // nothing to ack
}

TEST_F(ReliableTransportTest, MalformedTransportFrameIsCounted) {
  make();
  // Header truncated after the tag.
  net_->inject(kA, kB, Bytes{std::byte{fbl::kTransportData}}, milliseconds(1));
  sim.run();
  EXPECT_TRUE(b_->delivered.empty());
  EXPECT_EQ(metrics.counter_value("transport.malformed"), 1u);
}

TEST_F(ReliableTransportTest, LossyRunReplaysByteIdentically) {
  net_config.faults.loss = 0.25;
  net_config.faults.dup = 0.2;
  auto run_once = [&] {
    sim::Simulator s(17);
    metrics::Registry reg;
    Network net(s, net_config, reg);
    TransportConfig cfg = tp_config;
    cfg.enabled = true;
    Peer x(s, net, kA, cfg, reg);
    Peer y(s, net, kB, cfg, reg);
    for (std::uint32_t i = 0; i < 60; ++i) x.transport.send(kB, indexed(i));
    s.run();
    std::vector<std::uint32_t> got;
    for (const auto& [src, payload] : y.delivered) got.push_back(index_of(payload));
    return std::pair{got, reg.counter_value("net.retransmit")};
  };
  const auto first = run_once();
  ASSERT_EQ(first.first.size(), 60u);
  EXPECT_GT(first.second, 0u);
  EXPECT_EQ(first, run_once());  // retransmit schedule included
}

}  // namespace
}  // namespace rr::net
