// Golden determinism digests: a handful of small fixed scenarios whose
// full protocol trace, metrics dump and application state are pinned by
// hash. A refactor of the logging, recovery or metrics layers that claims
// to preserve behaviour must keep every digest; a deliberate behaviour
// change re-pins them and says why.
//
// Each scenario steers one code path the determinant log serves: holder
// retraction after a crash pair, the blocking baseline, un-pruned
// piggybacks, deferred holder marking under loss, and both output-commit
// barriers (DetPush at f < n, the stable flush at f = n).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/hash.hpp"
#include "test_util.hpp"

namespace rr {
namespace {

using recovery::Algorithm;
using runtime::Cluster;
using runtime::ClusterConfig;

struct Golden {
  std::uint64_t state_hash;
  std::uint64_t trace_digest;
  std::uint64_t metrics_digest;
};

struct Scenario {
  ClusterConfig cluster;
  app::AppFactory factory = test::gossip_factory();
  std::vector<std::pair<ProcessId, Time>> crashes;
  /// Commit one output at every live process each period; 0 = none.
  Duration output_every{0};
  /// Crashes land at 0.5 s; a recovery completes ~1.5 s later.
  Time horizon = milliseconds(2100);
};

Golden run(Scenario s) {
  s.cluster.enable_trace = true;
  Cluster c(s.cluster, s.factory);
  c.start();
  for (const auto& [pid, at] : s.crashes) c.crash_at(pid, at);
  const Duration step = s.output_every != 0 ? s.output_every : s.horizon;
  std::uint64_t outputs = 0;
  while (c.sim().now() < s.horizon) {
    c.run_for(step);
    if (s.output_every == 0) continue;
    for (const ProcessId pid : c.pids()) {
      auto& node = c.node(pid);
      if (node.alive() && node.started() && !node.recovering()) {
        node.commit_output(to_bytes("out" + std::to_string(++outputs)));
      }
    }
  }
  return Golden{c.state_hash(), Hasher().mix(c.trace()->dump(0)).digest(),
                Hasher().mix(c.metrics().dump()).digest()};
}

void expect_golden(const Golden& got, const Golden& want) {
  char actual[160];
  std::snprintf(actual, sizeof actual, "actual: {0x%016llxULL, 0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(got.state_hash),
                static_cast<unsigned long long>(got.trace_digest),
                static_cast<unsigned long long>(got.metrics_digest));
  EXPECT_EQ(got.state_hash, want.state_hash) << actual;
  EXPECT_EQ(got.trace_digest, want.trace_digest) << actual;
  EXPECT_EQ(got.metrics_digest, want.metrics_digest) << actual;
}

Scenario crash_pair(Algorithm alg) {
  Scenario s;
  s.cluster = test::fast_cluster(4, 2, alg, 7);
  s.crashes = {{ProcessId{1}, milliseconds(500)}, {ProcessId{2}, milliseconds(600)}};
  return s;
}

TEST(TraceGolden, NonBlockingCrashPair) {
  expect_golden(run(crash_pair(Algorithm::kNonBlocking)), {0xca9b150eb09784f7ULL, 0xc2fdda3d5f43155dULL, 0xf2e0fe90e4817f72ULL});
}

TEST(TraceGolden, BlockingCrashPair) {
  expect_golden(run(crash_pair(Algorithm::kBlocking)), {0x53bc1e0d17609d1bULL, 0x02675d1de85e150eULL, 0x19939b07187fbb16ULL});
}

TEST(TraceGolden, UnprunedPiggyback) {
  Scenario s = crash_pair(Algorithm::kNonBlocking);
  s.cluster.prune_piggyback = false;
  expect_golden(run(s), {0x97fb2979907daabdULL, 0x4fdb71d53d4114baULL, 0xdb1aecfe0a96ce6eULL});
}

TEST(TraceGolden, LossyTransportDefersHolderMarks) {
  Scenario s;
  s.cluster = test::fast_cluster(4, 1, Algorithm::kNonBlocking, 11);
  s.cluster.transport.enabled = true;
  s.cluster.net.faults.loss = 0.05;
  s.crashes = {{ProcessId{3}, milliseconds(500)}};
  expect_golden(run(s), {0xd80dac3d969c5ee5ULL, 0xbb9ff085626a925eULL, 0x5aef057da507f5baULL});
}

TEST(TraceGolden, OutputCommitPushesAtFBelowN) {
  Scenario s;
  s.cluster = test::fast_cluster(4, 2, Algorithm::kNonBlocking, 5);
  s.crashes = {{ProcessId{2}, milliseconds(500)}};
  s.output_every = milliseconds(100);
  expect_golden(run(s), {0x5cf14e5e3cc6306eULL, 0xa82f18315a330d22ULL, 0xce59d5768a899fabULL});
}

TEST(TraceGolden, OutputCommitFlushesAtFEqualsN) {
  Scenario s;
  s.cluster = test::fast_cluster(4, 4, Algorithm::kNonBlocking, 3);
  s.crashes = {{ProcessId{0}, milliseconds(500)}};
  s.output_every = milliseconds(100);
  expect_golden(run(s), {0x09bd1cbdc4ac7e2eULL, 0x394ff2047fa1a9bcULL, 0xd400293d963da4d6ULL});
}

}  // namespace
}  // namespace rr
