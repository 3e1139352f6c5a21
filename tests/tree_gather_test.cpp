// Tree-structured gather at scale: relay crashes mid-round must trigger
// subtree re-parenting (never a lost contribution), leader crashes must
// still fail over, and the whole run must satisfy the V1-V9 oracles — over
// a grid of cluster sizes and fan-outs. Plus the n=256 single-failure
// smoke that keeps tier-1 honest about cluster sizes beyond the paper's
// testbed.
#include <gtest/gtest.h>

#include "check/explorer.hpp"
#include "check/schedule.hpp"
#include "test_util.hpp"

namespace rr {
namespace {

using check::FaultSchedule;
using check::Injection;
using check::ScheduleExplorer;
using trace::PhaseId;

Injection crash(std::uint32_t pid, Time at) {
  Injection inj;
  inj.kind = Injection::Kind::kCrashAt;
  inj.victim = ProcessId{pid};
  inj.at = at;
  return inj;
}

Injection treecrash(std::uint64_t index, std::uint32_t occurrence) {
  Injection inj;
  inj.kind = Injection::Kind::kTreeCrash;
  inj.index = index;
  inj.occurrence = occurrence;
  return inj;
}

struct TreeParam {
  std::uint32_t n;
  std::uint32_t arity;
};

std::string param_name(const ::testing::TestParamInfo<TreeParam>& info) {
  return "n" + std::to_string(info.param.n) + "_arity" + std::to_string(info.param.arity);
}

class TreeGatherGrid : public ::testing::TestWithParam<TreeParam> {};

// Crash the leader's first relay (participant 0 = tree index 1, an interior
// node whenever participants > arity) at the first gather start, with the
// supervisor delay stretched past the detector timeout so the relay is
// *suspected* mid-round: the leader must re-parent the orphaned subtree to
// itself and the round must still complete with every contribution.
TEST_P(TreeGatherGrid, RelayCrashMidGatherReparentsAndTerminates) {
  const TreeParam p = GetParam();
  ASSERT_GT(p.n - 1, p.arity) << "participant 0 must be interior for this test";
  FaultSchedule s;
  s.n = p.n;
  s.f = 2;
  s.seed = 7;
  s.arity = p.arity;
  s.tokens = 8;  // fixed app load: n = 64 must not cost 8x the n = 16 cell
  s.restart = milliseconds(2500);
  s.injections = {crash(1, seconds(2)), treecrash(0, 1)};

  const check::RunOutcome o = ScheduleExplorer::run(s);
  EXPECT_TRUE(o.ok()) << o.brief();
  EXPECT_GE(o.recoveries, 2u);  // the original victim and the relay
  EXPECT_GT(o.phase_count[static_cast<std::size_t>(PhaseId::kSubtreeReparented)], 0u)
      << s.format();
}

// Crash a second-level relay (participant arity, tree index arity+1 — a
// child of participant 0, not of the leader): the re-parent decision then
// belongs to the *relay* above it, not the leader.
TEST_P(TreeGatherGrid, DeepRelayCrashIsHandledByItsParentRelay) {
  const TreeParam p = GetParam();
  if (p.n - 1 <= 2 * p.arity + 1) GTEST_SKIP() << "tree too shallow for a deep relay";
  FaultSchedule s;
  s.n = p.n;
  s.f = 2;
  s.seed = 11;
  s.arity = p.arity;
  s.tokens = 8;
  s.restart = milliseconds(2500);
  s.injections = {crash(1, seconds(2)), treecrash(p.arity, 1)};

  const check::RunOutcome o = ScheduleExplorer::run(s);
  EXPECT_TRUE(o.ok()) << o.brief();
  EXPECT_GE(o.recoveries, 2u);
}

// The round leader crashes mid-tree-gather: ordinal failover must hand the
// round to the next recoverer exactly as in the flat gather.
TEST_P(TreeGatherGrid, LeaderCrashMidTreeGatherFailsOver) {
  const TreeParam p = GetParam();
  FaultSchedule s;
  s.n = p.n;
  s.f = 2;
  s.seed = 13;
  s.arity = p.arity;
  s.tokens = 8;
  s.restart = milliseconds(2500);
  Injection pcrash;
  pcrash.kind = Injection::Kind::kPhaseCrash;
  pcrash.victim = Injection::kFirer;
  pcrash.phase = PhaseId::kGatherStarted;
  pcrash.occurrence = 1;
  s.injections = {crash(1, seconds(2)), crash(2, milliseconds(2300)), pcrash};

  const check::RunOutcome o = ScheduleExplorer::run(s);
  EXPECT_TRUE(o.ok()) << o.brief();
  EXPECT_GE(o.recoveries, 2u);
}

// Tree and flat gathers must both satisfy every oracle on the same
// schedule, and the tree run must be deterministic (two executions,
// bit-identical state). Note the two *hashes* legitimately differ from
// each other: the gather topology changes control-message timing, which
// shifts when recovery completes and with it the application trajectory —
// the equivalence that does hold (same receipt orders under frozen
// timing) is the pruning property test's job.
TEST_P(TreeGatherGrid, TreeGatherIsDeterministicAndPassesOraclesLikeFlat) {
  const TreeParam p = GetParam();
  FaultSchedule s;
  s.n = p.n;
  s.f = 2;
  s.seed = 17;
  s.tokens = 8;
  s.injections = {crash(1, seconds(2))};

  FaultSchedule tree = s;
  tree.arity = p.arity;
  const check::RunOutcome flat = ScheduleExplorer::run(s);
  const check::RunOutcome once = ScheduleExplorer::run(tree);
  const check::RunOutcome twice = ScheduleExplorer::run(tree);
  EXPECT_TRUE(flat.ok()) << flat.brief();
  EXPECT_TRUE(once.ok()) << once.brief();
  EXPECT_EQ(once.state_hash, twice.state_hash);
  EXPECT_EQ(once.brief(), twice.brief());
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreeGatherGrid,
                         ::testing::Values(TreeParam{16, 2}, TreeParam{16, 4}, TreeParam{16, 8},
                                           TreeParam{64, 2}, TreeParam{64, 4},
                                           TreeParam{64, 8}),
                         param_name);

// --- n = 256 tier-1 smoke ---------------------------------------------------

// A single failure in a 256-process cluster with a sparse workload (tokens
// only on the first 8 processes; everyone heartbeats): recovery must
// complete, no receipt order may be lost, and the run must stay within a
// modest event budget. Heartbeat cadence is relaxed to keep the O(n^2)
// liveness traffic from dominating the virtual timeline.
TEST(ScaleSmoke, N256SingleFailureRecoversUnderTreeGather) {
  harness::ScenarioConfig sc;
  sc.cluster = test::fast_cluster(256, 1, recovery::Algorithm::kNonBlocking, 3);
  sc.cluster.detector.heartbeat_period = seconds(1);
  sc.cluster.detector.timeout = seconds(3);
  sc.cluster.recovery.gather_arity = 4;
  sc.cluster.recovery.phase_timeout = seconds(5);
  sc.cluster.enable_trace = true;
  sc.factory = [](ProcessId pid) {
    app::GossipConfig cfg;
    cfg.tokens_per_process = pid.value < 8 ? 1 : 0;
    cfg.payload_pad = 32;
    cfg.seed = 100 + pid.value;
    return std::make_unique<app::GossipApp>(cfg);
  };
  sc.crashes = {{ProcessId{2}, seconds(2)}};
  sc.horizon = seconds(8);
  sc.idle_deadline = seconds(120);

  trace::CheckResult history;
  const auto r = harness::run_scenario(
      sc, [&](runtime::Cluster& cluster) { history = cluster.check_history(); });
  EXPECT_TRUE(history.ok) << history.summary()
                          << (history.violations.empty() ? "" : "\n" + history.violations[0]);
  EXPECT_TRUE(r.idle);
  EXPECT_GE(r.recoveries.size(), 1u);
  EXPECT_EQ(r.det_gaps, 0u);
  EXPECT_GT(r.app_delivered, 0u);
}

}  // namespace
}  // namespace rr
