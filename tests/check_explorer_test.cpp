// Fault-schedule explorer tests: schedule grammar round-trips, the
// leader-crash-mid-gather scenario across the (n, f) grid, the seeded-bug
// acceptance loop (catch -> shrink -> replay), and matrix coverage.
#include <gtest/gtest.h>

#include "check/explorer.hpp"
#include "check/schedule.hpp"

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

Injection pcrash_leader(PhaseId phase, std::uint32_t k) {
  Injection inj;
  inj.kind = Injection::Kind::kPhaseCrash;
  inj.victim = Injection::kFirer;
  inj.phase = phase;
  inj.occurrence = k;
  return inj;
}

// --- schedule grammar ------------------------------------------------------

TEST(FaultScheduleTest, InjectionGrammarRoundTrips) {
  const char* lines[] = {
      "crash:3@2000000000",
      "pcrash:L@gather-started#1",
      "pcrash:2@leader-failover#3+1500000",
      "drop:0-1@4x3",
      "delay:2-3@7x2+400000000",
      "stale:1-2@5+3000000000",
      "sstall:1@2x3+150000000",
      "sstall:0@0x1+40000000",
      "loss:0-1@10000",
      "loss:2-3@1000000",
      "lossburst:1-2@4x5",
      "dup:0-3@2x6",
      "partition:2@1000000000+1500000000",
      "flap:1@1500000000+400000000x3",
      "treecrash:0@1",
      "treecrash:2@1+10000000",
  };
  for (const char* line : lines) {
    Injection inj;
    ASSERT_TRUE(check::parse_injection(line, inj)) << line;
    EXPECT_EQ(check::to_string(inj), line);
  }
}

TEST(FaultScheduleTest, RejectsMalformedInjections) {
  const char* lines[] = {
      "",  "crash:@2",          "crash:1",       "pcrash:L@no-such-phase#1",
      "pcrash:L@gather-started", "drop:0-1@4",   "delay:2-3@7x2",
      "stale:1-2@5",            "crash:1@2extra", "nonsense:1@2",
      "loss:0-1@0",             "loss:0-1@1000001",  // ppm out of range
      "lossburst:1-2@4",        "dup:0-3@2",         // missing window count
      "partition:2@1000",       "partition:2@1000+0",  // missing/zero width
      "flap:1@1500+400",        "flap:1@1500+400x0",   // missing/zero cycles
      "treecrash:@1",           "treecrash:0",         // missing index/occurrence
  };
  for (const char* line : lines) {
    Injection inj;
    EXPECT_FALSE(check::parse_injection(line, inj)) << line;
  }
}

TEST(FaultScheduleTest, NeedsReliableIffFabricDegrading) {
  FaultSchedule s;
  Injection inj;
  ASSERT_TRUE(check::parse_injection("crash:1@2000000000", inj));
  s.injections = {inj};
  EXPECT_FALSE(s.needs_reliable());
  ASSERT_TRUE(check::parse_injection("drop:0-1@4x3", inj));
  s.injections.push_back(inj);
  EXPECT_FALSE(s.needs_reliable());  // schedule drops are the perfect-fabric kind
  for (const char* line : {"loss:0-1@10000", "lossburst:1-2@4x5", "dup:0-3@2x6",
                           "partition:2@1000000000+1500000000",
                           "flap:1@1500000000+400000000x3"}) {
    ASSERT_TRUE(check::parse_injection(line, inj));
    FaultSchedule lossy;
    lossy.injections = {inj};
    EXPECT_TRUE(lossy.needs_reliable()) << line;
  }
}

TEST(FaultScheduleTest, ScheduleLineRoundTrips) {
  FaultSchedule s;
  s.n = 8;
  s.f = 2;
  s.algorithm = recovery::Algorithm::kBlocking;
  s.seed = 42;
  s.horizon = seconds(7);
  s.idle_deadline = seconds(55);
  s.restart = milliseconds(2500);
  s.seeded_bug = true;
  s.arity = 4;
  s.tokens = 8;
  s.injections = {crash(1, seconds(2)), pcrash_leader(PhaseId::kGatherStarted, 1)};

  FaultSchedule parsed;
  ASSERT_TRUE(FaultSchedule::parse(s.format(), parsed)) << s.format();
  EXPECT_EQ(parsed, s);
  EXPECT_EQ(parsed.arity, 4u);
  EXPECT_EQ(parsed.tokens, 8u);

  // The printed repro line (with the --replay prefix) parses back too.
  ASSERT_TRUE(FaultSchedule::parse(s.replay_line(), parsed));
  EXPECT_EQ(parsed, s);
}

TEST(FaultScheduleTest, ParseRejectsGarbage) {
  FaultSchedule s;
  EXPECT_FALSE(FaultSchedule::parse("", s));
  EXPECT_FALSE(FaultSchedule::parse("seed=1,n=4,f=2", s));  // no schedule=
  EXPECT_FALSE(FaultSchedule::parse("seed=1,n=2,f=4,alg=nonblocking,schedule=", s));
  EXPECT_FALSE(FaultSchedule::parse("seed=1,n=4,f=2,alg=quantum,schedule=", s));
  EXPECT_FALSE(FaultSchedule::parse("seed=1,n=4,f=2,alg=nonblocking,schedule=bogus:1", s));
}

// --- leader crash mid-gather across the grid -------------------------------

struct GridParam {
  std::uint32_t n;
  std::uint32_t f;
};

class LeaderCrashGrid : public ::testing::TestWithParam<GridParam> {};

// The round leader crashes mid-gather. With f == 1 it is killed at its
// first gather start and simply re-elects itself at a higher ordinal after
// restarting. With f >= 2 a concurrent crash rides along: the first gather
// awaits the concurrently-dead process, whose re-registration forces a
// gather restart; the restarted gather's leader is then killed and — with
// the restart delay stretched past the detector timeout so its silence is
// long enough to be *suspected* — the surviving recoverer takes over at
// the next ordinal (leader-failover). Either way recovery terminates and
// the full trace satisfies V1-V8.
TEST_P(LeaderCrashGrid, MidGatherLeaderCrashFailsOverAndTerminates) {
  const GridParam p = GetParam();
  FaultSchedule s;
  s.n = p.n;
  s.f = p.f;
  s.seed = 7;
  s.injections.push_back(crash(1, seconds(2)));
  if (p.f >= 2) {
    s.restart = milliseconds(2500);  // > detector timeout: suspicion possible
    s.injections.push_back(crash(2, milliseconds(2300)));
    s.injections.push_back(pcrash_leader(PhaseId::kGatherStarted, 2));
  } else {
    s.injections.push_back(pcrash_leader(PhaseId::kGatherStarted, 1));
  }

  const check::RunOutcome o = ScheduleExplorer::run(s);
  EXPECT_TRUE(o.terminated) << o.brief();
  EXPECT_TRUE(o.check.ok) << o.brief();
  EXPECT_GE(o.recoveries, 1u);

  const auto count = [&o](PhaseId id) {
    return o.phase_count[static_cast<std::size_t>(id)];
  };
  // The gather that was cut short ran again: at least two gather starts.
  EXPECT_GE(count(PhaseId::kGatherStarted), 2u);
  // Leadership was re-established after the crash (self re-election at a
  // higher ordinal, or a failover takeover by the concurrent recoverer).
  EXPECT_GE(count(PhaseId::kLeaderElected) + count(PhaseId::kLeaderFailover), 2u);
  if (p.f >= 2) {
    // The survivor stepped over the dead leader's live lower ordinal.
    EXPECT_GE(count(PhaseId::kLeaderFailover), 1u);
    // And the concurrent failure forced at least one gather restart.
    EXPECT_GE(o.gather_restarts, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LeaderCrashGrid,
                         ::testing::Values(GridParam{4, 1}, GridParam{4, 2},
                                           GridParam{8, 1}, GridParam{8, 2}),
                         [](const ::testing::TestParamInfo<GridParam>& info) {
                           return "n" + std::to_string(info.param.n) + "_f" +
                                  std::to_string(info.param.f);
                         });

// --- determinism & the seeded-bug acceptance loop --------------------------

TEST(ScheduleExplorerTest, RunIsDeterministicInTheSchedule) {
  FaultSchedule s;
  s.n = 4;
  s.f = 2;
  s.seed = 11;
  s.injections = {crash(0, seconds(2)), pcrash_leader(PhaseId::kIncVectorBuilt, 1)};
  const check::RunOutcome a = ScheduleExplorer::run(s);
  const check::RunOutcome b = ScheduleExplorer::run(s);
  EXPECT_EQ(a.state_hash, b.state_hash);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.phase_events, b.phase_events);
  EXPECT_EQ(a.check.ok, b.check.ok);
}

TEST(ScheduleExplorerTest, SeededBugIsCaughtShrunkAndReplayable) {
  check::ExploreOptions opt;
  opt.seed_bug = true;
  opt.seeds_per_cell = 2;
  opt.shrink_budget = 16;
  const check::ExploreResult r = ScheduleExplorer::explore(opt);

  ASSERT_GE(r.failures, 1u) << "seeded skip-gather-restart bug escaped the explorer";
  EXPECT_FALSE(r.first_outcome.ok());

  // The shrunk schedule still fails, is no bigger than the original, and
  // its printed --replay line round-trips to the identical schedule.
  EXPECT_FALSE(r.shrunk_outcome.ok()) << r.shrunk_outcome.brief();
  EXPECT_LE(r.shrunk.injections.size(), r.first_failure.injections.size());
  FaultSchedule replayed;
  ASSERT_TRUE(FaultSchedule::parse(r.replay, replayed)) << r.replay;
  EXPECT_EQ(replayed, r.shrunk);
  // Re-executing the parsed line reproduces the failure bit-identically.
  const check::RunOutcome again = ScheduleExplorer::run(replayed);
  EXPECT_EQ(again.ok(), r.shrunk_outcome.ok());
  EXPECT_EQ(again.state_hash, r.shrunk_outcome.state_hash);

  // The same minimal schedule with the bug disarmed passes: the failure is
  // the bug's, not the schedule's.
  FaultSchedule healthy = r.shrunk;
  healthy.seeded_bug = false;
  EXPECT_TRUE(ScheduleExplorer::run(healthy).ok());
}

TEST(ScheduleExplorerTest, MatrixCoversAtLeastTenThousandSchedules) {
  const auto schedules = ScheduleExplorer::matrix(check::ExploreOptions{});
  EXPECT_GE(schedules.size(), 10000u);
  // The grown matrix must exercise the new fault coordinates: correlated
  // multi-node crashes (two crash injections in one schedule), cascading
  // leader failovers (pcrash depth >= 2), storage stalls, and the
  // unreliable-fabric families (loss/partition/flap).
  std::size_t correlated = 0, cascading = 0, storage = 0, unreliable = 0;
  for (const auto& s : schedules) {
    std::size_t crashes = 0, failovers = 0;
    for (const auto& inj : s.injections) {
      if (inj.kind == Injection::Kind::kCrashAt) ++crashes;
      if (inj.kind == Injection::Kind::kPhaseCrash) ++failovers;
      if (inj.kind == Injection::Kind::kStall) ++storage;
    }
    if (crashes >= 2) ++correlated;
    if (failovers >= 2) ++cascading;
    if (s.needs_reliable()) ++unreliable;
  }
  EXPECT_GT(correlated, 0u);
  EXPECT_GT(cascading, 0u);
  EXPECT_GT(storage, 0u);
  EXPECT_GT(unreliable, 0u);
  // Every generated schedule round-trips through its replay line.
  for (std::size_t i = 0; i < schedules.size(); i += 97) {
    FaultSchedule parsed;
    ASSERT_TRUE(FaultSchedule::parse(schedules[i].format(), parsed));
    EXPECT_EQ(parsed, schedules[i]);
  }
}

TEST(ScheduleExplorerTest, UnreliableFilterSelectsOnlyLossySchedules) {
  check::ExploreOptions opt;
  opt.unreliable_only = true;
  opt.seeds_per_cell = 1;
  const auto schedules = ScheduleExplorer::matrix(opt);
  ASSERT_GT(schedules.size(), 0u);
  for (const auto& s : schedules) EXPECT_TRUE(s.needs_reliable()) << s.format();
}

TEST(ScheduleExplorerTest, ScaleFilterSelectsOnlyGatherTreeSchedules) {
  check::ExploreOptions opt;
  opt.scale_only = true;
  opt.seeds_per_cell = 1;
  const auto schedules = ScheduleExplorer::matrix(opt);
  ASSERT_GT(schedules.size(), 0u);
  std::size_t with_treecrash = 0;
  for (const auto& s : schedules) {
    EXPECT_GT(s.arity, 0u) << s.format();
    for (const auto& inj : s.injections) {
      if (inj.kind == Injection::Kind::kTreeCrash) ++with_treecrash;
    }
  }
  // The slice must actually hit relay nodes, not just set an arity.
  EXPECT_GT(with_treecrash, 0u);
}

// --- unreliable fabric end-to-end ------------------------------------------

// A crash under 10% bystander link loss: the reliable transport must mask
// the loss (no V9 duplicate/gap), recovery must terminate, and the run must
// replay bit-identically — retransmission timers included.
TEST(ScheduleExplorerTest, CrashUnderLinkLossPassesAllOraclesDeterministically) {
  FaultSchedule s;
  s.n = 4;
  s.f = 1;
  s.seed = 3;
  Injection crash_inj = crash(1, seconds(2));
  Injection loss_inj;
  ASSERT_TRUE(check::parse_injection("loss:2-3@100000", loss_inj));
  s.injections = {crash_inj, loss_inj};
  ASSERT_TRUE(s.needs_reliable());

  const check::RunOutcome a = ScheduleExplorer::run(s);
  EXPECT_TRUE(a.ok()) << a.brief();
  EXPECT_EQ(a.recoveries, 1u);
  EXPECT_GT(a.injections_applied, 1u);  // the loss draws actually fired
  const check::RunOutcome b = ScheduleExplorer::run(s);
  EXPECT_EQ(a.state_hash, b.state_hash);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.injections_applied, b.injections_applied);
}

// A partition that rises while the victim's peer is recovering: the gather
// round stalls (it must await the partitioned determinant holder, not skip
// it) and completes after the heal, within the idle deadline.
TEST(ScheduleExplorerTest, PartitionDuringRecoveryHealsAndTerminates) {
  FaultSchedule s;
  s.n = 4;
  s.f = 1;
  s.seed = 5;
  Injection part;
  ASSERT_TRUE(check::parse_injection("partition:2@2200000000+1500000000", part));
  s.injections = {crash(1, seconds(2)), part};
  const check::RunOutcome o = ScheduleExplorer::run(s);
  EXPECT_TRUE(o.ok()) << o.brief();
  EXPECT_EQ(o.recoveries, 1u);
}

}  // namespace
}  // namespace rr
