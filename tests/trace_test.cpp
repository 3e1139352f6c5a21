// TraceLog formatting and the HistoryChecker: synthetic traces that violate
// each property, plus real end-to-end traces from crash-recovery runs that
// must pass every check.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "trace/history_checker.hpp"
#include "trace/trace.hpp"

namespace rr::trace {
namespace {

constexpr ProcessId kA{0};
constexpr ProcessId kB{1};

// --- synthetic traces --------------------------------------------------------

struct SyntheticTrace {
  TraceLog log;
  Time t{0};

  SyntheticTrace& send(ProcessId src, ProcessId dst, Ssn ssn, Incarnation inc = 1,
                       bool transmitted = true) {
    log.record(++t, SendEvent{src, dst, ssn, inc, transmitted});
    return *this;
  }
  SyntheticTrace& deliver(ProcessId dst, ProcessId src, Ssn ssn, Rsn rsn,
                          Incarnation inc = 1, bool replayed = false,
                          Incarnation src_inc = 0) {
    log.record(++t, DeliverEvent{dst, src, ssn, rsn, inc, replayed, src_inc});
    return *this;
  }
  SyntheticTrace& crash(ProcessId pid, Incarnation inc) {
    log.record(++t, CrashEvent{pid, inc});
    return *this;
  }
  SyntheticTrace& restore(ProcessId pid, Incarnation inc, Rsn ckpt_rsn) {
    log.record(++t, RestoreEvent{pid, inc, ckpt_rsn});
    return *this;
  }
  SyntheticTrace& ckpt(ProcessId pid, Rsn rsn) {
    log.record(++t, CheckpointEvent{pid, rsn});
    return *this;
  }
  SyntheticTrace& floor(ProcessId pid, ProcessId about, Incarnation inc) {
    log.record(++t, FloorEvent{pid, about, inc});
    return *this;
  }
  SyntheticTrace& suspect(ProcessId observer, ProcessId peer, bool suspected = true) {
    log.record(++t, SuspectEvent{observer, peer, suspected});
    return *this;
  }
  SyntheticTrace& phase(ProcessId pid, trace::PhaseId id, recovery::Ord ord,
                        ProcessId subject, std::uint64_t round = 1) {
    log.record(++t, PhaseEvent{pid, id, round, ord, subject});
    return *this;
  }
};

bool mentions(const CheckResult& r, const char* tag) {
  for (const auto& v : r.violations) {
    if (v.find(tag) != std::string::npos) return true;
  }
  return false;
}

TEST(HistoryChecker, EmptyTraceIsOk) {
  TraceLog log;
  const auto r = check_history(log);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.deliveries, 0u);
}

TEST(HistoryChecker, CleanExchangePasses) {
  SyntheticTrace t;
  t.ckpt(kA, 0).ckpt(kB, 0);
  t.send(kA, kB, 1).deliver(kB, kA, 1, 1);
  t.send(kB, kA, 1).deliver(kA, kB, 1, 1);
  t.send(kA, kB, 2).deliver(kB, kA, 2, 2);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.sends, 3u);
  EXPECT_EQ(r.deliveries, 3u);
}

TEST(HistoryChecker, DetectsDeliveryWithoutSend) {
  SyntheticTrace t;
  t.deliver(kB, kA, 1, 1);
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations[0].find("V1"), std::string::npos);
}

TEST(HistoryChecker, DetectsDeliveryBeforeSend) {
  SyntheticTrace t;
  t.deliver(kB, kA, 1, 1).send(kA, kB, 1);
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations[0].find("V1"), std::string::npos);
}

TEST(HistoryChecker, DetectsReceiptOrderJump) {
  SyntheticTrace t;
  t.send(kA, kB, 1).send(kA, kB, 2);
  t.deliver(kB, kA, 1, 1).deliver(kB, kA, 2, 3);  // rsn 2 skipped
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations[0].find("V2"), std::string::npos);
}

TEST(HistoryChecker, DetectsChannelSsnRegression) {
  SyntheticTrace t;
  t.send(kA, kB, 1).send(kA, kB, 2);
  t.deliver(kB, kA, 2, 1).deliver(kB, kA, 1, 2);  // ssn going backwards
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations[0].find("V3"), std::string::npos);
}

TEST(HistoryChecker, DetectsReplayDivergence) {
  SyntheticTrace t;
  t.ckpt(kB, 0);
  t.send(kA, kB, 1).send(kA, kB, 2);
  t.deliver(kB, kA, 1, 1);
  t.crash(kB, 1).restore(kB, 2, 0);
  t.deliver(kB, kA, 2, 1, 2, /*replayed=*/true);  // should have been ssn 1
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations[0].find("V4"), std::string::npos);
}

TEST(HistoryChecker, FaithfulReplayPasses) {
  SyntheticTrace t;
  t.ckpt(kB, 0);
  t.send(kA, kB, 1);
  t.deliver(kB, kA, 1, 1);
  t.crash(kB, 1).restore(kB, 2, 0);
  t.deliver(kB, kA, 1, 1, 2, /*replayed=*/true);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.replayed, 1u);
  EXPECT_EQ(r.rollbacks, 0u);
  EXPECT_EQ(r.executions, 3u);  // A boot + B boot + B restore
}

TEST(HistoryChecker, CountsRollbacksWithoutFailing) {
  SyntheticTrace t;
  t.ckpt(kB, 0);
  t.send(kA, kB, 1).send(kA, kB, 2);
  t.deliver(kB, kA, 1, 1);  // lost receipt: never replayed after the crash
  t.crash(kB, 1).restore(kB, 2, 0);
  t.deliver(kB, kA, 1, 1, 2, /*replayed=*/false);  // fresh redelivery, same value
  t.deliver(kB, kA, 2, 2, 2, /*replayed=*/false);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.rollbacks, 0u);  // same (src, ssn) at rsn 1: not a divergence
}

TEST(HistoryChecker, DetectsOrphanedDelivery) {
  // B consumed A's message, then A crashed and its surviving execution
  // never (re)produced that send: B's state is orphaned.
  SyntheticTrace t;
  t.ckpt(kA, 0);
  t.send(kA, kB, 1);
  t.deliver(kB, kA, 1, 1);
  t.crash(kA, 1).restore(kA, 2, 0);
  // A's new incarnation sends nothing (no regeneration of ssn 1).
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  bool saw_v5 = false;
  for (const auto& v : r.violations) saw_v5 = saw_v5 || v.find("V5") != std::string::npos;
  EXPECT_TRUE(saw_v5);
}

TEST(HistoryChecker, RegeneratedSendCuresOrphan) {
  SyntheticTrace t;
  t.ckpt(kA, 0);
  t.send(kA, kB, 1);
  t.deliver(kB, kA, 1, 1);
  t.crash(kA, 1).restore(kA, 2, 0);
  t.send(kA, kB, 1, 2, /*transmitted=*/false);  // suppressed regeneration
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(HistoryChecker, CheckpointPreservesPreCutSends) {
  SyntheticTrace t;
  t.send(kA, kB, 1);
  t.ckpt(kA, 0);  // checkpoint cut after the send: the send log survives
  t.deliver(kB, kA, 1, 1);
  t.crash(kA, 1).restore(kA, 2, 0);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(HistoryChecker, DetectsLifecycleViolations) {
  SyntheticTrace t;
  t.crash(kA, 1).crash(kA, 1);
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations[0].find("V6"), std::string::npos);
}

TEST(HistoryChecker, DetectsNonMonotonicIncarnation) {
  SyntheticTrace t;
  t.crash(kA, 1).restore(kA, 1, 0);
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
}

// --- V7: incvector stale rejection ------------------------------------------

TEST(HistoryChecker, DetectsFreshDeliveryBelowIncvectorFloor) {
  SyntheticTrace t;
  t.send(kA, kB, 1);
  t.floor(kB, kA, 2);  // B learned (via DepInstall) that A restarted at inc 2
  t.deliver(kB, kA, 1, 1, 1, /*replayed=*/false, /*src_inc=*/1);  // stale straggler
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(mentions(r, "V7")) << r.summary();
}

TEST(HistoryChecker, DeliveryAtTheFloorIncarnationPasses) {
  SyntheticTrace t;
  t.floor(kB, kA, 2);
  t.send(kA, kB, 1, 2);
  t.deliver(kB, kA, 1, 1, 1, /*replayed=*/false, /*src_inc=*/2);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(HistoryChecker, ReplayedDeliveriesAreExemptFromTheFloor) {
  // Replay re-consumes pre-recovery frames by construction; V7 only guards
  // fresh wire traffic.
  SyntheticTrace t;
  t.ckpt(kB, 0);
  t.send(kA, kB, 1);
  t.deliver(kB, kA, 1, 1);
  t.crash(kB, 1).restore(kB, 2, 0);
  t.floor(kB, kA, 5);
  t.deliver(kB, kA, 1, 1, 2, /*replayed=*/true, /*src_inc=*/1);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(HistoryChecker, CrashResetsTheVolatileFloor) {
  // Floors live in volatile memory: after B itself crashes, its old floor
  // for A is gone until recovery re-installs one.
  SyntheticTrace t;
  t.ckpt(kB, 0);
  t.floor(kB, kA, 2);
  t.crash(kB, 1).restore(kB, 2, 0);
  t.send(kA, kB, 1);
  t.deliver(kB, kA, 1, 1, 2, /*replayed=*/false, /*src_inc=*/1);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- V8: leader-ordinal monotonicity ----------------------------------------

constexpr ProcessId kSvc{9};  // the ord service's host in these traces

TEST(HistoryChecker, DetectsLeaderWithoutOrdinalRegistration) {
  SyntheticTrace t;
  t.phase(kA, trace::PhaseId::kLeaderElected, 1, kA);
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(mentions(r, "V8")) << r.summary();
}

TEST(HistoryChecker, DetectsLeaderAtMismatchedOrdinal) {
  SyntheticTrace t;
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.phase(kA, trace::PhaseId::kLeaderElected, 5, kA);  // claims ord 5, holds 1
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(mentions(r, "V8")) << r.summary();
}

TEST(HistoryChecker, DetectsLeadershipSkippingLiveLowerOrdinal) {
  SyntheticTrace t;
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 2, kB);
  t.phase(kB, trace::PhaseId::kLeaderElected, 2, kB);  // A (ord 1) is alive
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(mentions(r, "V8")) << r.summary();
}

TEST(HistoryChecker, FailoverOverACrashedLowerOrdinalPasses) {
  // The paper's next-ordinal failover: A registered at ord 1, then crashed
  // again; B may take over at ord 2.
  SyntheticTrace t;
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.crash(kA, 1);
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 2, kB);
  t.phase(kB, trace::PhaseId::kLeaderFailover, 2, kB);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(HistoryChecker, SuspectedLowerOrdinalExcusesFailover) {
  SyntheticTrace t;
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 2, kB);
  t.suspect(kB, kA);
  t.phase(kB, trace::PhaseId::kLeaderFailover, 2, kB);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(HistoryChecker, RetractedSuspicionRevokesTheFailoverExcuse) {
  SyntheticTrace t;
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 2, kB);
  t.suspect(kB, kA);
  t.suspect(kB, kA, /*suspected=*/false);  // detector changed its mind
  t.phase(kB, trace::PhaseId::kLeaderFailover, 2, kB);
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(mentions(r, "V8")) << r.summary();
}

TEST(HistoryChecker, RetiredOrdinalNoLongerConstrainsLeadership) {
  SyntheticTrace t;
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.phase(kA, trace::PhaseId::kLeaderElected, 1, kA);  // legitimate reign
  t.phase(kSvc, trace::PhaseId::kOrdRetired, 1, kA);   // RecoveryComplete
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 2, kB);
  t.phase(kB, trace::PhaseId::kLeaderElected, 2, kB);
  const auto r = check_history(t.log);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(HistoryChecker, DetectsLeadershipOnARetiredRegistration) {
  SyntheticTrace t;
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.phase(kSvc, trace::PhaseId::kOrdRetired, 1, kA);
  t.phase(kA, trace::PhaseId::kLeaderElected, 1, kA);  // reign after release
  const auto r = check_history(t.log);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(mentions(r, "V8")) << r.summary();
}

TEST(TraceLogTest, DumpRendersEveryKind) {
  SyntheticTrace t;
  t.send(kA, kB, 1).deliver(kB, kA, 1, 1).crash(kA, 1).restore(kA, 2, 0).ckpt(kB, 1);
  t.log.record(99, CompleteEvent{kA, 2, 5});
  t.phase(kSvc, trace::PhaseId::kOrdAssigned, 1, kA);
  t.suspect(kB, kA);
  t.floor(kB, kA, 2);
  const std::string dump = t.log.dump();
  for (const char* token :
       {"send", "deliver", "crash", "restore", "ckpt", "complete", "phase", "suspect", "floor"}) {
    EXPECT_NE(dump.find(token), std::string::npos) << token;
  }
  EXPECT_EQ(t.log.dump(2).find("more events") != std::string::npos, true);
}

// --- end-to-end: real traces from the runtime --------------------------------

TEST(HistoryCheckerE2E, FailureFreeRunPasses) {
  harness::ScenarioConfig sc;
  sc.cluster = test::fast_cluster(3, 1, recovery::Algorithm::kNonBlocking);
  sc.cluster.enable_trace = true;
  sc.factory = test::gossip_factory();
  sc.horizon = seconds(3);
  trace::CheckResult check;
  harness::run_scenario(sc, [&](runtime::Cluster& c) { check = c.check_history(); });
  EXPECT_TRUE(check.ok) << check.summary();
  EXPECT_GT(check.deliveries, 100u);
  EXPECT_EQ(check.rollbacks, 0u);
}

TEST(HistoryCheckerE2E, SingleFailurePasses) {
  for (const auto alg : {recovery::Algorithm::kNonBlocking, recovery::Algorithm::kBlocking,
                         recovery::Algorithm::kDeferUnsafe}) {
    harness::ScenarioConfig sc;
    sc.cluster = test::fast_cluster(4, 2, alg, 21);
    sc.cluster.enable_trace = true;
    sc.factory = test::gossip_factory();
    sc.crashes = {{ProcessId{1}, seconds(3)}};
    sc.horizon = seconds(8);
    trace::CheckResult check;
    harness::run_scenario(sc, [&](runtime::Cluster& c) { check = c.check_history(); });
    EXPECT_TRUE(check.ok) << recovery::to_string(alg) << ": " << check.summary()
                          << (check.violations.empty() ? "" : "\n" + check.violations[0]);
    EXPECT_GT(check.replayed, 0u);
    EXPECT_EQ(check.rollbacks, 0u);  // within the f budget nothing rolls back
  }
}

TEST(HistoryCheckerE2E, DoubleFailureDuringRecoveryPasses) {
  harness::ScenarioConfig sc;
  sc.cluster = test::fast_cluster(4, 2, recovery::Algorithm::kNonBlocking, 22);
  sc.cluster.enable_trace = true;
  sc.factory = test::gossip_factory();
  sc.crashes = {{ProcessId{1}, seconds(3)}, {ProcessId{2}, milliseconds(3'700)}};
  sc.horizon = seconds(9);
  trace::CheckResult check;
  harness::run_scenario(sc, [&](runtime::Cluster& c) { check = c.check_history(); });
  EXPECT_TRUE(check.ok) << check.summary()
                        << (check.violations.empty() ? "" : "\n" + check.violations[0]);
  EXPECT_GE(check.executions, 6u);  // 4 boots + 2 restores
  EXPECT_EQ(check.rollbacks, 0u);
}

TEST(HistoryCheckerE2E, RepeatedCrashesOfSameProcessPass) {
  harness::ScenarioConfig sc;
  sc.cluster = test::fast_cluster(3, 1, recovery::Algorithm::kNonBlocking, 23);
  sc.cluster.enable_trace = true;
  sc.factory = test::gossip_factory();
  sc.crashes = {{ProcessId{0}, seconds(2)}, {ProcessId{0}, seconds(5)}};
  sc.horizon = seconds(9);
  trace::CheckResult check;
  harness::run_scenario(sc, [&](runtime::Cluster& c) { check = c.check_history(); });
  EXPECT_TRUE(check.ok) << check.summary()
                        << (check.violations.empty() ? "" : "\n" + check.violations[0]);
}

}  // namespace
}  // namespace rr::trace
