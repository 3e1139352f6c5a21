// LoggingEngine: the failure-free FBL state machine, driven as a pure value
// by pairs/triples of engines exchanging frames.
#include <gtest/gtest.h>

#include "fbl/checkpoint.hpp"
#include "fbl/engine.hpp"
#include "fbl/frame.hpp"

namespace rr::fbl {
namespace {

AppFrame decode_frame(const Bytes& wire) {
  BufReader r(wire);
  EXPECT_EQ(decode_kind(r), FrameKind::kApp);
  return AppFrame::decode(r);
}

struct EngineFixture : ::testing::Test {
  static constexpr std::uint32_t kN = 4;
  LoggingEngine p{EngineConfig{ProcessId{0}, kN, 2}};
  LoggingEngine q{EngineConfig{ProcessId{1}, kN, 2}};
  LoggingEngine r{EngineConfig{ProcessId{2}, kN, 2}};
  IncVector incs;

  /// Send from `a` to `b` and deliver; returns the accept result.
  LoggingEngine::AcceptResult relay(LoggingEngine& a, LoggingEngine& b, const char* text) {
    auto out = a.make_frame(b.self(), to_bytes(text), 1);
    return b.accept(a.self(), decode_frame(out.frame), incs);
  }
};

TEST_F(EngineFixture, SsnIsPerChannel) {
  EXPECT_EQ(p.make_frame(ProcessId{1}, Bytes{}, 1).ssn, 1u);
  EXPECT_EQ(p.make_frame(ProcessId{2}, Bytes{}, 1).ssn, 1u);  // separate channel
  EXPECT_EQ(p.make_frame(ProcessId{1}, Bytes{}, 1).ssn, 2u);
}

TEST_F(EngineFixture, SelfSendAborts) {
  EXPECT_DEATH((void)p.make_frame(ProcessId{0}, Bytes{}, 1), "self-sends");
}

TEST_F(EngineFixture, DeliveryAssignsSequentialRsn) {
  EXPECT_EQ(relay(p, q, "a").rsn, 1u);
  EXPECT_EQ(relay(r, q, "b").rsn, 2u);
  EXPECT_EQ(relay(p, q, "c").rsn, 3u);
  EXPECT_EQ(q.rsn(), 3u);
}

TEST_F(EngineFixture, DeliveryMintsOwnDeterminant) {
  relay(p, q, "a");
  const auto* h = q.det_log().find(ProcessId{1}, 1);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->det.source, ProcessId{0});
  EXPECT_EQ(h->det.ssn, 1u);
  EXPECT_EQ(h->holders, holder_bit(ProcessId{1}));
}

TEST_F(EngineFixture, DuplicateRejectedButKnowledgeKept) {
  auto out = p.make_frame(ProcessId{1}, to_bytes("x"), 1);
  const AppFrame frame = decode_frame(out.frame);
  EXPECT_EQ(q.accept(ProcessId{0}, frame, incs).verdict, LoggingEngine::Verdict::kDeliver);
  EXPECT_EQ(q.accept(ProcessId{0}, frame, incs).verdict, LoggingEngine::Verdict::kDuplicate);
  EXPECT_EQ(q.rsn(), 1u);
}

TEST_F(EngineFixture, GapHeldAsOutOfOrder) {
  auto m1 = p.make_frame(ProcessId{1}, to_bytes("1"), 1);
  auto m2 = p.make_frame(ProcessId{1}, to_bytes("2"), 1);
  EXPECT_EQ(q.accept(ProcessId{0}, decode_frame(m2.frame), incs).verdict,
            LoggingEngine::Verdict::kOutOfOrder);
  EXPECT_EQ(q.accept(ProcessId{0}, decode_frame(m1.frame), incs).verdict,
            LoggingEngine::Verdict::kDeliver);
  EXPECT_EQ(q.accept(ProcessId{0}, decode_frame(m2.frame), incs).verdict,
            LoggingEngine::Verdict::kDeliver);
}

TEST_F(EngineFixture, StaleIncarnationRejectedEntirely) {
  raise_incarnation(incs, ProcessId{0}, 2);
  auto out = p.make_frame(ProcessId{1}, to_bytes("old"), 1);  // inc 1 < floor 2
  const auto res = q.accept(ProcessId{0}, decode_frame(out.frame), incs);
  EXPECT_EQ(res.verdict, LoggingEngine::Verdict::kStale);
  EXPECT_EQ(q.rsn(), 0u);
  EXPECT_EQ(q.det_log().size(), 0u);  // no knowledge absorbed from stale frames
}

TEST_F(EngineFixture, CurrentIncarnationAccepted) {
  raise_incarnation(incs, ProcessId{0}, 2);
  auto out = p.make_frame(ProcessId{1}, to_bytes("new"), 2);
  EXPECT_EQ(q.accept(ProcessId{0}, decode_frame(out.frame), incs).verdict,
            LoggingEngine::Verdict::kDeliver);
}

TEST_F(EngineFixture, SendLogsPayload) {
  (void)p.make_frame(ProcessId{1}, to_bytes("logged"), 1);
  ASSERT_NE(p.send_log().find(ProcessId{1}, 1), nullptr);
  EXPECT_EQ(to_text(*p.send_log().find(ProcessId{1}, 1)), "logged");
}

TEST_F(EngineFixture, PiggybackCarriesReceiptOrdersDownstream) {
  relay(p, q, "m");                                       // q now holds det(m)
  auto out = q.make_frame(ProcessId{2}, to_bytes("m'"), 1);
  const AppFrame frame = decode_frame(out.frame);
  ASSERT_EQ(frame.dets.size(), 1u);
  EXPECT_EQ(frame.dets[0].det.dest, ProcessId{1});
  // q optimistically counts r as holder now.
  EXPECT_TRUE(holds(frame.dets[0].holders, ProcessId{2}));
  const auto res = r.accept(ProcessId{1}, frame, incs);
  EXPECT_EQ(res.dets_learned, 1u);
  EXPECT_TRUE(r.det_log().contains(ProcessId{1}, 1));
}

TEST_F(EngineFixture, PropagationStopsAtFPlusOneHolders) {
  relay(p, q, "m");  // holders of det(m): {q}
  // q -> r: det piggybacked, holders {q, r}.
  auto to_r = q.make_frame(ProcessId{2}, Bytes{}, 1);
  (void)r.accept(ProcessId{1}, decode_frame(to_r.frame), incs);
  // q -> p: holders {q, r, p} = f+1 = 3 from q's view.
  auto to_p = q.make_frame(ProcessId{0}, Bytes{}, 1);
  EXPECT_EQ(decode_frame(to_p.frame).dets.size(), 1u);
  // Now propagation stops: q's next frame carries nothing.
  auto again = q.make_frame(ProcessId{2}, Bytes{}, 1);
  EXPECT_EQ(decode_frame(again.frame).dets.size(), 0u);
}

TEST_F(EngineFixture, PiggybackNotRepeatedToSameDestination) {
  relay(p, q, "m");
  auto first = q.make_frame(ProcessId{2}, Bytes{}, 1);
  EXPECT_EQ(decode_frame(first.frame).dets.size(), 1u);
  auto second = q.make_frame(ProcessId{2}, Bytes{}, 1);
  EXPECT_EQ(decode_frame(second.frame).dets.size(), 0u);
}

TEST_F(EngineFixture, CheckpointRoundTripRestoresEverything) {
  relay(p, q, "a");
  relay(q, p, "b");
  (void)p.make_frame(ProcessId{2}, to_bytes("c"), 1);
  const Checkpoint cp = p.make_checkpoint(to_bytes("appstate"));
  const Bytes blob = cp.encode();

  LoggingEngine restored{EngineConfig{ProcessId{0}, kN, 2}};
  restored.load(Checkpoint::decode(blob));
  EXPECT_EQ(restored.rsn(), p.rsn());
  EXPECT_EQ(restored.send_seq(), p.send_seq());
  EXPECT_EQ(restored.recv_marks(), p.recv_marks());
  EXPECT_EQ(restored.send_log().size(), p.send_log().size());
  EXPECT_EQ(restored.det_log().size(), p.det_log().size());
  // Next send continues the ssn sequence.
  EXPECT_EQ(restored.make_frame(ProcessId{1}, Bytes{}, 2).ssn, 2u);
}

TEST_F(EngineFixture, CheckpointDecodeRejectsGarbage) {
  EXPECT_THROW((void)Checkpoint::decode(to_bytes("not a checkpoint")), SerdeError);
}

TEST_F(EngineFixture, CkptNoticePrunesSendLogAndDets) {
  relay(p, q, "a");
  relay(p, q, "b");
  relay(p, q, "c");
  // q checkpoints having delivered everything (rsn 3, mark 3).
  CkptNoticeFrame notice;
  notice.rsn = q.rsn();
  notice.recv_marks = q.recv_marks();
  const auto gc = p.on_ckpt_notice(ProcessId{1}, notice);
  EXPECT_EQ(gc.send_entries, 3u);
  EXPECT_EQ(p.send_log().size(), 0u);
  // p held no dets destined to q beyond its own piggyback knowledge.
  (void)gc.determinants;
}

TEST_F(EngineFixture, CkptNoticeKeepsUncoveredEntries) {
  relay(p, q, "a");
  auto late = p.make_frame(ProcessId{1}, to_bytes("late"), 1);  // never delivered
  (void)late;
  CkptNoticeFrame notice;
  notice.rsn = q.rsn();
  notice.recv_marks = q.recv_marks();  // mark = 1
  const auto gc = p.on_ckpt_notice(ProcessId{1}, notice);
  EXPECT_EQ(gc.send_entries, 1u);
  ASSERT_NE(p.send_log().find(ProcessId{1}, 2), nullptr);
}

TEST_F(EngineFixture, DeliverReplayedReproducesSequence) {
  // Original run: q receives three messages.
  auto m1 = p.make_frame(ProcessId{1}, to_bytes("1"), 1);
  auto m2 = r.make_frame(ProcessId{1}, to_bytes("2"), 1);
  auto m3 = p.make_frame(ProcessId{1}, to_bytes("3"), 1);
  (void)q.accept(ProcessId{0}, decode_frame(m1.frame), incs);
  (void)q.accept(ProcessId{2}, decode_frame(m2.frame), incs);
  (void)q.accept(ProcessId{0}, decode_frame(m3.frame), incs);

  // Replay into a fresh engine.
  LoggingEngine fresh{EngineConfig{ProcessId{1}, kN, 2}};
  fresh.deliver_replayed(Determinant{ProcessId{0}, 1, ProcessId{1}, 1}, 0);
  fresh.deliver_replayed(Determinant{ProcessId{2}, 1, ProcessId{1}, 2}, 0);
  fresh.deliver_replayed(Determinant{ProcessId{0}, 2, ProcessId{1}, 3}, 0);
  EXPECT_EQ(fresh.rsn(), 3u);
  EXPECT_EQ(fresh.recv_marks(), q.recv_marks());
}

TEST_F(EngineFixture, DeliverReplayedEnforcesOrder) {
  LoggingEngine fresh{EngineConfig{ProcessId{1}, kN, 2}};
  EXPECT_DEATH(fresh.deliver_replayed(Determinant{ProcessId{0}, 1, ProcessId{1}, 2}, 0),
               "receipt order");
}

TEST_F(EngineFixture, DeliverReplayedEnforcesChannelContinuity) {
  LoggingEngine fresh{EngineConfig{ProcessId{1}, kN, 2}};
  EXPECT_DEATH(fresh.deliver_replayed(Determinant{ProcessId{0}, 5, ProcessId{1}, 1}, 0),
               "gap-free");
}

TEST_F(EngineFixture, RetransmitFrameKeepsSsnAndPayload) {
  (void)p.make_frame(ProcessId{1}, to_bytes("keep"), 1);
  auto rt = p.retransmit_frame(ProcessId{1}, 1, 3);
  ASSERT_TRUE(rt.has_value());
  const AppFrame frame = decode_frame(rt->frame);
  EXPECT_EQ(frame.ssn, 1u);
  EXPECT_EQ(frame.inc, 3u);
  EXPECT_EQ(to_text(frame.payload), "keep");
}

TEST_F(EngineFixture, RetransmitFrameMissingEntryReturnsNullopt) {
  EXPECT_FALSE(p.retransmit_frame(ProcessId{1}, 7, 1).has_value());
}

TEST_F(EngineFixture, ForgetHolderDropsCrashedPeersKnowledge) {
  relay(p, q, "m");  // det(m) dest=q
  // p learns the det via q's next message.
  auto out = q.make_frame(ProcessId{0}, Bytes{}, 1);
  (void)p.accept(ProcessId{1}, decode_frame(out.frame), incs);
  const auto* before = p.det_log().find(ProcessId{1}, 1);
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(holds(before->holders, ProcessId{1}));

  // q crashed and recovered only up to rsn 0: its copy is gone.
  p.det_log().forget_holder(ProcessId{1}, 0);
  const auto* after = p.det_log().find(ProcessId{1}, 1);
  ASSERT_NE(after, nullptr);
  EXPECT_FALSE(holds(after->holders, ProcessId{1}));
}

TEST_F(EngineFixture, ForgetHolderKeepsReestablishedReceipts) {
  relay(p, q, "m");
  auto out = q.make_frame(ProcessId{0}, Bytes{}, 1);
  (void)p.accept(ProcessId{1}, decode_frame(out.frame), incs);
  // q recovered past rsn 1: it re-learned its own receipt.
  p.det_log().forget_holder(ProcessId{1}, 1);
  const auto* h = p.det_log().find(ProcessId{1}, 1);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(holds(h->holders, ProcessId{1}));
}

TEST_F(EngineFixture, StableInstanceFlag) {
  EXPECT_FALSE(p.stable_instance());
  LoggingEngine manetho{EngineConfig{ProcessId{0}, 4, 4}};
  EXPECT_TRUE(manetho.stable_instance());
}

TEST_F(EngineFixture, ConfigValidation) {
  EXPECT_DEATH(LoggingEngine(EngineConfig{ProcessId{0}, 4, 0}), "f must be at least 1");
  EXPECT_DEATH(LoggingEngine(EngineConfig{ProcessId{0}, 4, 5}), "f cannot exceed n");
  EXPECT_DEATH(LoggingEngine(EngineConfig{ProcessId{0}, 1, 1}), "at least two");
}

}  // namespace
}  // namespace rr::fbl
