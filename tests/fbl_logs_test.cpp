// Determinants, holder masks, the determinant log (piggyback selection,
// GC, indices) and the sender-based send log.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "fbl/determinant.hpp"
#include "fbl/determinant_log.hpp"
#include "fbl/send_log.hpp"

namespace rr::fbl {
namespace {

Determinant det(std::uint32_t src, Ssn ssn, std::uint32_t dst, Rsn rsn) {
  return Determinant{ProcessId{src}, ssn, ProcessId{dst}, rsn};
}

TEST(HolderMask, BitHelpers) {
  HolderMask m = holder_bit(ProcessId{0}) | holder_bit(ProcessId{5});
  EXPECT_TRUE(holds(m, ProcessId{0}));
  EXPECT_TRUE(holds(m, ProcessId{5}));
  EXPECT_FALSE(holds(m, ProcessId{1}));
  EXPECT_EQ(holder_count(m), 2);
  EXPECT_EQ(holder_count(m | kStableHolder), 3);
}

TEST(Determinant, SerdeRoundTrip) {
  const Determinant d = det(1, 42, 2, 7);
  BufWriter w;
  d.encode(w);
  EXPECT_EQ(w.size(), Determinant::kWireBytes);
  BufReader r(w.view());
  EXPECT_EQ(Determinant::decode(r), d);
}

TEST(Determinant, HeldSerdeRoundTrip) {
  const HeldDeterminant h{det(1, 42, 2, 7), 0xDEADULL};
  BufWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), h.wire_bytes());
  EXPECT_GE(w.size(), HeldDeterminant::kMinWireBytes);
  BufReader r(w.view());
  EXPECT_EQ(HeldDeterminant::decode(r), h);
}

TEST(Determinant, ToStringMentionsAllParts) {
  const auto s = to_string(det(1, 42, 2, 7));
  EXPECT_NE(s.find("p1"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("p2"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
}

struct DetLogFixture : ::testing::Test {
  DeterminantLog log;
  void SetUp() override { log.set_propagation_threshold(3); }  // f = 2
};

TEST_F(DetLogFixture, RecordReturnsTrueOnlyForNew) {
  EXPECT_TRUE(log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})}));
  EXPECT_FALSE(log.record({det(1, 1, 2, 1), holder_bit(ProcessId{3})}));
  EXPECT_EQ(log.size(), 1u);
}

TEST_F(DetLogFixture, RecordMergesHolders) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{3})});
  const auto* h = log.find(ProcessId{2}, 1);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(holder_count(h->holders), 2);
}

TEST_F(DetLogFixture, AddHoldersIgnoresUnknown) {
  log.add_holders(det(1, 1, 2, 1), holder_bit(ProcessId{4}));
  EXPECT_EQ(log.size(), 0u);
}

TEST_F(DetLogFixture, PiggybackSkipsKnownHolders) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2}) | holder_bit(ProcessId{4})});
  EXPECT_EQ(log.piggyback_for(ProcessId{4}).size(), 0u);
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
}

TEST_F(DetLogFixture, PiggybackStopsAtThreshold) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
  log.add_holders(det(1, 1, 2, 1), holder_bit(ProcessId{6}) | holder_bit(ProcessId{7}));
  // Three holders known = f+1: propagation stops.
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
  EXPECT_EQ(log.active_size(), 0u);
}

TEST_F(DetLogFixture, StableHolderStopsPropagation) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.add_holders(det(1, 1, 2, 1), kStableHolder);
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
}

TEST_F(DetLogFixture, RemoveHolderReactivatesPropagation) {
  log.record(
      {det(1, 1, 2, 1),
       holder_bit(ProcessId{2}) | holder_bit(ProcessId{3}) | holder_bit(ProcessId{4})});
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
  log.forget_holder(ProcessId{3}, 0);
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
  EXPECT_FALSE(holds(log.find(ProcessId{2}, 1)->holders, ProcessId{3}));
}

TEST_F(DetLogFixture, PendingIndexDrainsOnHolderMark) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  ASSERT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
  // Sender marks 5 as holder after piggybacking (the engine's optimistic
  // rule): the next piggyback to 5 must be empty.
  log.add_holders(det(1, 1, 2, 1), holder_bit(ProcessId{5}));
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
  // Other destinations still see it.
  EXPECT_EQ(log.piggyback_for(ProcessId{6}).size(), 1u);
}

TEST_F(DetLogFixture, SliceForFiltersByDestination) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 2, 3, 1), holder_bit(ProcessId{3})});
  log.record({det(1, 3, 2, 2), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.slice_for(holder_bit(ProcessId{2})).size(), 2u);
  EXPECT_EQ(log.slice_for(holder_bit(ProcessId{3})).size(), 1u);
  EXPECT_EQ(log.slice_for(holder_bit(ProcessId{2}) | holder_bit(ProcessId{3})).size(), 3u);
}

TEST_F(DetLogFixture, ReplayScheduleOrderedAndFiltered) {
  log.record({det(1, 3, 2, 3), holder_bit(ProcessId{2})});
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(4, 1, 2, 2), holder_bit(ProcessId{2})});
  const auto sched = log.replay_schedule(ProcessId{2}, 1);
  ASSERT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched[0].rsn, 2u);
  EXPECT_EQ(sched[1].rsn, 3u);
}

TEST_F(DetLogFixture, MaxSsnPerChannel) {
  log.record({det(1, 5, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 9, 2, 2), holder_bit(ProcessId{2})});
  log.record({det(4, 100, 2, 3), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.max_ssn(ProcessId{1}, ProcessId{2}), 9u);
  EXPECT_EQ(log.max_ssn(ProcessId{4}, ProcessId{2}), 100u);
  EXPECT_EQ(log.max_ssn(ProcessId{7}, ProcessId{2}), 0u);
}

TEST_F(DetLogFixture, PruneDestDropsCoveredReceipts) {
  for (Rsn i = 1; i <= 10; ++i) log.record({det(1, i, 2, i), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.prune_dest(ProcessId{2}, 7), 7u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_FALSE(log.contains(ProcessId{2}, 7));
  EXPECT_TRUE(log.contains(ProcessId{2}, 8));
  // Pruned determinants leave the piggyback path too.
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 3u);
}

TEST_F(DetLogFixture, UnstableTracksStableFlag) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 2, 2, 2), holder_bit(ProcessId{2}) | kStableHolder});
  const auto u = log.unstable();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0].rsn, 1u);
  log.add_holders(det(1, 1, 2, 1), kStableHolder);
  EXPECT_TRUE(log.unstable().empty());
}

TEST_F(DetLogFixture, EncodeDecodePreservesEverything) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(3, 4, 5, 6), holder_bit(ProcessId{5}) | kStableHolder});
  BufWriter w;
  log.encode(w);
  BufReader r(w.view());
  DeterminantLog copy = DeterminantLog::decode(r);
  copy.set_propagation_threshold(3);
  EXPECT_EQ(copy.size(), 2u);
  const auto* h = copy.find(ProcessId{5}, 6);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE((h->holders & kStableHolder) != 0);
  EXPECT_EQ(copy.piggyback_for(ProcessId{9}).size(), 1u);  // stable one excluded
}

// Reference model: the log's every query against a plain map of
// (dest, rsn) -> held determinant and a threshold, over seeded random
// sequences of every mutation. Thresholds run up to kProcs + 1 (f = n),
// where determinants all kProcs processes hold leave the active index but
// stay in piggyback_all().
class DetLogModel {
 public:
  static constexpr std::uint32_t kProcs = 6;

  explicit DetLogModel(std::uint64_t seed) : rng_(seed) {
    log_.set_propagation_threshold(threshold_, kProcs);
  }

  void step() {
    switch (rng_.bounded(7)) {
      case 0:
      case 1: {
        const HeldDeterminant h = random_held();
        EXPECT_EQ(log_.record(h), !model_.contains(key_of(h.det)));
        merge(h);
        break;
      }
      case 2: {
        std::vector<HeldDeterminant> wire(rng_.bounded(4));
        for (auto& h : wire) h = random_held();
        const ProcessId self{static_cast<std::uint32_t>(rng_.bounded(kProcs))};
        std::size_t fresh = 0;
        for (const auto& h : wire) {
          if (!model_.contains(key_of(h.det))) ++fresh;
          merge({h.det, h.holders | holder_bit(self)});
        }
        EXPECT_EQ(log_.absorb(wire, self), fresh);
        break;
      }
      case 3: {
        const HeldDeterminant h = random_held();
        log_.add_holders(h.det, h.holders);
        if (model_.contains(key_of(h.det))) merge(h);
        break;
      }
      case 4: {
        const ProcessId peer{static_cast<std::uint32_t>(rng_.bounded(kProcs))};
        const Rsn kept = rng_.bounded(kRsns + 1);
        log_.forget_holder(peer, kept);
        for (auto& [key, h] : model_) {
          if (h.det.dest == peer && h.det.rsn <= kept) continue;
          h.holders &= ~holder_bit(peer);
        }
        break;
      }
      case 5: {
        const ProcessId dest{static_cast<std::uint32_t>(rng_.bounded(kProcs))};
        const Rsn upto = rng_.bounded(kRsns + 1);
        const std::size_t n = std::erase_if(model_, [&](const auto& kv) {
          return kv.first.first == dest && kv.first.second <= upto;
        });
        EXPECT_EQ(log_.prune_dest(dest, upto), n);
        break;
      }
      default:
        threshold_ = static_cast<int>(rng_.bounded(kProcs + 1)) + 1;
        log_.set_propagation_threshold(threshold_, kProcs);
        break;
    }
  }

  void check() const {
    std::vector<HeldDeterminant> all;
    std::vector<HeldDeterminant> active;
    std::vector<Determinant> unstable;
    std::size_t active_size = 0;
    for (const auto& [key, h] : model_) {
      all.push_back(h);
      if (is_active(h)) active.push_back(h);
      if (is_active(h) && holder_count(h.holders) < static_cast<int>(kProcs)) ++active_size;
      if ((h.holders & kStableHolder) == 0) unstable.push_back(h.det);
    }
    EXPECT_EQ(log_.size(), all.size());
    EXPECT_EQ(log_.active_size(), active_size);
    EXPECT_EQ(log_.piggyback_all(), active);
    EXPECT_EQ(log_.unstable(), unstable);
    EXPECT_EQ(log_.slice_for(~HolderMask{0}), all);
    for (std::uint32_t p = 0; p < kProcs; ++p) {
      const ProcessId pid{p};
      std::vector<HeldDeterminant> to_p;
      std::vector<HeldDeterminant> slice;
      std::vector<Determinant> schedule;
      for (const auto& h : active) {
        if (!holds(h.holders, pid)) to_p.push_back(h);
      }
      for (const auto& h : all) {
        if (h.det.dest != pid) continue;
        slice.push_back(h);
        if (h.det.rsn > kRsns / 2) schedule.push_back(h.det);
      }
      EXPECT_EQ(log_.piggyback_for(pid), to_p) << "to p" << p;
      EXPECT_EQ(log_.slice_for(holder_bit(pid)), slice) << "dest p" << p;
      EXPECT_EQ(log_.replay_schedule(pid, kRsns / 2), schedule) << "owner p" << p;
    }
    BufWriter w;
    log_.encode(w);
    BufReader r(w.view());
    DeterminantLog copy = DeterminantLog::decode(r);
    copy.set_propagation_threshold(threshold_, kProcs);
    EXPECT_EQ(copy.slice_for(~HolderMask{0}), all);
    EXPECT_EQ(copy.piggyback_all(), active);
  }

 private:
  using Key = std::pair<ProcessId, Rsn>;
  static constexpr Rsn kRsns = 8;

  static Key key_of(const Determinant& d) { return {d.dest, d.rsn}; }

  [[nodiscard]] bool is_active(const HeldDeterminant& h) const {
    return (h.holders & kStableHolder) == 0 && holder_count(h.holders) < threshold_;
  }

  /// (dest, rsn) fixes source and ssn, so records never conflict.
  HeldDeterminant random_held() {
    const auto dest = static_cast<std::uint32_t>(rng_.bounded(kProcs));
    const Rsn rsn = rng_.bounded(kRsns) + 1;
    HeldDeterminant h{det((dest + 1 + static_cast<std::uint32_t>(rsn) % 3) % kProcs,
                          rsn * 10 + dest, dest, rsn),
                      0};
    for (std::uint32_t p = 0; p < kProcs; ++p) {
      if (rng_.chance(0.4)) h.holders |= holder_bit(ProcessId{p});
    }
    if (rng_.chance(0.1)) h.holders |= kStableHolder;
    return h;
  }

  void merge(const HeldDeterminant& h) {
    const auto [it, inserted] = model_.try_emplace(key_of(h.det), h);
    if (!inserted) it->second.holders |= h.holders;
  }

  Rng rng_;
  int threshold_{64};
  DeterminantLog log_;
  std::map<Key, HeldDeterminant> model_;
};

TEST(DetLogModelTest, MatchesReferenceModelOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DetLogModel model(seed);
    for (int i = 0; i < 300; ++i) {
      model.step();
      model.check();
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << i;
      }
    }
  }
}

TEST_F(DetLogFixture, ConflictingDeterminantAborts) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  EXPECT_DEATH(log.record({det(9, 9, 2, 1), holder_bit(ProcessId{2})}),
               "conflicting determinants");
}

TEST(SendLogTest, RecordAndFind) {
  SendLog log;
  log.record(ProcessId{1}, 1, to_bytes("a"));
  log.record(ProcessId{1}, 2, to_bytes("b"));
  log.record(ProcessId{2}, 1, to_bytes("c"));
  ASSERT_NE(log.find(ProcessId{1}, 2), nullptr);
  EXPECT_EQ(to_text(*log.find(ProcessId{1}, 2)), "b");
  EXPECT_EQ(log.find(ProcessId{1}, 3), nullptr);
  EXPECT_EQ(log.find(ProcessId{9}, 1), nullptr);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.bytes(), 3u);
}

TEST(SendLogTest, EntriesAfterWatermark) {
  SendLog log;
  for (Ssn s = 1; s <= 5; ++s) log.record(ProcessId{1}, s, Bytes(1));
  const auto entries = log.entries_after(ProcessId{1}, 3);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].ssn, 4u);
  EXPECT_EQ(entries[1].ssn, 5u);
  EXPECT_TRUE(log.entries_after(ProcessId{1}, 5).empty());
  EXPECT_TRUE(log.entries_after(ProcessId{2}, 0).empty());
}

TEST(SendLogTest, PruneDropsCoveredEntries) {
  SendLog log;
  for (Ssn s = 1; s <= 10; ++s) log.record(ProcessId{1}, s, Bytes(2));
  EXPECT_EQ(log.prune(ProcessId{1}, 6), 6u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.bytes(), 8u);
  EXPECT_EQ(log.find(ProcessId{1}, 6), nullptr);
  ASSERT_NE(log.find(ProcessId{1}, 7), nullptr);
  EXPECT_EQ(log.prune(ProcessId{1}, 100), 4u);
  EXPECT_EQ(log.prune(ProcessId{1}, 100), 0u);
}

TEST(SendLogTest, SerdeRoundTrip) {
  SendLog log;
  log.record(ProcessId{1}, 3, to_bytes("x"));
  log.record(ProcessId{2}, 1, to_bytes("yy"));
  BufWriter w;
  log.encode(w);
  BufReader r(w.view());
  const SendLog copy = SendLog::decode(r);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(to_text(*copy.find(ProcessId{2}, 1)), "yy");
}

TEST(SendLogTest, NonMonotonicSsnAborts) {
  SendLog log;
  log.record(ProcessId{1}, 5, Bytes(1));
  EXPECT_DEATH(log.record(ProcessId{1}, 5, Bytes(1)), "strictly increasing");
}

TEST(SendLogTest, ClearResets) {
  SendLog log;
  log.record(ProcessId{1}, 1, Bytes(4));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_EQ(log.find(ProcessId{1}, 1), nullptr);
}

}  // namespace
}  // namespace rr::fbl
