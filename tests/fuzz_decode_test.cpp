// Decoder robustness: every wire decoder must reject arbitrary and mutated
// bytes with SerdeError — never crash, never read out of bounds — and the
// cost ledger's classifier must never throw at all. Seeded pseudo-fuzz,
// deterministic per seed (TEST_P sweep).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fbl/checkpoint.hpp"
#include "fbl/frame.hpp"
#include "metrics/registry.hpp"
#include "obs/ledger.hpp"
#include "recovery/messages.hpp"

namespace rr {
namespace {

/// Try every decoder on `bytes`; throwing SerdeError is the expected
/// rejection path, returning normally means the input happened to parse —
/// both fine, anything else is a bug caught by the test harness (crash,
/// sanitizer, uncaught foreign exception).
void poke_all_decoders(const Bytes& bytes) {
  try {
    BufReader r(bytes);
    switch (fbl::decode_kind(r)) {
      case fbl::FrameKind::kApp:
        (void)fbl::AppFrame::decode(r);
        break;
      case fbl::FrameKind::kHeartbeat:
        (void)fbl::HeartbeatFrame::decode(r);
        break;
      case fbl::FrameKind::kCkptNotice:
        (void)fbl::CkptNoticeFrame::decode(r);
        break;
      case fbl::FrameKind::kControl:
        (void)recovery::decode_control(r);
        break;
      case fbl::FrameKind::kSnapshot:
        break;  // snapshot decode lives inside its manager
    }
  } catch (const SerdeError&) {
  }
  try {
    (void)fbl::Checkpoint::decode(bytes);
  } catch (const SerdeError&) {
  }
  try {
    (void)fbl::decode_envelope(bytes);
  } catch (const SerdeError&) {
  }
  try {
    (void)fbl::decode_transport_ack(bytes);
  } catch (const SerdeError&) {
  }
  (void)fbl::inner_frame(bytes);
}

/// A genuinely valid encoding of every one of the 14 control-message
/// kinds, so mutation and truncation sweeps exercise each codec.
std::vector<Bytes> control_seeds() {
  using namespace recovery;
  std::vector<Bytes> out;
  const std::vector<RMember> rset = {{ProcessId{1}, 7, 2}, {ProcessId{3}, 9, 1}};
  const std::vector<fbl::HeldDeterminant> dets = {
      {fbl::Determinant{ProcessId{0}, 1, ProcessId{1}, 1}, 0x3},
      {fbl::Determinant{ProcessId{2}, 5, ProcessId{3}, 8}, 0x7}};

  out.push_back(encode_control(OrdRequest{2}));
  OrdReply ord_reply;
  ord_reply.ord = 7;
  ord_reply.rset = rset;
  out.push_back(encode_control(ord_reply));
  out.push_back(encode_control(RSetRequest{}));
  RSetReply rset_reply;
  rset_reply.rset = rset;
  out.push_back(encode_control(rset_reply));
  out.push_back(encode_control(IncRequest{4}));
  out.push_back(encode_control(IncReply{4, 3}));
  DepRequest dep_request;
  dep_request.round = 5;
  dep_request.block = true;
  dep_request.leader = ProcessId{1};
  dep_request.leader_inc = 2;
  dep_request.arity = 4;
  dep_request.delta.base_version = 3;
  dep_request.delta.version = 9;
  dep_request.delta.full = false;
  dep_request.delta.entries[ProcessId{1}] = 2;
  dep_request.recovering = {ProcessId{1}, ProcessId{2}};
  out.push_back(encode_control(dep_request));
  DepReply dep_reply;
  dep_reply.round = 5;
  dep_reply.dets = dets;
  DepContribution contrib;
  contrib.pid = ProcessId{1};
  contrib.inc = 3;
  contrib.incv_version = 9;
  contrib.incv_resync = true;
  contrib.marks[ProcessId{1}] = 11;
  dep_reply.contribs = {contrib};
  out.push_back(encode_control(dep_reply));
  DepInstall install;
  install.round = 5;
  install.incvector[ProcessId{1}] = 2;
  install.dets = dets;
  install.live_marks[ProcessId{2}][ProcessId{1}] = 6;
  out.push_back(encode_control(install));
  RecoveryComplete complete;
  complete.inc = 2;
  complete.recv_marks[ProcessId{0}] = 3;
  complete.rsn = 17;
  out.push_back(encode_control(complete));
  ReplayRequest replay_request;
  replay_request.ssns = {3, 4, 9};
  out.push_back(encode_control(replay_request));
  ReplayData replay_data;
  replay_data.items.push_back({1, to_bytes("x")});
  replay_data.items.push_back({2, to_bytes("yz")});
  out.push_back(encode_control(replay_data));
  DetPush push;
  push.seq = 8;
  push.dets = dets;
  out.push_back(encode_control(push));
  out.push_back(encode_control(DetAck{8}));
  return out;
}

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int round = 0; round < 400; ++round) {
    Bytes bytes(rng.bounded(200));
    for (auto& b : bytes) b = static_cast<std::byte>(rng.bounded(256));
    poke_all_decoders(bytes);
  }
}

TEST_P(DecoderFuzz, MutatedValidFramesNeverCrashDecoders) {
  Rng rng(GetParam() * 31 + 7);

  // Start from genuinely valid frames of each kind.
  std::vector<Bytes> seeds;
  fbl::AppFrame app;
  app.inc = 1;
  app.ssn = 5;
  app.dets.push_back({fbl::Determinant{ProcessId{1}, 2, ProcessId{3}, 4}, 0x7});
  app.payload = to_bytes("payload");
  seeds.push_back(app.encode());
  seeds.push_back(fbl::HeartbeatFrame{2}.encode());
  fbl::CkptNoticeFrame notice;
  notice.rsn = 9;
  notice.recv_marks[ProcessId{0}] = 4;
  seeds.push_back(notice.encode());
  // ...plus every recovery control-message kind.
  for (Bytes& ctrl : control_seeds()) seeds.push_back(std::move(ctrl));
  // ...plus reliable-transport envelopes around them, and an ack.
  seeds.push_back(fbl::encode_envelope(2, 1, 300, seeds[0]));
  seeds.push_back(fbl::encode_envelope(2, 1, 301, seeds.back()));
  seeds.push_back(fbl::encode_transport_ack({2, 1, 300, 3}));

  // The ledger classifies whatever the fabric carries: it must never throw,
  // and every packet's bytes must land in exactly one partition.
  metrics::Registry registry;
  obs::CostLedger ledger(obs::CostLedgerConfig{.num_nodes = 4}, registry);
  std::uint64_t charged = 0;

  for (int round = 0; round < 400; ++round) {
    Bytes bytes = seeds[rng.bounded(seeds.size())];
    // Mutate: flip bytes, truncate, or extend.
    const auto mutations = 1 + rng.bounded(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.bounded(3)) {
        case 0:
          if (!bytes.empty()) {
            bytes[rng.bounded(bytes.size())] = static_cast<std::byte>(rng.bounded(256));
          }
          break;
        case 1:
          bytes.resize(rng.bounded(bytes.size() + 1));
          break;
        case 2:
          bytes.push_back(static_cast<std::byte>(rng.bounded(256)));
          break;
      }
    }
    poke_all_decoders(bytes);
    EXPECT_NO_THROW(ledger.on_wire(0, bytes, 32, false));
    charged += bytes.size() + 32;
  }
  EXPECT_EQ(ledger.total_bytes(), charged);
}

TEST_P(DecoderFuzz, BitFlippedControlMessagesNeverCrashDecoders) {
  Rng rng(GetParam() * 101 + 13);
  const std::vector<Bytes> seeds = control_seeds();
  for (int round = 0; round < 600; ++round) {
    Bytes bytes = seeds[rng.bounded(seeds.size())];
    const auto flips = 1 + rng.bounded(8);
    for (std::uint64_t i = 0; i < flips && !bytes.empty(); ++i) {
      const auto pos = rng.bounded(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1u << rng.bounded(8));
    }
    poke_all_decoders(bytes);
  }
}

// Every strict prefix of every valid control message must decode cleanly
// or throw SerdeError — never crash or read past the buffer.
TEST(DecoderHardening, TruncatedControlMessagesAreRejectedCleanly) {
  for (const Bytes& full : control_seeds()) {
    for (std::size_t len = 0; len < full.size(); ++len) {
      poke_all_decoders(Bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len)));
    }
  }
}

// The transport envelope: every strict prefix of a header throws, every
// longer prefix decodes with the rest as its inner frame, and varints that
// lie (run off the end, overlong, overflowing) are rejected.
TEST(DecoderHardening, TruncatedAndLyingEnvelopesAreRejected) {
  const Bytes inner = fbl::HeartbeatFrame{2}.encode();
  const Bytes wire = fbl::encode_envelope(7, 300, 70000, inner);
  const std::size_t header = wire.size() - inner.size();
  for (std::size_t len = 0; len < header; ++len) {
    const std::span<const std::byte> prefix(wire.data(), len);
    EXPECT_THROW((void)fbl::decode_envelope(prefix), SerdeError) << len;
    EXPECT_TRUE(fbl::inner_frame(prefix).empty()) << len;
  }
  for (std::size_t len = header; len <= wire.size(); ++len) {
    const fbl::Envelope e = fbl::decode_envelope(std::span(wire.data(), len));
    EXPECT_EQ(e.epoch, 7u);
    EXPECT_EQ(e.stream, 300u);
    EXPECT_EQ(e.seq, 70000u);
    EXPECT_EQ(e.inner.size(), len - header);
  }
  EXPECT_THROW((void)fbl::decode_envelope(inner), SerdeError);  // wrong tag

  Bytes ack = fbl::encode_transport_ack({7, 300, 69999, 3});
  for (std::size_t len = 0; len < ack.size(); ++len) {
    EXPECT_THROW((void)fbl::decode_transport_ack(std::span(ack.data(), len)), SerdeError);
  }
  ack.push_back(std::byte{0});
  EXPECT_THROW((void)fbl::decode_transport_ack(ack), SerdeError);  // trailing byte

  auto liar = [](auto&& fill) {
    BufWriter w;
    w.u8(fbl::kTransportData);
    w.u32(1);  // epoch
    fill(w);
    return std::move(w).take();
  };
  const std::vector<Bytes> liars = {
      // stream varint whose continuation bits run off the end
      liar([](BufWriter& w) {
        for (int i = 0; i < 5; ++i) w.u8(0xFF);
      }),
      // overlong (11-byte) seq varint
      liar([](BufWriter& w) {
        w.varint(1);
        for (int i = 0; i < 10; ++i) w.u8(0x80);
        w.u8(0x01);
      }),
      // seq varint overflowing 64 bits
      liar([](BufWriter& w) {
        w.varint(1);
        for (int i = 0; i < 9; ++i) w.u8(0xFF);
        w.u8(0x7F);
      }),
  };
  for (const Bytes& b : liars) {
    EXPECT_THROW((void)fbl::decode_envelope(b), SerdeError);
    EXPECT_TRUE(fbl::inner_frame(b).empty());
  }
}

// A wrapped frame cut anywhere inside the bytes the ledger parses (the
// envelope header, an app frame's piggyback region, a DepRequest up to the
// end of its incvector delta) lands in `other`, and on_wire never throws.
TEST(DecoderHardening, TruncatedWrappedFramesLandInOther) {
  fbl::AppFrame app;
  app.inc = 1;
  app.ssn = 5;
  app.dets = {{fbl::Determinant{ProcessId{0}, 1, ProcessId{1}, 1}, 0x3},
              {fbl::Determinant{ProcessId{2}, 5, ProcessId{3}, 8}, 0x7}};
  app.payload = to_bytes("payload");
  recovery::DepRequest dep;
  dep.leader = ProcessId{1};
  dep.delta.entries[ProcessId{1}] = 2;
  dep.delta.entries[ProcessId{2}] = 3;
  dep.recovering = {ProcessId{1}, ProcessId{2}};

  struct Case {
    Bytes inner;
    std::size_t parsed;  ///< inner bytes the classifier reads
  };
  const std::vector<Case> cases = {
      // kind, inc, ssn, one-byte det count, determinants
      {app.encode(), 1 + 4 + 8 + 1 + app.piggyback_bytes()},
      // everything but the trailing recovering list
      {recovery::encode_control(dep), recovery::encode_control(dep).size() - (1 + 4 * 2)},
  };
  for (const Case& c : cases) {
    const Bytes wire = fbl::encode_envelope(2, 1, 9, c.inner);
    const std::size_t cut_limit = wire.size() - c.inner.size() + c.parsed;
    metrics::Registry registry;
    obs::CostLedger ledger(obs::CostLedgerConfig{.num_nodes = 4}, registry);
    for (std::size_t len = 0; len < cut_limit; ++len) {
      EXPECT_NO_THROW(ledger.on_wire(0, std::span(wire.data(), len), 32, false)) << len;
    }
    EXPECT_EQ(ledger.frames(obs::CostCategory::kOther), cut_limit);
    EXPECT_EQ(ledger.total_bytes(), ledger.bytes(obs::CostCategory::kOther));
    ledger.on_wire(0, std::span(wire.data(), cut_limit), 32, false);
    EXPECT_EQ(ledger.frames(obs::CostCategory::kOther), cut_limit);  // now parses
  }
}

// Buffers whose element counts claim more than the bytes remaining could
// ever hold must throw SerdeError *before* any reservation: a length-lying
// packet is malformed input, not a request to allocate gigabytes.
TEST(DecoderHardening, LengthLyingCountsAreRejectedNotAllocated) {
  const std::uint64_t kHugeCount = std::uint64_t{1} << 40;
  auto control = [&](auto&& fill) {
    BufWriter w;
    w.u8(static_cast<std::uint8_t>(fbl::FrameKind::kControl));
    fill(w);
    return std::move(w).take();
  };

  std::vector<Bytes> liars;
  // RSetReply (tag 4): huge member count, no members.
  liars.push_back(control([&](BufWriter& w) {
    w.u8(4);
    w.varint(kHugeCount);
  }));
  // DepRequest (tag 7): valid header + empty incvector delta, huge
  // recovering list.
  liars.push_back(control([&](BufWriter& w) {
    w.u8(7);
    w.u64(1);         // round
    w.boolean(false); // block
    w.boolean(false); // defer
    w.u32(0);         // leader
    w.u32(1);         // leader_inc
    w.varint(0);      // arity
    w.varint(0);      // delta.base_version
    w.varint(0);      // delta.version
    w.boolean(true);  // delta.full
    w.varint(0);      // empty delta entries
    w.varint(kHugeCount);
  }));
  // DepReply (tag 8): no determinants, huge contribution count.
  liars.push_back(control([&](BufWriter& w) {
    w.u8(8);
    w.u64(1);    // round
    w.varint(0); // no determinants
    w.varint(kHugeCount);
  }));
  // ReplayRequest (tag 11): huge ssn count.
  liars.push_back(control([&](BufWriter& w) {
    w.u8(11);
    w.varint(kHugeCount);
  }));
  // ReplayData (tag 12): huge item count.
  liars.push_back(control([&](BufWriter& w) {
    w.u8(12);
    w.varint(kHugeCount);
  }));
  // DetPush (tag 13): huge determinant count.
  liars.push_back(control([&](BufWriter& w) {
    w.u8(13);
    w.u64(1);
    w.varint(kHugeCount);
  }));

  for (const Bytes& bytes : liars) {
    BufReader r(bytes);
    ASSERT_EQ(fbl::decode_kind(r), fbl::FrameKind::kControl);
    EXPECT_THROW((void)recovery::decode_control(r), SerdeError);
  }

  // AppFrame piggyback list lies about its determinant count.
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(fbl::FrameKind::kApp));
  w.u32(1);   // inc
  w.u64(5);   // ssn
  w.varint(kHugeCount);
  const Bytes app = std::move(w).take();
  BufReader r(app);
  ASSERT_EQ(fbl::decode_kind(r), fbl::FrameKind::kApp);
  EXPECT_THROW((void)fbl::AppFrame::decode(r), SerdeError);
}

// Keyed collections (incvectors, watermarks, live marks, the determinant
// log) must reject a lying count up front too, not insert entry after entry
// until the bytes run out. Each case claims three entries and carries two
// zeroed (valid) ones; the reader must stop at the count.
TEST(DecoderHardening, LyingKeyedCountsAreRejectedBeforeAnyEntry) {
  struct Case {
    const char* what;
    void (*head)(BufWriter&);  ///< control body up to the lying count
    std::size_t entry_bytes;
  };
  const Case cases[] = {
      {"DepInstall incvector",
       [](BufWriter& w) {
         w.u8(9);   // DepInstall
         w.u64(1);  // round
       },
       4 + 4},
      {"DepInstall live marks",
       [](BufWriter& w) {
         w.u8(9);
         w.u64(1);
         w.varint(0);  // empty incvector
         w.varint(0);  // no determinants
       },
       4 + 1},
      {"DepRequest incvector delta",
       [](BufWriter& w) {
         w.u8(7);           // DepRequest
         w.u64(1);          // round
         w.boolean(false);  // block
         w.boolean(false);  // defer
         w.u32(0);          // leader
         w.u32(1);          // leader_inc
         w.varint(0);       // arity
         w.varint(0);       // delta.base_version
         w.varint(0);       // delta.version
         w.boolean(true);   // delta.full
       },
       4 + 4},
      {"RecoveryComplete watermarks",
       [](BufWriter& w) {
         w.u8(10);  // RecoveryComplete
         w.u32(2);  // inc
       },
       4 + 8},
  };
  for (const Case& c : cases) {
    BufWriter w;
    w.u8(static_cast<std::uint8_t>(fbl::FrameKind::kControl));
    c.head(w);
    w.varint(3);
    for (std::size_t i = 0; i < 2 * c.entry_bytes; ++i) w.u8(0);
    const Bytes bytes = std::move(w).take();
    BufReader r(bytes);
    ASSERT_EQ(fbl::decode_kind(r), fbl::FrameKind::kControl);
    EXPECT_THROW((void)recovery::decode_control(r), SerdeError) << c.what;
    EXPECT_EQ(r.remaining(), 2 * c.entry_bytes) << c.what;
  }
}

TEST(DecoderHardening, LyingCheckpointLogCountsAreRejectedBeforeAnyEntry) {
  // Each log body records an entry twice: a duplicate ssn in the send log,
  // or two determinants for one receipt order. Recording both would abort,
  // so only an up-front count check survives these inputs.
  struct Case {
    const char* what;
    void (*logs)(BufWriter&);  ///< send log, then determinant log
  };
  const Case cases[] = {
      {"send log destinations",
       [](BufWriter& w) {
         w.varint(100);  // destinations; two follow, 14 bytes each
         for (int i = 0; i < 2; ++i) {
           w.u32(2);     // to
           w.varint(1);  // one entry
           w.u64(7);     // ssn
           w.varint(0);  // empty payload
         }
         w.varint(0);
       }},
      {"send log entries",
       [](BufWriter& w) {
         w.varint(1);
         w.u32(2);     // to
         w.varint(3);  // entries; only two follow
         for (int i = 0; i < 2; ++i) {
           w.u64(7);
           w.varint(0);
         }
         w.varint(0);
       }},
      {"determinant log",
       [](BufWriter& w) {
         w.varint(0);  // send log
         w.varint(3);  // determinants; only two follow
         fbl::HeldDeterminant{{ProcessId{1}, 1, ProcessId{2}, 1}, 0}.encode(w);
         fbl::HeldDeterminant{{ProcessId{3}, 9, ProcessId{2}, 1}, 0}.encode(w);
       }},
  };
  for (const Case& c : cases) {
    BufWriter w;
    w.u32(0x46424C43);  // checkpoint magic
    w.u16(1);           // version
    w.boolean(true);    // app_started
    w.u64(1);           // rsn
    w.varint(0);        // send_seq
    w.varint(0);        // recv_marks
    c.logs(w);
    EXPECT_THROW((void)fbl::Checkpoint::decode(std::move(w).take()), SerdeError) << c.what;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
}  // namespace rr
