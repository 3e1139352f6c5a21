#include "recovery/messages.hpp"

#include "common/assert.hpp"

namespace rr::recovery {

namespace {

using fbl::CtrlKind;
static_assert(std::variant_size_v<ControlMessage> == fbl::kCtrlKindCount,
              "one CtrlKind per ControlMessage alternative, in variant order");

void encode_rset(BufWriter& w, const std::vector<RMember>& rset) {
  w.varint(rset.size());
  for (const auto& m : rset) {
    w.process_id(m.pid);
    w.u64(m.ord);
    w.u32(m.inc);
  }
}

std::vector<RMember> decode_rset(BufReader& r) {
  std::vector<RMember> rset;
  const auto n = r.count(4 + 8 + 4);  // pid + ord + inc
  rset.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    RMember m;
    m.pid = r.process_id();
    m.ord = r.u64();
    m.inc = r.u32();
    rset.push_back(m);
  }
  return rset;
}

void encode_dets(BufWriter& w, const std::vector<fbl::HeldDeterminant>& dets) {
  w.varint(dets.size());
  for (const auto& d : dets) d.encode(w);
}

std::vector<fbl::HeldDeterminant> decode_dets(BufReader& r) {
  std::vector<fbl::HeldDeterminant> dets;
  const auto n = r.count(fbl::HeldDeterminant::kMinWireBytes);
  dets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) dets.push_back(fbl::HeldDeterminant::decode(r));
  return dets;
}

void encode_contribs(BufWriter& w, const std::vector<DepContribution>& contribs) {
  w.varint(contribs.size());
  for (const auto& c : contribs) {
    w.process_id(c.pid);
    w.u32(c.inc);
    w.varint(c.incv_version);
    w.boolean(c.incv_resync);
    fbl::encode_watermarks(w, c.marks);
  }
}

std::vector<DepContribution> decode_contribs(BufReader& r) {
  std::vector<DepContribution> contribs;
  // pid + inc + version varint + resync flag + watermark count varint
  const auto n = r.count(4 + 4 + 1 + 1 + 1);
  contribs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    DepContribution c;
    c.pid = r.process_id();
    c.inc = r.u32();
    c.incv_version = r.varint();
    c.incv_resync = r.boolean();
    c.marks = fbl::decode_watermarks(r);
    contribs.push_back(std::move(c));
  }
  return contribs;
}

struct Encoder {
  BufWriter& w;

  void tag(CtrlKind k) { w.u8(static_cast<std::uint8_t>(k)); }

  void operator()(const OrdRequest& m) {
    tag(CtrlKind::kOrdRequest);
    w.u32(m.inc);
  }
  void operator()(const OrdReply& m) {
    tag(CtrlKind::kOrdReply);
    w.u64(m.ord);
    encode_rset(w, m.rset);
  }
  void operator()(const RSetRequest&) { tag(CtrlKind::kRSetRequest); }
  void operator()(const RSetReply& m) {
    tag(CtrlKind::kRSetReply);
    encode_rset(w, m.rset);
  }
  void operator()(const IncRequest& m) {
    tag(CtrlKind::kIncRequest);
    w.u64(m.round);
  }
  void operator()(const IncReply& m) {
    tag(CtrlKind::kIncReply);
    w.u64(m.round);
    w.u32(m.inc);
  }
  void operator()(const DepRequest& m) {
    tag(CtrlKind::kDepRequest);
    fbl::encode_dep_request_head(w, m);
    fbl::encode_inc_delta(w, m.delta);
    w.varint(m.recovering.size());
    for (const ProcessId p : m.recovering) w.process_id(p);
  }
  void operator()(const DepReply& m) {
    tag(CtrlKind::kDepReply);
    w.u64(m.round);
    encode_dets(w, m.dets);
    encode_contribs(w, m.contribs);
  }
  void operator()(const DepInstall& m) {
    tag(CtrlKind::kDepInstall);
    w.u64(m.round);
    fbl::encode_inc_vector(w, m.incvector);
    encode_dets(w, m.dets);
    w.varint(m.live_marks.size());
    for (const auto& [pid, marks] : m.live_marks) {
      w.process_id(pid);
      fbl::encode_watermarks(w, marks);
    }
  }
  void operator()(const RecoveryComplete& m) {
    tag(CtrlKind::kRecoveryComplete);
    w.u32(m.inc);
    fbl::encode_watermarks(w, m.recv_marks);
    w.u64(m.rsn);
  }
  void operator()(const DetPush& m) {
    tag(CtrlKind::kDetPush);
    w.u64(m.seq);
    encode_dets(w, m.dets);
  }
  void operator()(const DetAck& m) {
    tag(CtrlKind::kDetAck);
    w.u64(m.seq);
  }
  void operator()(const ReplayRequest& m) {
    tag(CtrlKind::kReplayRequest);
    w.varint(m.ssns.size());
    for (const Ssn s : m.ssns) w.u64(s);
  }
  void operator()(const ReplayData& m) {
    tag(CtrlKind::kReplayData);
    w.varint(m.items.size());
    for (const auto& it : m.items) {
      w.u64(it.ssn);
      w.bytes(it.payload);
    }
  }
};

}  // namespace

const char* control_name(const ControlMessage& m) {
  static constexpr const char* kNames[] = {
      "ord_request", "ord_reply",   "rset_request", "rset_reply",
      "inc_request", "inc_reply",   "dep_request",  "dep_reply",
      "dep_install", "recovery_complete", "replay_request", "replay_data",
      "det_push",    "det_ack"};
  return kNames[m.index()];
}

Bytes encode_control(const ControlMessage& m) {
  BufWriter w(128);
  w.u8(static_cast<std::uint8_t>(fbl::FrameKind::kControl));
  std::visit(Encoder{w}, m);
  return std::move(w).take();
}

ControlMessage decode_control(BufReader& r) {
  const auto kind = static_cast<CtrlKind>(r.u8());
  switch (kind) {
    case CtrlKind::kOrdRequest: {
      OrdRequest m;
      m.inc = r.u32();
      return m;
    }
    case CtrlKind::kOrdReply: {
      OrdReply m;
      m.ord = r.u64();
      m.rset = decode_rset(r);
      return m;
    }
    case CtrlKind::kRSetRequest:
      return RSetRequest{};
    case CtrlKind::kRSetReply: {
      RSetReply m;
      m.rset = decode_rset(r);
      return m;
    }
    case CtrlKind::kIncRequest: {
      IncRequest m;
      m.round = r.u64();
      return m;
    }
    case CtrlKind::kIncReply: {
      IncReply m;
      m.round = r.u64();
      m.inc = r.u32();
      return m;
    }
    case CtrlKind::kDepRequest: {
      DepRequest m;
      static_cast<fbl::DepRequestHead&>(m) = fbl::decode_dep_request_head(r);
      m.delta = fbl::decode_inc_delta(r);
      const auto n = r.count(4);  // one pid each
      m.recovering.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m.recovering.push_back(r.process_id());
      return m;
    }
    case CtrlKind::kDepReply: {
      DepReply m;
      m.round = r.u64();
      m.dets = decode_dets(r);
      m.contribs = decode_contribs(r);
      return m;
    }
    case CtrlKind::kDepInstall: {
      DepInstall m;
      m.round = r.u64();
      m.incvector = fbl::decode_inc_vector(r);
      m.dets = decode_dets(r);
      const auto n = r.varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        const ProcessId pid = r.process_id();
        m.live_marks[pid] = fbl::decode_watermarks(r);
      }
      return m;
    }
    case CtrlKind::kRecoveryComplete: {
      RecoveryComplete m;
      m.inc = r.u32();
      m.recv_marks = fbl::decode_watermarks(r);
      m.rsn = r.u64();
      return m;
    }
    case CtrlKind::kDetPush: {
      DetPush m;
      m.seq = r.u64();
      m.dets = decode_dets(r);
      return m;
    }
    case CtrlKind::kDetAck: {
      DetAck m;
      m.seq = r.u64();
      return m;
    }
    case CtrlKind::kReplayRequest: {
      ReplayRequest m;
      const auto n = r.count(8);  // one ssn each
      m.ssns.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m.ssns.push_back(r.u64());
      return m;
    }
    case CtrlKind::kReplayData: {
      ReplayData m;
      const auto n = r.count(8 + 1);  // ssn + length byte
      m.items.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        ReplayData::Item it;
        it.ssn = r.u64();
        it.payload = r.bytes();
        m.items.push_back(std::move(it));
      }
      return m;
    }
  }
  throw SerdeError("unknown control kind " + std::to_string(static_cast<int>(kind)));
}

}  // namespace rr::recovery
