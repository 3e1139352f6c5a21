#include "fbl/frame.hpp"

namespace rr::fbl {

void encode_kind(BufWriter& w, FrameKind k) { w.u8(static_cast<std::uint8_t>(k)); }

FrameKind decode_kind(BufReader& r) {
  const auto k = r.u8();
  if (k < 1 || k > 5) throw SerdeError("unknown frame kind " + std::to_string(k));
  return static_cast<FrameKind>(k);
}

Bytes AppFrame::encode() const {
  BufWriter w(payload.size() + piggyback_bytes() + 32);
  encode_kind(w, FrameKind::kApp);
  w.u32(inc);
  w.u64(ssn);
  w.varint(dets.size());
  for (const auto& d : dets) d.encode(w);
  w.bytes(payload);
  return std::move(w).take();
}

AppFrame AppFrame::decode(BufReader& r) {
  AppFrame f;
  f.inc = r.u32();
  f.ssn = r.u64();
  const auto n = r.count(HeldDeterminant::kMinWireBytes);
  f.dets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) f.dets.push_back(HeldDeterminant::decode(r));
  f.payload = r.bytes();
  return f;
}

Bytes HeartbeatFrame::encode() const {
  BufWriter w(8);
  encode_kind(w, FrameKind::kHeartbeat);
  w.u32(inc);
  return std::move(w).take();
}

std::size_t AppFrame::piggyback_wire_bytes(BufReader& r) {
  (void)r.u32();  // inc
  (void)r.u64();  // ssn
  const auto n = r.count(HeldDeterminant::kMinWireBytes);
  const std::size_t before = r.remaining();
  for (std::uint64_t i = 0; i < n; ++i) (void)HeldDeterminant::decode(r);
  return before - r.remaining();
}

HeartbeatFrame HeartbeatFrame::decode(BufReader& r) {
  HeartbeatFrame f;
  f.inc = r.u32();
  return f;
}

Bytes CkptNoticeFrame::encode() const {
  BufWriter w(64);
  encode_kind(w, FrameKind::kCkptNotice);
  w.u64(rsn);
  encode_watermarks(w, recv_marks);
  return std::move(w).take();
}

CkptNoticeFrame CkptNoticeFrame::decode(BufReader& r) {
  CkptNoticeFrame f;
  f.rsn = r.u64();
  f.recv_marks = decode_watermarks(r);
  return f;
}

void encode_dep_request_head(BufWriter& w, const DepRequestHead& h) {
  w.u64(h.round);
  w.boolean(h.block);
  w.boolean(h.defer);
  w.process_id(h.leader);
  w.u32(h.leader_inc);
  w.varint(h.arity);
}

DepRequestHead decode_dep_request_head(BufReader& r) {
  DepRequestHead h;
  h.round = r.u64();
  h.block = r.boolean();
  h.defer = r.boolean();
  h.leader = r.process_id();
  h.leader_inc = r.u32();
  h.arity = static_cast<std::uint32_t>(r.varint());
  return h;
}

namespace {

void expect_tag(BufReader& r, std::uint8_t tag) {
  if (r.u8() != tag) throw SerdeError("not a transport frame");
}

}  // namespace

Bytes encode_envelope(Incarnation epoch, std::uint64_t stream, std::uint64_t seq,
                      std::span<const std::byte> inner) {
  BufWriter w(inner.size() + 32);
  w.u8(kTransportData);
  w.u32(epoch);
  w.varint(stream);
  w.varint(seq);
  w.raw(inner);
  return std::move(w).take();
}

Envelope decode_envelope(std::span<const std::byte> wire) {
  BufReader r(wire);
  expect_tag(r, kTransportData);
  Envelope e;
  e.epoch = r.u32();
  e.stream = r.varint();
  e.seq = r.varint();
  e.inner = r.raw(r.remaining());
  return e;
}

Bytes encode_transport_ack(const TransportAck& a) {
  BufWriter w(32);
  w.u8(kTransportAck);
  w.u32(a.epoch);
  w.varint(a.stream);
  w.varint(a.cum);
  w.u32(a.acker_epoch);
  return std::move(w).take();
}

TransportAck decode_transport_ack(std::span<const std::byte> wire) {
  BufReader r(wire);
  expect_tag(r, kTransportAck);
  TransportAck a;
  a.epoch = r.u32();
  a.stream = r.varint();
  a.cum = r.varint();
  a.acker_epoch = r.u32();
  r.expect_done();
  return a;
}

std::span<const std::byte> inner_frame(std::span<const std::byte> packet) {
  if (packet.empty()) return {};
  switch (std::to_integer<std::uint8_t>(packet[0])) {
    case kTransportAck:
      return {};
    case kTransportData:
      try {
        return decode_envelope(packet).inner;
      } catch (const SerdeError&) {
        return {};
      }
    default:
      return packet;
  }
}

std::optional<FrameKind> carried_kind(std::span<const std::byte> packet) {
  const std::span<const std::byte> frame = inner_frame(packet);
  if (frame.empty()) return std::nullopt;
  return static_cast<FrameKind>(frame[0]);
}

}  // namespace rr::fbl
