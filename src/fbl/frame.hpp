// Wire frames — the one place every packet layout's leading tags live.
//
// Every frame starts with a FrameKind byte. The fbl library owns the
// application frame (incarnation tag + ssn + piggybacked determinants +
// payload), the heartbeat and the checkpoint notice; recovery-control
// frames (kind kControl) are encoded/decoded by the recovery library
// behind the same leading byte plus a CtrlKind byte. The reliable
// transport (net/reliable.hpp) may wrap a frame in an envelope whose tag
// lies outside the FrameKind range. Every layer that sniffs packets (net,
// the cost ledger and span tracer in obs, the explorer in check) reads
// those tags and envelopes through the codecs here, never by hand.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"
#include "fbl/determinant.hpp"
#include "fbl/watermarks.hpp"

namespace rr::fbl {

enum class FrameKind : std::uint8_t {
  kApp = 1,
  kHeartbeat = 2,
  kCkptNotice = 3,
  kControl = 4,   // recovery control, see recovery/messages.hpp
  kSnapshot = 5,  // Chandy-Lamport markers/reports, see snapshot/snapshot.hpp
};

/// Recovery control sub-kind: the byte after FrameKind::kControl. The wire
/// order is recovery::ControlMessage's variant order.
enum class CtrlKind : std::uint8_t {
  kOrdRequest = 1,
  kOrdReply = 2,
  kRSetRequest = 3,
  kRSetReply = 4,
  kIncRequest = 5,
  kIncReply = 6,
  kDepRequest = 7,
  kDepReply = 8,
  kDepInstall = 9,
  kRecoveryComplete = 10,
  kReplayRequest = 11,
  kReplayData = 12,
  kDetPush = 13,
  kDetAck = 14,
};
inline constexpr std::size_t kCtrlKindCount = 14;

/// Writes the leading kind byte.
void encode_kind(BufWriter& w, FrameKind k);
/// Reads and returns the leading kind byte.
[[nodiscard]] FrameKind decode_kind(BufReader& r);

/// Application message as transmitted: the payload plus everything FBL
/// needs for logging and stale-message rejection.
struct AppFrame {
  Incarnation inc{0};  ///< sender's incarnation (stale-rejection tag)
  Ssn ssn{0};          ///< sender-global send sequence number
  std::vector<HeldDeterminant> dets;  ///< piggybacked receipt orders
  Bytes payload;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static AppFrame decode(BufReader& r);  // kind byte consumed

  /// Wire size of the piggybacked determinant region of an encoded frame
  /// (kind byte consumed), measured in place without heap allocation;
  /// leaves `r` at the payload.
  [[nodiscard]] static std::size_t piggyback_wire_bytes(BufReader& r);

  /// Bytes the piggybacked determinants contribute (overhead accounting).
  [[nodiscard]] std::size_t piggyback_bytes() const {
    std::size_t n = 0;
    for (const HeldDeterminant& d : dets) n += d.wire_bytes();
    return n;
  }
};

struct HeartbeatFrame {
  Incarnation inc{0};

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static HeartbeatFrame decode(BufReader& r);
};

/// Broadcast after a checkpoint commits; lets peers garbage-collect send
/// log entries (via recv_marks) and determinants (via rsn).
struct CkptNoticeFrame {
  Rsn rsn{0};
  Watermarks recv_marks;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static CkptNoticeFrame decode(BufReader& r);
};

/// Fixed head of a recovery DepRequest body (after the CtrlKind byte), up
/// to its incvector delta. recovery::DepRequest extends it; the cost ledger
/// decodes only the head to carve the delta out of the frame.
struct DepRequestHead {
  std::uint64_t round{0};
  bool block{false};  ///< blocking baseline: stall app delivery until R drains
  /// Manetho-style comparator: hold back only application messages that
  /// reference receipt orders of recovering processes, and write the
  /// DepReply to stable storage before sending it (paper §2.2).
  bool defer{false};
  ProcessId leader;           ///< round leader (tree root; relays forward for it)
  Incarnation leader_inc{0};  ///< scopes delta versions; a restarted leader resyncs
  /// Gather-tree fan-out: receivers compute the tree over the sorted live
  /// participants and forward the request to their children. 0 = flat
  /// broadcast+collect (every participant replies straight to the leader).
  std::uint32_t arity{0};
};

void encode_dep_request_head(BufWriter& w, const DepRequestHead& h);
[[nodiscard]] DepRequestHead decode_dep_request_head(BufReader& r);

// --- reliable-transport envelope (net/reliable.hpp) -----------------------
//
//   data: [kTransportData][u32 epoch][varint stream][varint seq][inner frame]
//   ack:  [kTransportAck][u32 epoch][varint stream][varint cum][u32 acker epoch]
//
// Both tags lie outside the FrameKind range, so raw (unwrapped) frames pass
// through the transport untouched.

inline constexpr std::uint8_t kTransportData = 0xD7;
inline constexpr std::uint8_t kTransportAck = 0xA7;

/// A decoded data envelope. `inner` views the decoded buffer (no copy) and
/// runs to its end.
struct Envelope {
  Incarnation epoch{0};
  std::uint64_t stream{0};
  std::uint64_t seq{0};
  std::span<const std::byte> inner;
};

[[nodiscard]] Bytes encode_envelope(Incarnation epoch, std::uint64_t stream,
                                    std::uint64_t seq, std::span<const std::byte> inner);
/// Decodes a whole data frame, tag included; throws SerdeError on a wrong
/// tag or a truncated header.
[[nodiscard]] Envelope decode_envelope(std::span<const std::byte> wire);

/// Cumulative ack: `epoch`/`stream` echo the acked channel, `cum` is the
/// highest contiguously delivered seq, and `acker_epoch` announces the
/// acker's own incarnation — a sender that only ever hears acks from a peer
/// (one-directional channel) still learns its epoch, so a later bump in the
/// peer's data is recognized as a restart.
struct TransportAck {
  Incarnation epoch{0};
  std::uint64_t stream{0};
  std::uint64_t cum{0};
  Incarnation acker_epoch{0};
};

[[nodiscard]] Bytes encode_transport_ack(const TransportAck& a);
/// Decodes a whole ack frame, tag included; throws SerdeError on a wrong
/// tag, truncation or trailing bytes.
[[nodiscard]] TransportAck decode_transport_ack(std::span<const std::byte> wire);

/// The frame a packet carries: the inner frame of a data envelope, the
/// packet itself when it is unwrapped, and empty for acks, empty packets and
/// malformed envelopes. Never copies; malformed input is not an error here.
[[nodiscard]] std::span<const std::byte> inner_frame(std::span<const std::byte> packet);

/// FrameKind tag of the frame a packet carries (see inner_frame); nullopt
/// when it carries none. An unknown tag compares unequal to every kind.
[[nodiscard]] std::optional<FrameKind> carried_kind(std::span<const std::byte> packet);

}  // namespace rr::fbl
