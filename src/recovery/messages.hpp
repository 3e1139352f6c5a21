// Recovery control messages (paper §3.3–3.4).
//
// All control traffic rides frames whose leading byte is
// fbl::FrameKind::kControl followed by an fbl::CtrlKind byte (both tags
// live in fbl/frame.hpp). The std::variant ControlMessage is the decoded
// form the recovery state machines exchange.
//
// Message roles:
//   OrdRequest/OrdReply      acquire the system-wide monotonic ord number
//                            and learn the current recovering set R
//   RSetRequest/RSetReply    leader refreshes R before (re)starting a round
//   IncRequest/IncReply      leader gathers recovering incarnations (step 4)
//   DepRequest/DepReply      leader gathers depinfo from live processes
//                            (step 5); carries incvector so live processes
//                            start rejecting stale messages, and `block`
//                            when running the blocking baseline
//   DepInstall               leader hands merged depinfo to each recovering
//                            process (step 6)
//   RecoveryComplete         broadcast by a process that finished replay;
//                            unregisters it from R, raises everyone's
//                            incvector, and triggers retransmission of
//                            messages it never received
//   ReplayRequest/ReplayData recovering process fetches logged payloads
//                            from live senders' send logs
#pragma once

#include <cstdint>
#include <map>
#include <variant>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"
#include "fbl/determinant.hpp"
#include "fbl/frame.hpp"
#include "fbl/inc_vector.hpp"
#include "fbl/watermarks.hpp"

namespace rr::recovery {

/// Recovery ordinal (paper §3.2, `ord`): system-wide monotonic, lowest
/// unfinished ordinal is the recovery leader.
using Ord = std::uint64_t;

struct RMember {
  ProcessId pid;
  Ord ord{0};
  Incarnation inc{0};
  friend constexpr auto operator<=>(const RMember&, const RMember&) = default;
};

struct OrdRequest {
  Incarnation inc{0};
};

struct OrdReply {
  Ord ord{0};
  std::vector<RMember> rset;  ///< registered, unfinished recoveries (sorted by ord)
};

struct RSetRequest {};

struct RSetReply {
  std::vector<RMember> rset;
};

struct IncRequest {
  std::uint64_t round{0};
};

struct IncReply {
  std::uint64_t round{0};
  Incarnation inc{0};
};

/// Head fields (round, block, defer, leader, leader_inc, arity) are
/// documented on fbl::DepRequestHead, which owns their wire layout.
struct DepRequest : fbl::DepRequestHead {
  /// Incvector as a versioned delta against what this leader last had the
  /// receiver confirm (full snapshot on first contact or after a resync).
  /// The blocking baseline sends an empty full delta — stillness, not
  /// floors, is its safety argument.
  fbl::IncDelta delta;
  std::vector<ProcessId> recovering;  ///< R members this round covers
};

/// One participant's share of a DepReply. The tree gather aggregates many
/// contributions into a single reply per subtree; determinants merge at the
/// message level (they are a set), while the per-participant fields ride in
/// the contribution list so the leader still sees every replier.
struct DepContribution {
  ProcessId pid;
  Incarnation inc{0};             ///< contributor's own incarnation
  std::uint64_t incv_version{0};  ///< leader-incvector version now held
  bool incv_resync{false};        ///< delta baseline missed; leader must send full
  /// Contributor's receive watermarks restricted to sources in R (what it
  /// has already delivered from each recovering process).
  fbl::Watermarks marks;
  friend bool operator==(const DepContribution&, const DepContribution&) = default;
};

struct DepReply {
  std::uint64_t round{0};
  std::vector<fbl::HeldDeterminant> dets;  ///< depinfo merged across the subtree
  std::vector<DepContribution> contribs;   ///< one per participant reached
};

struct DepInstall {
  std::uint64_t round{0};
  fbl::IncVector incvector;
  std::vector<fbl::HeldDeterminant> dets;  ///< merged depinfo, dest ∈ R
  /// live process -> (recovering source -> delivered ssn); recovering
  /// processes suppress regenerated sends already delivered at the target.
  std::map<ProcessId, fbl::Watermarks> live_marks;
};

struct RecoveryComplete {
  Incarnation inc{0};
  fbl::Watermarks recv_marks;  ///< post-replay delivery watermarks
  Rsn rsn{0};                  ///< post-replay receipt order reached
};

/// Output-commit stabilization: push determinants to a peer so they reach
/// f+1 holders before an external output is released (Manetho's output
/// commit, expressible in any FBL instance).
struct DetPush {
  std::uint64_t seq{0};
  std::vector<fbl::HeldDeterminant> dets;
};

struct DetAck {
  std::uint64_t seq{0};
};

struct ReplayRequest {
  std::vector<Ssn> ssns;  ///< payloads wanted from the addressee's send log
};

struct ReplayData {
  struct Item {
    Ssn ssn{0};
    Bytes payload;
  };
  std::vector<Item> items;
};

using ControlMessage =
    std::variant<OrdRequest, OrdReply, RSetRequest, RSetReply, IncRequest, IncReply, DepRequest,
                 DepReply, DepInstall, RecoveryComplete, ReplayRequest, ReplayData, DetPush,
                 DetAck>;

/// Short stable name for metrics ("recovery.msg.<name>").
[[nodiscard]] const char* control_name(const ControlMessage& m);

/// Full wire frame: FrameKind::kControl + CtrlKind + body.
[[nodiscard]] Bytes encode_control(const ControlMessage& m);

/// Decode after the FrameKind byte has been consumed.
[[nodiscard]] ControlMessage decode_control(BufReader& r);

}  // namespace rr::recovery
