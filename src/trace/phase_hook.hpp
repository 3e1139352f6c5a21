// Named protocol phase boundaries — the coordinate system for fault
// injection and for the V8 leadership oracle.
//
// The recovery state machine (recovery_manager) and the ord service fire a
// PhaseHook at every semantically meaningful transition: leadership
// decisions, gather phase starts/restarts, incvector construction, depinfo
// collection, replay start, and ordinal assignment/retirement. The hook is
// a pure tap — it must not re-enter the manager synchronously (schedule
// through the simulator instead); the check/ explorer uses it to place
// crashes at exact protocol states ("kill the leader between gather-start
// and depinfo-collect") instead of guessing wall-clock offsets, and the
// trace layer records the firings so the history checker can validate that
// leadership followed ordinal order.
//
// The taxonomy lives here in trace/ — the lowest layer that consumes it —
// rather than in recovery/, so that obs/ and trace/ can see the phase ids
// without including upward (rrlint L1); the recovery state machines that
// fire the hooks, and every layer above them, name them as rr::trace::*.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "common/types.hpp"

namespace rr::trace {

/// Recovery ordinal (matches recovery::Ord in recovery/messages.hpp).
using Ord = std::uint64_t;

enum class PhaseId : std::uint8_t {
  kLeaderElected = 1,   ///< a recovering process starts leading a round
  kLeaderFailover = 2,  ///< ...after a lower-ordinal leader died/was suspected
  kGatherStarted = 3,   ///< R refreshed; gather (inc or dep) begins
  kIncVectorBuilt = 4,  ///< incarnation round complete, incvector assembled
  kDepinfoCollected = 5,///< every depinfo reply arrived; install being built
  kGatherRestarted = 6, ///< round abandoned (target died / phase timeout)
  kReplayStarted = 7,   ///< install applied; replay engine begins delivery
  kOrdAssigned = 8,     ///< ord service registered `subject` (fired by the ord service)
  kOrdRetired = 9,      ///< ord service retired `subject`'s registration
  /// Tree gather only: a relay (or the leader) lost a child to suspicion
  /// and re-attached the child's subtree directly under itself; `subject`
  /// is the suspected child. The round itself survives — a genuinely
  /// crashed child still forces kGatherRestarted when it re-registers.
  kSubtreeReparented = 10,
};

[[nodiscard]] const char* to_string(PhaseId id);
/// Parses the to_string() name; returns false on unknown input.
[[nodiscard]] bool parse_phase(const char* name, PhaseId& out);

struct PhaseEventInfo {
  ProcessId pid;       ///< process the state machine runs on (kOrdServiceId = ord svc)
  PhaseId phase{PhaseId::kLeaderElected};
  std::uint64_t round{0};  ///< leader round id (0 when not round-scoped)
  Ord ord{0};              ///< firing process's ordinal (or assigned ord)
  ProcessId subject;       ///< who the event is about (== pid unless ord svc)
};

using PhaseHook = std::function<void(const PhaseEventInfo&)>;

inline const char* to_string(PhaseId id) {
  switch (id) {
    case PhaseId::kLeaderElected: return "leader-elected";
    case PhaseId::kLeaderFailover: return "leader-failover";
    case PhaseId::kGatherStarted: return "gather-started";
    case PhaseId::kIncVectorBuilt: return "incvector-built";
    case PhaseId::kDepinfoCollected: return "depinfo-collected";
    case PhaseId::kGatherRestarted: return "gather-restarted";
    case PhaseId::kReplayStarted: return "replay-started";
    case PhaseId::kOrdAssigned: return "ord-assigned";
    case PhaseId::kOrdRetired: return "ord-retired";
    case PhaseId::kSubtreeReparented: return "subtree-reparented";
  }
  return "?";
}

inline bool parse_phase(const char* name, PhaseId& out) {
  for (const PhaseId id :
       {PhaseId::kLeaderElected, PhaseId::kLeaderFailover, PhaseId::kGatherStarted,
        PhaseId::kIncVectorBuilt, PhaseId::kDepinfoCollected, PhaseId::kGatherRestarted,
        PhaseId::kReplayStarted, PhaseId::kOrdAssigned, PhaseId::kOrdRetired,
        PhaseId::kSubtreeReparented}) {
    if (std::string_view{name} == to_string(id)) {
      out = id;
      return true;
    }
  }
  return false;
}

}  // namespace rr::trace
