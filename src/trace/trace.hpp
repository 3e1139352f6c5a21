// Structured protocol trace.
//
// When enabled, every node records the events that define the global
// history of an execution: application sends and deliveries (original and
// replayed), crashes, restores, recovery completions and checkpoint
// commits. The trace is the input to the HistoryChecker, which turns the
// paper's §4 correctness properties into an assertion over the whole run,
// and to human debugging (dump() renders a readable timeline).
//
// The trace is append-only and owned by the Cluster; recording is off by
// default (ClusterConfig::enable_trace) because a long run generates
// millions of events.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "trace/phase_hook.hpp"

namespace rr::trace {

struct SendEvent {
  ProcessId src;
  ProcessId dst;
  Ssn ssn{0};
  Incarnation inc{0};
  bool transmitted{true};  ///< false: regenerated during replay, suppressed
};

struct DeliverEvent {
  ProcessId dst;
  ProcessId src;
  Ssn ssn{0};
  Rsn rsn{0};
  Incarnation dst_inc{0};
  bool replayed{false};
  /// Sender incarnation stamped on the frame (stale-rejection tag). 0 for
  /// replayed deliveries: determinants do not record it, and the stale
  /// check (V7) applies to fresh wire traffic only.
  Incarnation src_inc{0};
};

struct CrashEvent {
  ProcessId pid;
  Incarnation inc{0};  ///< incarnation that died
};

struct RestoreEvent {
  ProcessId pid;
  Incarnation inc{0};  ///< new incarnation
  Rsn checkpoint_rsn{0};
};

struct CompleteEvent {
  ProcessId pid;
  Incarnation inc{0};
  Rsn rsn{0};
};

struct CheckpointEvent {
  ProcessId pid;
  Rsn rsn{0};
};

/// A named protocol phase boundary fired by the recovery state machine or
/// the ord service (see trace/phase_hook.hpp). Input to V8.
struct PhaseEvent {
  ProcessId pid;  ///< firing process (ord service for assignment events)
  PhaseId phase{PhaseId::kLeaderElected};
  std::uint64_t round{0};
  Ord ord{0};
  ProcessId subject;  ///< who the event is about (== pid unless ord svc)
};

/// A failure-detector suspicion edge at `observer`. Input to V8 (a leader
/// may step over a lower ordinal only if it suspects that process).
struct SuspectEvent {
  ProcessId observer;
  ProcessId peer;
  bool suspected{true};
};

/// `pid`'s incvector floor for `about` rose to `inc`. Input to V7: any
/// later fresh delivery at `pid` from `about` stamped below the floor is a
/// stale-rejection failure.
struct FloorEvent {
  ProcessId pid;
  ProcessId about;
  Incarnation inc{0};
};

using Event =
    std::variant<SendEvent, DeliverEvent, CrashEvent, RestoreEvent, CompleteEvent,
                 CheckpointEvent, PhaseEvent, SuspectEvent, FloorEvent>;

struct TimedEvent {
  Time at{0};
  Event event;
};

class TraceLog {
 public:
  void record(Time at, Event event) { events_.push_back(TimedEvent{at, std::move(event)}); }

  [[nodiscard]] const std::vector<TimedEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() { events_.clear(); }

  /// Human-readable timeline (bounded by `limit` lines; 0 = everything).
  [[nodiscard]] std::string dump(std::size_t limit = 0) const;

 private:
  std::vector<TimedEvent> events_;
};

[[nodiscard]] std::string to_string(const TimedEvent& ev);

}  // namespace rr::trace
