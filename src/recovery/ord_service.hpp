// The ord/registry service (paper §3.2, `ord`).
//
// The paper requires "a system-wide monotonic number that is incremented
// whenever a process starts recovery"; the process with the lowest
// unfinished ordinal is the recovery leader. The mechanism is left
// unspecified, so we use the same modeling device the paper applies to
// stable storage in the f = n case: an additional process that never fails
// and sends no spontaneous messages. It hands out ordinals (OrdRequest →
// OrdReply), reports the current recovering set R (RSetRequest →
// RSetReply) and retires entries when it observes RecoveryComplete
// broadcasts. A process that crashes again while recovering simply
// re-registers and receives a fresh, higher ordinal — which is what makes
// a dead leader lose its leadership.
#pragma once

#include <map>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "recovery/messages.hpp"
#include "trace/phase_hook.hpp"

namespace rr::recovery {

class OrdService : public net::Endpoint {
 public:
  OrdService(ProcessId self, net::Network& network, metrics::Registry& metrics);

  void deliver(ProcessId src, Bytes payload) override;

  /// Current recovering set, sorted by ordinal.
  [[nodiscard]] std::vector<RMember> rset() const;
  [[nodiscard]] Ord last_ord() const noexcept { return next_ord_ - 1; }
  [[nodiscard]] ProcessId id() const noexcept { return self_; }

  /// Tap fired on ordinal assignment/retirement (kOrdAssigned/kOrdRetired;
  /// `subject` = the registering/retiring process).
  void set_phase_hook(trace::PhaseHook hook) { phase_hook_ = std::move(hook); }

 private:
  void handle(ProcessId src, const ControlMessage& m);
  void reply(ProcessId to, const ControlMessage& m);
  void phase(trace::PhaseId id, ProcessId subject, Ord ord);

  ProcessId self_;
  net::Network& network_;
  metrics::Registry& metrics_;
  Ord next_ord_{1};
  std::map<ProcessId, RMember> registry_;
  trace::PhaseHook phase_hook_;
};

}  // namespace rr::recovery
