#include "recovery/ord_service.hpp"

#include <utility>

#include "common/log.hpp"
#include "fbl/frame.hpp"

namespace rr::recovery {

OrdService::OrdService(ProcessId self, net::Network& network, metrics::Registry& metrics)
    : self_(self), network_(network), metrics_(metrics) {}

void OrdService::deliver(ProcessId src, Bytes payload) {
  BufReader r(payload);
  if (fbl::decode_kind(r) == fbl::FrameKind::kControl) {  // heartbeats etc. skip
    handle(src, decode_control(r));
  }
  BufferPool::global().release(std::move(payload));
}

void OrdService::handle(ProcessId src, const ControlMessage& m) {
  if (const auto* req = std::get_if<OrdRequest>(&m)) {
    // Re-registration (the process crashed again mid-recovery) supersedes
    // the old entry; the fresh, higher ordinal demotes a dead leader.
    RMember member{src, next_ord_++, req->inc};
    registry_[src] = member;
    metrics_.counter("ord.registrations").add();
    RR_DEBUG("ord", "%s registered ord=%llu inc=%u", to_string(src).c_str(),
             static_cast<unsigned long long>(member.ord), member.inc);
    phase(trace::PhaseId::kOrdAssigned, src, member.ord);
    reply(src, OrdReply{member.ord, rset()});
  } else if (std::holds_alternative<RSetRequest>(m)) {
    reply(src, RSetReply{rset()});
  } else if (const auto* done = std::get_if<RecoveryComplete>(&m)) {
    const auto it = registry_.find(src);
    if (it != registry_.end()) {
      const Ord ord = it->second.ord;
      registry_.erase(it);
      metrics_.counter("ord.completions").add();
      RR_DEBUG("ord", "%s completed recovery inc=%u", to_string(src).c_str(), done->inc);
      phase(trace::PhaseId::kOrdRetired, src, ord);
    }
  }
  // Everything else (gather traffic broadcast wide) is none of our business.
}

void OrdService::phase(trace::PhaseId id, ProcessId subject, Ord ord) {
  if (!phase_hook_) return;
  trace::PhaseEventInfo info;
  info.pid = self_;
  info.phase = id;
  info.round = 0;
  info.ord = ord;
  info.subject = subject;
  phase_hook_(info);
}

void OrdService::reply(ProcessId to, const ControlMessage& m) {
  // Count only actual transmissions (bytes > 0), matching Node::send_control
  // and the MessageBreakdown model's "counted as transmissions" contract —
  // a reply toward a just-crashed requester charges nothing anywhere, which
  // is what keeps the wire-side ledger (V10) in exact agreement.
  const std::size_t bytes = network_.send(self_, to, encode_control(m));
  if (bytes == 0) return;
  metrics_.counter("recovery.ctrl_msgs").add();
  metrics_.counter(std::string("recovery.msg.") + control_name(m)).add();
  metrics_.counter("recovery.ctrl_bytes").add(bytes);
}

std::vector<RMember> OrdService::rset() const {
  std::vector<RMember> out;
  out.reserve(registry_.size());
  for (const auto& [pid, m] : registry_) out.push_back(m);
  std::sort(out.begin(), out.end(),
            [](const RMember& a, const RMember& b) { return a.ord < b.ord; });
  return out;
}

}  // namespace rr::recovery
