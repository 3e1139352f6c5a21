#include "recovery/output_commit.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace rr::recovery {

OutputCommitManager::OutputCommitManager(sim::Simulator& sim, ProcessId self, std::uint32_t f,
                                         bool stable_instance, Hooks hooks,
                                         metrics::Registry& metrics)
    : sim_(sim),
      self_(self),
      f_(f),
      stable_instance_(stable_instance),
      hooks_(std::move(hooks)),
      metrics_(metrics),
      retry_(sim, milliseconds(100), [this] {
        if (queue_.empty()) {
          retry_.stop();
          return;
        }
        stabilize();
        pump();
      }) {
  RR_CHECK(hooks_.send_ctrl && hooks_.det_log && hooks_.add_holders && hooks_.peers &&
           hooks_.is_suspected && hooks_.force_flush && hooks_.release);
}

bool OutputCommitManager::satisfied(const fbl::Determinant& det) const {
  const auto* h = hooks_.det_log().find(det.dest, det.rsn);
  // Pruned from the log = the destination checkpointed past it: the
  // receipt order is preserved forever inside a stable checkpoint.
  if (h == nullptr || h->det != det) return true;
  if ((h->holders & fbl::kStableHolder) != 0) return true;
  return fbl::holder_count(h->holders) >= static_cast<int>(f_) + 1;
}

std::uint64_t OutputCommitManager::commit(Bytes payload) {
  Pending p;
  p.id = next_id_++;
  p.payload = std::move(payload);
  p.committed_at = sim_.now();
  // Barrier: everything currently un-recoverable in our causal past. The
  // active set is exactly the determinants below f+1 holders and off
  // stable storage.
  for (const auto& h : hooks_.det_log().slice_for(~fbl::HolderMask{0})) {
    if (!satisfied(h.det)) p.barrier.push_back(h.det);
  }
  metrics_.counter("output.committed").add();
  queue_.push_back(std::move(p));
  stabilize();
  pump();
  if (!queue_.empty() && !retry_.running()) retry_.start();
  return next_id_ - 1;
}

void OutputCommitManager::stabilize() {
  if (queue_.empty()) return;
  if (stable_instance_) {
    hooks_.force_flush();
    return;
  }
  // Push every still-unsatisfied barrier determinant to enough additional
  // peers to reach f+1 confirmed holders, skipping peers already pushed to
  // (awaiting ack) or suspected.
  std::map<ProcessId, std::vector<fbl::HeldDeterminant>> outgoing;
  std::map<std::pair<ProcessId, Rsn>, std::set<ProcessId>> in_flight;
  for (const auto& [seq, push] : pushes_) {
    // Outstanding pushes to a peer now suspected of having crashed count
    // for nothing; the retry must recruit replacements (a late ack from a
    // falsely-suspected peer still lands as a bonus holder).
    if (hooks_.is_suspected(push.first)) continue;
    for (const auto& det : push.second) in_flight[{det.dest, det.rsn}].insert(push.first);
  }
  const std::vector<ProcessId> peers = hooks_.peers();
  for (const auto& pending : queue_) {
    for (const auto& det : pending.barrier) {
      const auto* h = hooks_.det_log().find(det.dest, det.rsn);
      if (h == nullptr || h->det != det || satisfied(det)) continue;
      const auto& flying = in_flight[{det.dest, det.rsn}];
      int missing = static_cast<int>(f_) + 1 - fbl::holder_count(h->holders) -
                    static_cast<int>(flying.size());
      if (missing <= 0) continue;
      for (const ProcessId peer : peers) {
        if (missing <= 0) break;
        if (peer == self_ || fbl::holds(h->holders, peer) || flying.contains(peer) ||
            hooks_.is_suspected(peer)) {
          continue;
        }
        outgoing[peer].push_back(*h);
        in_flight[{det.dest, det.rsn}].insert(peer);
        --missing;
      }
    }
  }
  for (auto& [peer, dets] : outgoing) {
    const std::uint64_t seq = next_push_seq_++;
    std::vector<fbl::Determinant> bare;
    bare.reserve(dets.size());
    for (const auto& h : dets) bare.push_back(h.det);
    pushes_[seq] = {peer, std::move(bare)};
    metrics_.counter("output.det_pushes").add();
    hooks_.send_ctrl(peer, DetPush{seq, std::move(dets)});
  }
}

void OutputCommitManager::on_ack(ProcessId from, const DetAck& ack) {
  const auto it = pushes_.find(ack.seq);
  if (it == pushes_.end() || it->second.first != from) return;
  for (const auto& det : it->second.second) {
    hooks_.add_holders(det, fbl::holder_bit(from));
  }
  pushes_.erase(it);
  pump();
}

void OutputCommitManager::pump() {
  while (!queue_.empty()) {
    auto& front = queue_.front();
    const bool ready = std::all_of(front.barrier.begin(), front.barrier.end(),
                                   [this](const fbl::Determinant& d) { return satisfied(d); });
    if (!ready) return;
    metrics_.counter("output.released").add();
    metrics_.accum("output.latency_ns").record_duration(sim_.now() - front.committed_at);
    metrics_.histogram("output.latency_hist_ns").record_duration(sim_.now() -
                                                                 front.committed_at);
    ++released_;
    hooks_.release(front.id, front.payload);
    queue_.pop_front();
  }
  if (queue_.empty()) retry_.stop();
}

void OutputCommitManager::reset() {
  metrics_.counter("output.lost_to_crash").add(queue_.size());
  queue_.clear();
  pushes_.clear();
  retry_.stop();
  // Output numbering restarts so a deterministic re-execution assigns the
  // same ids to regenerated outputs — the external world dedups by id.
  next_id_ = 1;
}

}  // namespace rr::recovery
