#include "fbl/determinant_log.hpp"

#include "common/assert.hpp"

namespace rr::fbl {

void DeterminantLog::set_propagation_threshold(int holders_needed) {
  RR_CHECK(holders_needed >= 1);
  threshold_ = holders_needed;
  active_.clear();
  active_by_seq_.clear();
  unstable_.clear();
  pending_by_dest_.clear();
  for (auto& [key, e] : by_dest_rsn_) {
    e.active_seq = 0;
    index(key, e, /*lost_holder=*/false);
  }
}

void DeterminantLog::index(const Key& key, Entry& e, bool lost_holder) {
  if (is_active(e.held)) {
    // A new sequence number queues the entry for every destination's next send.
    if (e.active_seq == 0 || lost_holder) {
      if (e.active_seq == 0) active_.insert(key);
      active_by_seq_.erase(e.active_seq);
      e.active_seq = next_seq_++;
      active_by_seq_.emplace(e.active_seq, key);
    }
  } else if (e.active_seq != 0) {
    active_.erase(key);
    active_by_seq_.erase(e.active_seq);
    e.active_seq = 0;
  }
  if ((e.held.holders & kStableHolder) == 0) {
    unstable_.insert(key);
  } else {
    unstable_.erase(key);
  }
}

void DeterminantLog::unindex(const Key& key, const Entry& e) {
  active_.erase(key);
  active_by_seq_.erase(e.active_seq);
  unstable_.erase(key);
}

bool DeterminantLog::record(const HeldDeterminant& h) {
  const Key key{h.det.dest, h.det.rsn};
  auto [it, inserted] = by_dest_rsn_.try_emplace(key, h);
  Entry& e = it->second;
  if (!inserted) {
    // A receipt order names exactly one message: conflicting knowledge
    // about (dest, rsn) means the logging protocol itself is broken.
    RR_CHECK_MSG(e.held.det == h.det, "conflicting determinants for one receipt order");
    const HolderMask before = e.held.holders;
    e.held.holders |= h.holders;
    if (e.held.holders == before) return false;
  }
  index(key, e, /*lost_holder=*/false);
  return inserted;
}

void DeterminantLog::add_holders(const Determinant& d, HolderMask extra) {
  const auto it = by_dest_rsn_.find(Key{d.dest, d.rsn});
  if (it == by_dest_rsn_.end() || it->second.held.det != d) return;
  const HolderMask before = it->second.held.holders;
  it->second.held.holders |= extra;
  if (it->second.held.holders != before) index(it->first, it->second, /*lost_holder=*/false);
}

void DeterminantLog::remove_holder(const Determinant& d, ProcessId peer) {
  const auto it = by_dest_rsn_.find(Key{d.dest, d.rsn});
  if (it == by_dest_rsn_.end() || it->second.held.det != d) return;
  if (!holds(it->second.held.holders, peer)) return;
  it->second.held.holders &= ~holder_bit(peer);
  index(it->first, it->second, /*lost_holder=*/true);  // may re-enter the active set
}

std::vector<HeldDeterminant> DeterminantLog::piggyback_for(ProcessId to) const {
  // Take in the activations since the last send to `to`, then keep exactly
  // the active entries `to` is not known to hold. Stale keys (retired,
  // pruned, since held by `to`) come back only through a new activation.
  Pending& pending = pending_by_dest_[to];
  for (auto it = active_by_seq_.lower_bound(pending.cursor); it != active_by_seq_.end(); ++it) {
    pending.keys.insert(it->second);
  }
  pending.cursor = next_seq_;
  std::vector<HeldDeterminant> out;
  std::erase_if(pending.keys, [&](const Key& key) {
    const auto e = by_dest_rsn_.find(key);
    if (e == by_dest_rsn_.end() || e->second.active_seq == 0 ||
        holds(e->second.held.holders, to)) {
      return true;
    }
    out.push_back(e->second.held);
    return false;
  });
  return out;
}

std::vector<HeldDeterminant> DeterminantLog::piggyback_all() const {
  std::vector<HeldDeterminant> out;
  out.reserve(active_.size());
  for (const Key& key : active_) out.push_back(by_dest_rsn_.at(key).held);
  return out;
}

std::vector<HeldDeterminant> DeterminantLog::slice_for(const HolderMask& dests) const {
  std::vector<HeldDeterminant> out;
  for (const auto& [key, e] : by_dest_rsn_) {
    if (holds(dests, e.held.det.dest)) out.push_back(e.held);
  }
  return out;
}

std::vector<Determinant> DeterminantLog::replay_schedule(ProcessId owner, Rsn after) const {
  std::vector<Determinant> out;
  // by_dest_rsn_ is ordered by (dest, rsn), so the owner's range is already
  // in rsn order.
  for (auto it = by_dest_rsn_.lower_bound(Key{owner, after + 1}); it != by_dest_rsn_.end();
       ++it) {
    if (it->first.first != owner) break;
    out.push_back(it->second.held.det);
  }
  return out;
}

Ssn DeterminantLog::max_ssn(ProcessId source, ProcessId dest) const {
  Ssn best = 0;
  for (auto it = by_dest_rsn_.lower_bound(Key{dest, 0}); it != by_dest_rsn_.end(); ++it) {
    if (it->first.first != dest) break;
    if (it->second.held.det.source == source) best = std::max(best, it->second.held.det.ssn);
  }
  return best;
}

std::size_t DeterminantLog::prune_dest(ProcessId dest, Rsn upto) {
  const auto lo = by_dest_rsn_.lower_bound(Key{dest, 0});
  const auto hi = by_dest_rsn_.upper_bound(Key{dest, upto});
  std::size_t n = 0;
  for (auto it = lo; it != hi; ++it, ++n) unindex(it->first, it->second);
  by_dest_rsn_.erase(lo, hi);
  return n;
}

std::vector<Determinant> DeterminantLog::unstable() const {
  std::vector<Determinant> out;
  out.reserve(unstable_.size());
  for (const Key& key : unstable_) out.push_back(by_dest_rsn_.at(key).held.det);
  return out;
}

bool DeterminantLog::contains(ProcessId dest, Rsn rsn) const {
  return by_dest_rsn_.contains(Key{dest, rsn});
}

const HeldDeterminant* DeterminantLog::find(ProcessId dest, Rsn rsn) const {
  const auto it = by_dest_rsn_.find(Key{dest, rsn});
  return it == by_dest_rsn_.end() ? nullptr : &it->second.held;
}

void DeterminantLog::clear() {
  by_dest_rsn_.clear();
  active_.clear();
  active_by_seq_.clear();
  unstable_.clear();
  pending_by_dest_.clear();
}

void DeterminantLog::encode(BufWriter& w) const {
  w.varint(by_dest_rsn_.size());
  for (const auto& [key, e] : by_dest_rsn_) e.held.encode(w);
}

DeterminantLog DeterminantLog::decode(BufReader& r) {
  DeterminantLog log;
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) log.record(HeldDeterminant::decode(r));
  return log;
}

}  // namespace rr::fbl
