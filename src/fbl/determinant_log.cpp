#include "fbl/determinant_log.hpp"

#include <algorithm>
#include <iterator>

#include "common/assert.hpp"

namespace rr::fbl {

void DeterminantLog::set_propagation_threshold(int holders_needed, std::uint32_t processes) {
  RR_CHECK(holders_needed >= 1);
  RR_CHECK(processes >= 1 && processes <= kMaxProcesses);
  threshold_ = holders_needed;
  processes_ = static_cast<int>(processes);
  active_.clear();
  for (const auto& [key, h] : by_dest_rsn_) reindex(key, h);
}

void DeterminantLog::reindex(const Key& key, const HeldDeterminant& h) {
  if (is_active(h)) {
    active_.insert(key);
  } else {
    active_.erase(key);
  }
}

bool DeterminantLog::record(const HeldDeterminant& h) {
  const Key key{h.det.dest, h.det.rsn};
  auto [it, inserted] = by_dest_rsn_.try_emplace(key, h);
  HeldDeterminant& held = it->second;
  if (!inserted) {
    // A receipt order names exactly one message: conflicting knowledge
    // about (dest, rsn) means the logging protocol itself is broken.
    RR_CHECK_MSG(held.det == h.det, "conflicting determinants for one receipt order");
    const HolderMask before = held.holders;
    held.holders |= h.holders;
    if (held.holders == before) return false;
  }
  reindex(key, held);
  return inserted;
}

std::size_t DeterminantLog::absorb(std::span<const HeldDeterminant> dets, ProcessId self) {
  std::size_t learned = 0;
  for (const HeldDeterminant& h : dets) {
    if (record(HeldDeterminant{h.det, h.holders | holder_bit(self)})) ++learned;
  }
  return learned;
}

void DeterminantLog::add_holders(const Determinant& d, HolderMask extra) {
  const auto it = by_dest_rsn_.find(Key{d.dest, d.rsn});
  if (it == by_dest_rsn_.end() || it->second.det != d) return;
  const HolderMask before = it->second.holders;
  it->second.holders |= extra;
  if (it->second.holders != before) reindex(it->first, it->second);
}

void DeterminantLog::forget_holder(ProcessId peer, Rsn kept_rsn) {
  for (auto& [key, h] : by_dest_rsn_) {
    if (!holds(h.holders, peer)) continue;
    if (h.det.dest == peer && h.det.rsn <= kept_rsn) continue;
    h.holders &= ~holder_bit(peer);
    reindex(key, h);
  }
}

std::vector<HeldDeterminant> DeterminantLog::piggyback_for(ProcessId to) const {
  std::vector<HeldDeterminant> out;
  for (const Key& key : active_) {
    const HeldDeterminant& h = by_dest_rsn_.find(key)->second;
    if (!holds(h.holders, to)) out.push_back(h);
  }
  return out;
}

std::vector<HeldDeterminant> DeterminantLog::piggyback_all() const {
  std::vector<HeldDeterminant> out;
  if (threshold_ > processes_) {
    // Pruned sends at f = n: determinants all n processes hold are off the
    // index but still count until stable storage has them.
    for (const auto& [key, h] : by_dest_rsn_) {
      if (below(h, threshold_)) out.push_back(h);
    }
    return out;
  }
  out.reserve(active_.size());
  for (const Key& key : active_) out.push_back(by_dest_rsn_.find(key)->second);
  return out;
}

std::vector<HeldDeterminant> DeterminantLog::slice_for(const HolderMask& dests) const {
  std::vector<HeldDeterminant> out;
  for (const auto& [key, h] : by_dest_rsn_) {
    if (holds(dests, h.det.dest)) out.push_back(h);
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
    out.push_back(it->second.det);
  }
  return out;
}

Ssn DeterminantLog::max_ssn(ProcessId source, ProcessId dest) const {
  Ssn best = 0;
  for (auto it = by_dest_rsn_.lower_bound(Key{dest, 0}); it != by_dest_rsn_.end(); ++it) {
    if (it->first.first != dest) break;
    if (it->second.det.source == source) best = std::max(best, it->second.det.ssn);
  }
  return best;
}

std::size_t DeterminantLog::prune_dest(ProcessId dest, Rsn upto) {
  // Both containers share the (dest, rsn) order: one range each.
  const Key lo{dest, 0};
  const Key hi{dest, upto};
  active_.erase(active_.lower_bound(lo), active_.upper_bound(hi));
  const auto first = by_dest_rsn_.lower_bound(lo);
  const auto last = by_dest_rsn_.upper_bound(hi);
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  by_dest_rsn_.erase(first, last);
  return n;
}

std::vector<Determinant> DeterminantLog::unstable() const {
  std::vector<Determinant> out;
  for (const auto& [key, h] : by_dest_rsn_) {
    if ((h.holders & kStableHolder) == 0) out.push_back(h.det);
  }
  return out;
}

bool DeterminantLog::contains(ProcessId dest, Rsn rsn) const {
  return by_dest_rsn_.contains(Key{dest, rsn});
}

const HeldDeterminant* DeterminantLog::find(ProcessId dest, Rsn rsn) const {
  const auto it = by_dest_rsn_.find(Key{dest, rsn});
  return it == by_dest_rsn_.end() ? nullptr : &it->second;
}

void DeterminantLog::clear() {
  by_dest_rsn_.clear();
  active_.clear();
}

void DeterminantLog::encode(BufWriter& w) const {
  w.varint(by_dest_rsn_.size());
  for (const auto& [key, h] : by_dest_rsn_) h.encode(w);
}

DeterminantLog DeterminantLog::decode(BufReader& r) {
  DeterminantLog log;
  const auto n = r.count(HeldDeterminant::kMinWireBytes);
  for (std::uint64_t i = 0; i < n; ++i) log.record(HeldDeterminant::decode(r));
  return log;
}

}  // namespace rr::fbl
