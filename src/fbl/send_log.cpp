#include "fbl/send_log.hpp"

#include <utility>

#include "common/assert.hpp"

namespace rr::fbl {

void SendLog::record(ProcessId to, Ssn ssn, Bytes payload) {
  auto& dest = per_dest_[to];
  RR_CHECK_MSG(dest.empty() || dest.rbegin()->first < ssn,
               "send log ssn must be strictly increasing per destination");
  total_bytes_ += payload.size();
  ++total_;
  dest.emplace_hint(dest.end(), ssn, std::move(payload));  // ssn order: O(1)
}

const Bytes* SendLog::find(ProcessId to, Ssn ssn) const {
  const auto d = per_dest_.find(to);
  if (d == per_dest_.end()) return nullptr;
  const auto e = d->second.find(ssn);
  return e == d->second.end() ? nullptr : &e->second;
}

std::vector<SendLog::Entry> SendLog::entries_after(ProcessId to, Ssn after) const {
  std::vector<Entry> out;
  const auto d = per_dest_.find(to);
  if (d == per_dest_.end()) return out;
  for (auto it = d->second.upper_bound(after); it != d->second.end(); ++it) {
    out.push_back(Entry{it->first, it->second});
  }
  return out;
}

std::size_t SendLog::prune(ProcessId to, Ssn upto) {
  const auto d = per_dest_.find(to);
  if (d == per_dest_.end()) return 0;
  std::size_t removed = 0;
  auto it = d->second.begin();
  while (it != d->second.end() && it->first <= upto) {
    total_bytes_ -= it->second.size();
    --total_;
    ++removed;
    it = d->second.erase(it);
  }
  if (d->second.empty()) per_dest_.erase(d);
  return removed;
}

void SendLog::clear() {
  per_dest_.clear();
  total_ = 0;
  total_bytes_ = 0;
}

void SendLog::encode(BufWriter& w) const {
  w.varint(per_dest_.size());
  for (const auto& [to, entries] : per_dest_) {
    w.process_id(to);
    w.varint(entries.size());
    for (const auto& [ssn, payload] : entries) {
      w.u64(ssn);
      w.bytes(payload);
    }
  }
}

SendLog SendLog::decode(BufReader& r) {
  SendLog log;
  const auto ndest = r.count(4 + 1);  // process id + entry count
  for (std::uint64_t i = 0; i < ndest; ++i) {
    const ProcessId to = r.process_id();
    const auto n = r.count(8 + 1);  // ssn + payload length
    for (std::uint64_t j = 0; j < n; ++j) {
      const Ssn ssn = r.u64();
      log.record(to, ssn, r.bytes());
    }
  }
  return log;
}

}  // namespace rr::fbl
