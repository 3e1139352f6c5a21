// Per-channel receive watermarks.
//
// For each sender, the highest ssn this process has delivered from it.
// Channels are FIFO and a sender's ssn is monotone, so "delivered ssn w"
// means "delivered everything from that sender up to w that was addressed
// here". Watermarks drive duplicate suppression on the receive path,
// retransmission decisions after a peer recovers, and send-log GC.
#pragma once

#include <map>

#include "common/serde.hpp"
#include "common/types.hpp"

namespace rr::fbl {

using Watermarks = std::map<ProcessId, Ssn>;

inline void encode_watermarks(BufWriter& w, const Watermarks& marks) {
  w.varint(marks.size());
  for (const auto& [source, ssn] : marks) {
    w.process_id(source);
    w.u64(ssn);
  }
}

[[nodiscard]] inline Watermarks decode_watermarks(BufReader& r) {
  Watermarks marks;
  const auto n = r.count(4 + 8);  // pid + ssn
  for (std::uint64_t i = 0; i < n; ++i) {
    const ProcessId source = r.process_id();
    marks[source] = r.u64();
  }
  return marks;
}

/// Watermark for `source` (0 if never heard from).
[[nodiscard]] inline Ssn watermark_of(const Watermarks& marks, ProcessId source) {
  const auto it = marks.find(source);
  return it == marks.end() ? 0 : it->second;
}

/// Raise `marks[source]` to at least `ssn`.
inline void raise_watermark(Watermarks& marks, ProcessId source, Ssn ssn) {
  auto& w = marks[source];
  if (ssn > w) w = ssn;
}

}  // namespace rr::fbl
