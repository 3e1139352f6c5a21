// Incarnation vectors (paper §3.2, `incvector`).
//
// incvector[q] is the lowest incarnation of q from which messages are still
// acceptable; a frame tagged with an older incarnation is *stale* — sent by
// a dead execution of q — and must be rejected, or the receiver could
// acquire a dependency on state the recovery cannot reproduce. The recovery
// leader distributes its incvector with every depinfo request, which is the
// new algorithm's substitute for blocking live processes.
#pragma once

#include <map>

#include "common/serde.hpp"
#include "common/types.hpp"

namespace rr::fbl {

using IncVector = std::map<ProcessId, Incarnation>;

/// Known incarnation floor for `p`; processes start at incarnation 1.
[[nodiscard]] inline Incarnation incarnation_of(const IncVector& v, ProcessId p) {
  const auto it = v.find(p);
  return it == v.end() ? 1 : it->second;
}

/// Raise `v[p]` to at least `inc`.
inline void raise_incarnation(IncVector& v, ProcessId p, Incarnation inc) {
  auto [it, inserted] = v.try_emplace(p, inc);
  if (!inserted && inc > it->second) it->second = inc;
}

/// Entrywise max merge.
inline void merge_max(IncVector& into, const IncVector& from) {
  for (const auto& [p, inc] : from) raise_incarnation(into, p, inc);
}

/// A frame from `src` tagged `inc` is stale iff it predates the floor.
[[nodiscard]] inline bool is_stale(const IncVector& v, ProcessId src, Incarnation inc) {
  return inc < incarnation_of(v, src);
}

inline void encode_inc_vector(BufWriter& w, const IncVector& v) {
  w.varint(v.size());
  for (const auto& [p, inc] : v) {
    w.process_id(p);
    w.u32(inc);
  }
}

[[nodiscard]] inline IncVector decode_inc_vector(BufReader& r) {
  IncVector v;
  const auto n = r.count(4 + 4);  // pid + incarnation
  for (std::uint64_t i = 0; i < n; ++i) {
    const ProcessId p = r.process_id();
    v[p] = r.u32();
  }
  return v;
}

/// Versioned incvector delta. At scale the leader's incvector holds O(n)
/// entries while a round typically raises O(f) floors, so DepRequests carry
/// only the entries changed since `base_version` — the lowest version every
/// targeted participant has confirmed. `full` snapshots reset the version
/// tracking (first contact, incarnation bump on either side, or a receiver
/// that reported a gap). Applying `entries` is merge-max and therefore
/// always safe, even when the receiver's baseline is older than
/// `base_version`; the receiver just flags the gap so the leader falls back
/// to a full snapshot next time.
struct IncDelta {
  std::uint64_t base_version{0};  ///< receiver must hold at least this (unless full)
  std::uint64_t version{0};       ///< version the receiver holds after applying
  bool full{true};                ///< entries are the whole vector
  IncVector entries;
  friend bool operator==(const IncDelta&, const IncDelta&) = default;
};

inline void encode_inc_delta(BufWriter& w, const IncDelta& d) {
  w.varint(d.base_version);
  w.varint(d.version);
  w.boolean(d.full);
  encode_inc_vector(w, d.entries);
}

[[nodiscard]] inline IncDelta decode_inc_delta(BufReader& r) {
  IncDelta d;
  d.base_version = r.varint();
  d.version = r.varint();
  d.full = r.boolean();
  d.entries = decode_inc_vector(r);
  return d;
}

}  // namespace rr::fbl
