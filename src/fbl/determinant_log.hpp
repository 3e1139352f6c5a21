// Volatile determinant log with holder tracking.
//
// Holds every determinant a process knows — its own receipts plus those
// learned from piggybacks — keyed by (dest, rsn), together with the set of
// processes known to hold each one. Drives three protocol decisions:
//
//  * piggybacking: which determinants to attach to an outgoing message
//    (those not yet known at f+1 holders and not known at the destination);
//  * depinfo: the slice (dest ∈ R) a live process ships to the recovery
//    leader, and the merged slice the leader installs at recovering
//    processes;
//  * garbage collection: determinants whose destination has checkpointed
//    past their rsn can never be replayed and are dropped.
//
// One ordered map holds the facts; one ordered index, `active_`, holds the
// keys of the piggyback candidates: off stable storage, and held by fewer
// than f+1 processes. A send filters the active set by the destination's
// holder bit, so no per-destination state exists to keep in step. For
// f < n the active set stays small: a determinant leaves it once f+1
// processes hold it. At f = n (threshold n+1) only a stable flush ends
// propagation, so with pruned sends the determinants every process already
// holds leave the index too, and piggyback_all() — then only the
// output-commit barrier — scans the log. Other scans of the whole log
// (unstable, slice_for, forget_holder) run once per flush, recovery or
// recovered peer, not per message.
//
// The holder mask a process keeps is its *local knowledge* — possibly
// behind reality, never ahead of it on the conservative side that matters:
// a bit is set only for processes the message carrying the determinant was
// handed to over a reliable channel, so at most the crashed processes
// themselves can be missing holders, which the f+1 rule absorbs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/serde.hpp"
#include "fbl/determinant.hpp"

namespace rr::fbl {

class DeterminantLog {
 public:
  /// Propagation stops once a determinant is known at `holders_needed`
  /// (= f+1) processes. One all `processes` hold leaves the active set even
  /// below that: pass n only when sends are pruned, since an un-pruned send
  /// still carries it. Defaults to "never" until the engine configures it;
  /// the call reindexes, so it is safe after decode()/load.
  void set_propagation_threshold(int holders_needed, std::uint32_t processes = kMaxProcesses);

  /// Record `h` (merging holder knowledge if already present). Returns true
  /// if the determinant was new to this log. Two records disagreeing on
  /// (source, ssn) for one (dest, rsn) violate the protocol and abort.
  bool record(const HeldDeterminant& h);

  /// Record determinants received from a peer (piggyback, push, install),
  /// adding `self` to each holder mask. Returns the number new to this log.
  std::size_t absorb(std::span<const HeldDeterminant> dets, ProcessId self);

  /// Merge additional holder knowledge for an existing determinant; no-op
  /// if the determinant is unknown.
  void add_holders(const Determinant& d, HolderMask extra);

  /// Retract `peer` from every holder mask (its volatile log died with it),
  /// except on its own receipts up to `kept_rsn`, which its recovery
  /// re-established. A retracted determinant may re-enter the active set.
  void forget_holder(ProcessId peer, Rsn kept_rsn);

  /// Determinants to piggyback on a message to `to`: the active set minus
  /// those already known to be held by `to`. Ordered by (dest, rsn).
  [[nodiscard]] std::vector<HeldDeterminant> piggyback_for(ProcessId to) const;

  /// Every determinant below f+1 holders and off stable storage, ignoring
  /// per-destination knowledge — the un-pruned baseline the scale bench
  /// contrasts against, and the output-commit barrier. The active set, or a
  /// scan of the log when the threshold exceeds `processes` (pruned sends at
  /// f = n). Ordered by (dest, rsn).
  [[nodiscard]] std::vector<HeldDeterminant> piggyback_all() const;

  /// All determinants destined to any process in `dests` — the depinfo
  /// slice for a recovery whose recovering set is `dests`.
  [[nodiscard]] std::vector<HeldDeterminant> slice_for(const HolderMask& dests) const;

  /// Determinants destined to this log's owner with rsn > `after`, in rsn
  /// order — the replay schedule.
  [[nodiscard]] std::vector<Determinant> replay_schedule(ProcessId owner, Rsn after) const;

  /// Highest ssn among determinants (source -> dest); 0 if none. Used to
  /// compute post-replay receive watermarks.
  [[nodiscard]] Ssn max_ssn(ProcessId source, ProcessId dest) const;

  /// Drop determinants with dest == `dest` and rsn <= `upto` (dest
  /// checkpointed past them). Returns the number removed.
  std::size_t prune_dest(ProcessId dest, Rsn upto);

  /// Determinants not yet known stable, for the f = n instance's
  /// asynchronous flush; the caller marks them via
  /// add_holders(kStableHolder) on write completion. Scans the log.
  [[nodiscard]] std::vector<Determinant> unstable() const;

  [[nodiscard]] std::size_t size() const noexcept { return by_dest_rsn_.size(); }
  [[nodiscard]] std::size_t active_size() const noexcept { return active_.size(); }
  [[nodiscard]] bool contains(ProcessId dest, Rsn rsn) const;
  [[nodiscard]] const HeldDeterminant* find(ProcessId dest, Rsn rsn) const;

  void clear();

  void encode(BufWriter& w) const;
  [[nodiscard]] static DeterminantLog decode(BufReader& r);

 private:
  using Key = std::pair<ProcessId, Rsn>;

  /// Off stable storage and below `holders` known holders.
  [[nodiscard]] static bool below(const HeldDeterminant& h, int holders) {
    return (h.holders & kStableHolder) == 0 && holder_count(h.holders) < holders;
  }
  /// A send could still carry `h` to someone: at f = n, where the
  /// threshold exceeds n, a pruned send carries one all n hold to no one.
  [[nodiscard]] bool is_active(const HeldDeterminant& h) const {
    return below(h, std::min(threshold_, processes_));
  }
  /// Bring `key`'s membership of the active set in line with `h`.
  void reindex(const Key& key, const HeldDeterminant& h);

  int threshold_{64};  // effectively "keep propagating" until configured
  int processes_{static_cast<int>(kMaxProcesses)};
  std::map<Key, HeldDeterminant> by_dest_rsn_;
  std::set<Key> active_;  // piggyback candidates, in (dest, rsn) order
};

}  // namespace rr::fbl
