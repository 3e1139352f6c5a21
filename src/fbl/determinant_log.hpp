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
// The send path runs per message, so the log maintains incremental
// indices: `active_` (piggyback candidates — below the propagation
// threshold and not stable), `unstable_` (not yet flushed to stable
// storage, used by the f = n instance) and per-destination pending work;
// no update visits every destination. Gather-time queries (slice_for,
// max_ssn) may scan; they run once per recovery, not per message.
//
// The holder mask a process keeps is its *local knowledge* — possibly
// behind reality, never ahead of it on the conservative side that matters:
// a bit is set only for processes the message carrying the determinant was
// handed to over a reliable channel, so at most the crashed processes
// themselves can be missing holders, which the f+1 rule absorbs.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/serde.hpp"
#include "fbl/determinant.hpp"

namespace rr::fbl {

class DeterminantLog {
 public:
  /// Propagation stops once a determinant is known at `holders_needed`
  /// (= f+1) processes. Defaults to "never" until the engine configures it;
  /// the call reindexes, so it is safe after decode()/load.
  void set_propagation_threshold(int holders_needed);

  /// Record `h` (merging holder knowledge if already present). Returns true
  /// if the determinant was new to this log. Two records disagreeing on
  /// (source, ssn) for one (dest, rsn) violate the protocol and abort.
  bool record(const HeldDeterminant& h);

  /// Merge additional holder knowledge for an existing determinant; no-op
  /// if the determinant is unknown.
  void add_holders(const Determinant& d, HolderMask extra);

  /// Retract holder knowledge (a peer's volatile log died with it).
  void remove_holder(const Determinant& d, ProcessId peer);

  /// Determinants to piggyback on a message to `to`: the active set minus
  /// those already known to be held by `to`. Ordered by (dest, rsn).
  [[nodiscard]] std::vector<HeldDeterminant> piggyback_for(ProcessId to) const;

  /// The whole active set, ignoring per-destination knowledge — the
  /// un-pruned baseline the scale bench contrasts against. Ordered by
  /// (dest, rsn).
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
  /// add_holders(kStableHolder) on write completion.
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

  [[nodiscard]] bool is_active(const HeldDeterminant& h) const {
    return (h.holders & kStableHolder) == 0 && holder_count(h.holders) < threshold_;
  }
  struct Entry {
    HeldDeterminant held;
    /// Key in active_by_seq_; 0 while inactive, new on each (re)activation.
    std::uint64_t active_seq{0};
  };

  /// One destination's pending piggyback work: the active entries it is not
  /// known to hold among those activated before `cursor`, plus stale keys
  /// piggyback_for drops. A steady-state send costs O(new activations).
  struct Pending {
    std::uint64_t cursor{0};
    std::set<Key> keys;
  };

  void index(const Key& key, Entry& e, bool lost_holder);
  void unindex(const Key& key, const Entry& e);

  int threshold_{64};  // effectively "keep propagating" until configured
  std::map<Key, Entry> by_dest_rsn_;
  std::set<Key> active_;    // piggyback candidates
  std::map<std::uint64_t, Key> active_by_seq_;  // the same, in activation order
  std::uint64_t next_seq_{1};
  std::set<Key> unstable_;  // not on stable storage
  mutable std::map<ProcessId, Pending> pending_by_dest_;
};

}  // namespace rr::fbl
