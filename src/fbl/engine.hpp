// Failure-free FBL protocol engine — one process's logging state machine.
//
// Pure protocol logic with no I/O or timing: the node runtime feeds frames
// in and transmits the frames this engine produces. Keeping it pure makes
// the protocol unit-testable as a value (tests drive two engines against
// each other and inspect every decision).
//
// Responsibilities (paper §2):
//  * tag outgoing messages with the sender's incarnation and a fresh ssn;
//  * log outgoing payloads in the volatile send log (sender-based logging);
//  * piggyback determinants not yet known at f+1 hosts;
//  * on receipt: reject stale incarnations and duplicates, assign the
//    receipt order (rsn), create the receipt's determinant, and absorb
//    piggybacked determinants;
//  * cut and load checkpoints; garbage-collect logs on peers' checkpoint
//    notices.
//
// Replay mode: during recovery the same engine re-delivers logged receipt
// orders. deliver_replayed() checks that re-execution reproduces exactly
// the logged (source, ssn) at each rsn — the piecewise-deterministic
// contract made executable.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "fbl/checkpoint.hpp"
#include "fbl/determinant_log.hpp"
#include "fbl/frame.hpp"
#include "fbl/inc_vector.hpp"
#include "fbl/send_log.hpp"
#include "fbl/watermarks.hpp"

namespace rr::fbl {

struct EngineConfig {
  ProcessId self;
  std::uint32_t num_processes{0};
  /// Failures to tolerate; 1 <= f <= num_processes. f == num_processes
  /// enables the stable-storage pseudo-holder (Manetho-style instance).
  std::uint32_t f{1};
  /// Piggyback pruning (default on): attach only determinants the
  /// destination is not already known to hold. Off = the un-pruned
  /// baseline — every determinant below f+1 holders rides on every
  /// frame — kept as the O(n) contrast for the scale bench and the
  /// equivalence property test. Pruning changes which *copies* travel, never which receipt
  /// orders exist, so delivered order is bit-identical either way.
  bool prune_piggyback{true};
  /// Set when the reliable transport is in play (lossy fabric): a handed-off
  /// frame is no longer guaranteed to arrive — its retransmission state is
  /// volatile and dies with us — so counting the destination as a
  /// determinant holder at send time would let the f+1 rule be satisfied by
  /// copies that never existed. Deferred mode leaves the local holder mask
  /// untouched at make_frame/retransmit_frame time and reports the attached
  /// determinants in SendResult::attached; the runtime confirms them via
  /// confirm_piggyback() once the transport's cumulative ack covers the
  /// frame. Off (perfect FIFO fabric): first transmission is delivery, the
  /// paper's argument applies, mark immediately.
  bool defer_holder_mark{false};
};

class LoggingEngine {
 public:
  explicit LoggingEngine(EngineConfig config);

  // --- send path -----------------------------------------------------

  struct SendResult {
    Ssn ssn{0};
    Bytes frame;                  ///< encoded AppFrame ready for the wire
    std::size_t piggyback_count{0};
    std::size_t piggyback_bytes{0};
    /// Determinants piggybacked on the frame whose holder marking is
    /// deferred to delivery confirmation (defer_holder_mark only).
    std::vector<Determinant> attached;
  };

  /// Build the frame for an application send and log the payload.
  /// `inc` is the sender's current incarnation.
  [[nodiscard]] SendResult make_frame(ProcessId to, Bytes payload, Incarnation inc);

  /// Rebuild a frame for a payload already in the send log (retransmission
  /// to a recovered peer). Keeps the original ssn — the receiver's channel
  /// stays gap-free — but carries the current incarnation and a fresh
  /// piggyback. Empty result if the entry was garbage-collected.
  [[nodiscard]] std::optional<SendResult> retransmit_frame(ProcessId to, Ssn ssn,
                                                           Incarnation inc);

  // --- receive path ---------------------------------------------------

  enum class Verdict { kDeliver, kStale, kDuplicate, kOutOfOrder };

  struct AcceptResult {
    Verdict verdict{Verdict::kDeliver};
    Rsn rsn{0};                 ///< assigned receipt order (kDeliver only)
    std::size_t dets_learned{0};  ///< piggybacked determinants new to us
  };

  /// Process an incoming frame from `from` under the stale-rejection floor
  /// `incvector`. On kDeliver the caller must hand frame.payload to the
  /// application. kOutOfOrder means a channel gap (ssn beyond watermark+1):
  /// the caller should hold the frame and retry once the gap fills — this
  /// happens only around recovery retransmission, never in failure-free
  /// FIFO operation. Piggybacked determinants are absorbed from everything
  /// except stale frames (the knowledge is valid; only the payload is
  /// redundant or early).
  AcceptResult accept(ProcessId from, const AppFrame& frame, const IncVector& incvector);

  /// Delivery confirmation for a frame that piggybacked `dets` toward `to`
  /// (defer_holder_mark mode): the copies are now logged at the
  /// destination, count it as a holder. Determinants GC'd in the meantime
  /// are skipped.
  void confirm_piggyback(ProcessId to, const std::vector<Determinant>& dets);

  /// Re-deliver a logged receipt during recovery: must reproduce exactly
  /// `det` as the next receipt (aborts otherwise). Records the determinant
  /// as held by self plus `extra_holders` (knowledge from the gather).
  void deliver_replayed(const Determinant& det, HolderMask extra_holders);

  // --- checkpointing and GC -------------------------------------------

  [[nodiscard]] Checkpoint make_checkpoint(Bytes app_state) const;
  void load(const Checkpoint& cp);

  /// Apply a peer's checkpoint notice: prune send-log entries the peer can
  /// never replay and determinants it can never need.
  struct GcResult {
    std::size_t send_entries{0};
    std::size_t determinants{0};
  };
  GcResult on_ckpt_notice(ProcessId peer, const CkptNoticeFrame& notice);

  // --- accessors -------------------------------------------------------

  [[nodiscard]] ProcessId self() const noexcept { return config_.self; }
  [[nodiscard]] std::uint32_t f() const noexcept { return config_.f; }
  [[nodiscard]] bool stable_instance() const noexcept {
    return config_.f >= config_.num_processes;
  }
  [[nodiscard]] Rsn rsn() const noexcept { return rsn_; }
  [[nodiscard]] const Watermarks& send_seq() const noexcept { return send_seq_; }
  [[nodiscard]] const Watermarks& recv_marks() const noexcept { return recv_marks_; }
  [[nodiscard]] const SendLog& send_log() const noexcept { return send_log_; }
  [[nodiscard]] const DeterminantLog& det_log() const noexcept { return det_log_; }
  [[nodiscard]] DeterminantLog& det_log() noexcept { return det_log_; }

 private:
  /// Attach the piggyback for `to`, mark (or defer marking) `to` as a
  /// holder of each attached determinant, and encode the frame.
  [[nodiscard]] SendResult attach_and_encode(ProcessId to, AppFrame& frame);
  /// Set the log's f+1 threshold. Pruned sends never carry a determinant
  /// every process holds, so only they let the log drop those from its
  /// index (which matters at f = n).
  void configure_det_log();

  EngineConfig config_;
  Rsn rsn_{0};
  Watermarks send_seq_;  // per destination, last ssn used
  Watermarks recv_marks_;
  SendLog send_log_;
  DeterminantLog det_log_;
};

}  // namespace rr::fbl
