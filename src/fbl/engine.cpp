#include "fbl/engine.hpp"

#include <utility>

#include "common/assert.hpp"

namespace rr::fbl {

LoggingEngine::LoggingEngine(EngineConfig config) : config_(config) {
  RR_CHECK_MSG(config_.self.valid(), "engine needs a process id");
  RR_CHECK_MSG(config_.self.value < kMaxProcesses, "process id exceeds holder-mask capacity");
  RR_CHECK_MSG(config_.f >= 1, "f must be at least 1");
  RR_CHECK_MSG(config_.num_processes >= 2, "need at least two processes");
  RR_CHECK_MSG(config_.f <= config_.num_processes, "f cannot exceed n");
  configure_det_log();
}

void LoggingEngine::configure_det_log() {
  det_log_.set_propagation_threshold(static_cast<int>(config_.f) + 1,
                                     config_.prune_piggyback ? config_.num_processes
                                                             : kMaxProcesses);
}

LoggingEngine::SendResult LoggingEngine::make_frame(ProcessId to, Bytes payload,
                                                    Incarnation inc) {
  RR_CHECK_MSG(to != config_.self, "self-sends are not part of the model");
  AppFrame frame;
  frame.inc = inc;
  frame.ssn = ++send_seq_[to];
  frame.payload = payload;

  // Sender-based logging: the payload lives in our volatile store until the
  // receiver checkpoints past it.
  send_log_.record(to, frame.ssn, std::move(payload));
  return attach_and_encode(to, frame);
}

std::optional<LoggingEngine::SendResult> LoggingEngine::retransmit_frame(ProcessId to, Ssn ssn,
                                                                         Incarnation inc) {
  const Bytes* payload = send_log_.find(to, ssn);
  if (payload == nullptr) return std::nullopt;
  AppFrame frame;
  frame.inc = inc;
  frame.ssn = ssn;
  frame.payload = *payload;
  return attach_and_encode(to, frame);
}

LoggingEngine::SendResult LoggingEngine::attach_and_encode(ProcessId to, AppFrame& frame) {
  frame.dets = config_.prune_piggyback ? det_log_.piggyback_for(to) : det_log_.piggyback_all();
  SendResult out;

  // Perfect FIFO fabric: once handed over, `to` will log the piggybacked
  // determinants unless it crashes — and a crash consumes one unit of the
  // f-failure budget, which the f+1 rule already covers. So `to` counts as
  // a holder immediately (see determinant_log.hpp). On a lossy fabric that
  // argument fails (a dropped frame's retransmission state is volatile and
  // dies with *us*), so the local mark waits for delivery confirmation.
  // Either way the wire copy may claim the `to` bit: that claim is only
  // ever read by `to` itself, after delivery — at which point it is true.
  for (auto& h : frame.dets) {
    if (config_.defer_holder_mark) {
      out.attached.push_back(h.det);
    } else {
      det_log_.add_holders(h.det, holder_bit(to));
    }
    h.holders |= holder_bit(to);
  }

  out.ssn = frame.ssn;
  out.piggyback_count = frame.dets.size();
  out.piggyback_bytes = frame.piggyback_bytes();
  out.frame = frame.encode();
  return out;
}

void LoggingEngine::confirm_piggyback(ProcessId to, const std::vector<Determinant>& dets) {
  for (const Determinant& d : dets) det_log_.add_holders(d, holder_bit(to));
}

LoggingEngine::AcceptResult LoggingEngine::accept(ProcessId from, const AppFrame& frame,
                                                  const IncVector& incvector) {
  AcceptResult out;
  if (is_stale(incvector, from, frame.inc)) {
    out.verdict = Verdict::kStale;
    return out;
  }

  // Absorb piggybacked knowledge (valid even on duplicate payloads).
  out.dets_learned = det_log_.absorb(frame.dets, config_.self);

  const Ssn mark = watermark_of(recv_marks_, from);
  if (frame.ssn <= mark) {
    out.verdict = Verdict::kDuplicate;
    return out;
  }
  if (frame.ssn > mark + 1) {
    // Channel gap: an earlier message is still owed (a retransmission in
    // flight around a peer's recovery). Hold, don't skip.
    out.verdict = Verdict::kOutOfOrder;
    return out;
  }

  raise_watermark(recv_marks_, from, frame.ssn);
  out.rsn = ++rsn_;
  out.verdict = Verdict::kDeliver;

  // The receipt order just created — the determinant this delivery mints.
  HeldDeterminant mine;
  mine.det = Determinant{from, frame.ssn, config_.self, out.rsn};
  mine.holders = holder_bit(config_.self);
  RR_CHECK(det_log_.record(mine));
  return out;
}

void LoggingEngine::deliver_replayed(const Determinant& det, HolderMask extra_holders) {
  RR_CHECK_MSG(det.dest == config_.self, "replaying someone else's receipt");
  RR_CHECK_MSG(det.rsn == rsn_ + 1, "replay must proceed in receipt order");
  RR_CHECK_MSG(det.ssn == watermark_of(recv_marks_, det.source) + 1,
               "replayed channel must stay gap-free");
  rsn_ = det.rsn;
  raise_watermark(recv_marks_, det.source, det.ssn);
  det_log_.record(HeldDeterminant{det, extra_holders | holder_bit(config_.self)});
}

Checkpoint LoggingEngine::make_checkpoint(Bytes app_state) const {
  Checkpoint cp;
  cp.rsn = rsn_;
  cp.send_seq = send_seq_;
  cp.recv_marks = recv_marks_;
  cp.send_log = send_log_;
  cp.det_log = det_log_;
  cp.app_state = std::move(app_state);
  return cp;
}

void LoggingEngine::load(const Checkpoint& cp) {
  rsn_ = cp.rsn;
  send_seq_ = cp.send_seq;
  recv_marks_ = cp.recv_marks;
  send_log_ = cp.send_log;
  det_log_ = cp.det_log;
  configure_det_log();
}

LoggingEngine::GcResult LoggingEngine::on_ckpt_notice(ProcessId peer,
                                                      const CkptNoticeFrame& notice) {
  GcResult out;
  // The peer's checkpoint includes every message it delivered up to
  // notice.recv_marks — it will never replay them, so their payloads and
  // receipt orders are dead weight everywhere.
  out.send_entries = send_log_.prune(peer, watermark_of(notice.recv_marks, config_.self));
  out.determinants = det_log_.prune_dest(peer, notice.rsn);
  return out;
}

}  // namespace rr::fbl
