#include "runtime/node.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "fbl/frame.hpp"

namespace rr::runtime {

using recovery::ControlMessage;

/// AppContext implementation handed to application handlers.
class Node::Ctx : public app::AppContext {
 public:
  explicit Ctx(Node& node) : node_(node) {}

  void send(ProcessId to, Bytes payload) override { node_.app_send(to, std::move(payload)); }
  std::uint64_t commit_output(Bytes payload) override {
    return node_.commit_output(std::move(payload));
  }
  [[nodiscard]] ProcessId self() const override { return node_.id(); }
  [[nodiscard]] const std::vector<ProcessId>& processes() const override {
    return node_.processes_;
  }

 private:
  Node& node_;
};

Node::Node(sim::Simulator& sim, net::Network& network, NodeConfig config,
           std::unique_ptr<app::Application> application, std::vector<ProcessId> processes,
           metrics::Registry& metrics)
    : sim_(sim),
      network_(network),
      config_(config),
      metrics_(metrics),
      processes_(std::move(processes)),
      transport_(sim, network, config.id, config.transport, metrics),
      app_(std::move(application)),
      ctx_(std::make_unique<Ctx>(*this)),
      engine_(fbl::EngineConfig{config.id, config.num_processes, config.f,
                                  config.prune_piggyback, config.transport.enabled}),
      storage_(sim, config.storage, metrics, "storage"),
      ckpts_(storage_, config.id),
      detector_(
          sim, config.id, config.detector, [this] { send_heartbeats(); },
          [this](ProcessId peer, bool suspected) {
            if (config_.trace != nullptr) {
              config_.trace->record(sim_.now(),
                                    trace::SuspectEvent{config_.id, peer, suspected});
            }
            recovery_.on_suspicion(peer, suspected);
          }),
      recovery_(
          sim, config.id, config.ord_service, config.recovery,
          recovery::RecoveryManager::Hooks{
              .send_ctrl = [this](ProcessId to,
                                  const ControlMessage& m) { send_control(to, m); },
              .broadcast_ctrl = [this](const ControlMessage& m) { broadcast_control(m); },
              .my_incarnation = [this] { return inc_; },
              .all_processes = [this] { return processes_; },
              .is_suspected = [this](ProcessId p) { return detector_.suspects(p); },
              .depinfo_slice =
                  [this](const std::vector<ProcessId>& rset) {
                    return engine_.det_log().slice_for(mask_of(rset));
                  },
              .marks_for =
                  [this](const std::vector<ProcessId>& rset) {
                    fbl::Watermarks out;
                    for (const ProcessId p : rset) {
                      out[p] = fbl::watermark_of(engine_.recv_marks(), p);
                    }
                    return out;
                  },
              .set_delivery_blocked = [this](bool b) { set_delivery_blocked(b); },
              .set_defer_unsafe =
                  [this](const std::set<ProcessId>& rset) { set_defer_unsafe(rset); },
              .sync_log_then_send =
                  [this](ProcessId to, const ControlMessage& m) {
                    sync_log_then_send(to, m);
                  },
              .install = [this](const recovery::DepInstall& i) { on_install(i); },
              .peer_recovered =
                  [this](ProcessId peer, const recovery::RecoveryComplete& m) {
                    on_peer_recovered(peer, m);
                  },
              .floor_raised =
                  [this](ProcessId about, Incarnation inc) {
                    if (config_.trace != nullptr) {
                      config_.trace->record(sim_.now(),
                                            trace::FloorEvent{config_.id, about, inc});
                    }
                  },
          },
          metrics),
      replay_(
          sim, config.id, config.replay_delivery_cost,
          recovery::ReplayEngine::Hooks{
              .deliver =
                  [this](const fbl::HeldDeterminant& h, const Bytes& payload) {
                    engine_.deliver_replayed(h.det, h.holders);
                    ++app_delivered_;
                    metrics_.counter("replay.delivered").add();
                    if (config_.trace != nullptr) {
                      config_.trace->record(
                          sim_.now(), trace::DeliverEvent{config_.id, h.det.source, h.det.ssn,
                                                          h.det.rsn, inc_, true});
                    }
                    app_->on_message(*ctx_, h.det.source, payload);
                  },
              .request_payloads =
                  [this](ProcessId source, std::vector<Ssn> ssns) {
                    send_control(source, recovery::ReplayRequest{std::move(ssns)});
                  },
              .on_complete = [this] { finish_recovery(); },
          }),
      outputs_(
          sim, config.id, config.f,
          config.f >= config.num_processes,
          recovery::OutputCommitManager::Hooks{
              .send_ctrl = [this](ProcessId to,
                                  const ControlMessage& m) { send_control(to, m); },
              .det_log = [this]() -> const fbl::DeterminantLog& { return engine_.det_log(); },
              .add_holders =
                  [this](const fbl::Determinant& d, fbl::HolderMask extra) {
                    engine_.det_log().add_holders(d, extra);
                  },
              .peers = [this] { return processes_; },
              .is_suspected = [this](ProcessId p) { return detector_.suspects(p); },
              .force_flush = [this] { flush_unstable_dets(); },
              .release =
                  [this](std::uint64_t id, const Bytes& payload) {
                    // The external world dedups regenerated outputs by id.
                    if (id <= last_released_output_) {
                      metrics_.counter("output.duplicates_suppressed").add();
                      return;
                    }
                    last_released_output_ = id;
                    released_outputs_.emplace_back(id, payload);
                  },
          },
          metrics),
      snapshot_(
          config.id,
          snapshot::SnapshotManager::Hooks{
              .send_frame =
                  [this](ProcessId to, Bytes frame) {
                    metrics_.counter("snapshot.frames").add();
                    transport_.send(to, std::move(frame));
                  },
              .peers =
                  [this] {
                    std::vector<ProcessId> out;
                    for (const ProcessId p : processes_) {
                      if (p != config_.id) out.push_back(p);
                    }
                    return out;
                  },
              .local_cut =
                  [this] {
                    snapshot::LocalCut cut;
                    cut.app_hash = app_->state_hash();
                    cut.rsn = engine_.rsn();
                    cut.send_seq = engine_.send_seq();
                    cut.recv_marks = engine_.recv_marks();
                    return cut;
                  },
          },
          metrics),
      checkpoint_timer_(sim, config.checkpoint_period, [this] { take_checkpoint(); }),
      det_flush_timer_(sim, config.det_flush_period, [this] { flush_unstable_dets(); }) {
  RR_CHECK(app_ != nullptr);
  RR_CHECK(std::is_sorted(processes_.begin(), processes_.end()));
  if (config_.tracer != nullptr) {
    storage_.set_tracer(config_.tracer, config_.id.value);
  }
  // The ordinal service speaks its own raw request/reply protocol and is
  // infrastructure, not a lossy hop — never wrap traffic toward it.
  transport_.set_raw_peer(config_.ord_service);
  transport_.set_deliver([this](ProcessId src, const Bytes& payload, std::size_t offset) {
    handle_wire(src, std::span<const std::byte>(payload).subspan(offset));
  });
  transport_.set_peer_signal([this](ProcessId peer, bool unreachable) {
    if (!unreachable) return;
    metrics_.counter("transport.peers_reported").add();
    detector_.report_unreachable(peer);
  });
  transport_.set_ack_signal([this](ProcessId dst, std::uint64_t msg) {
    confirm_piggyback_marks(dst, msg);
  });
  network_.attach(config_.id, *this);
  network_.set_up(config_.id, false);  // dark until start()
}

Node::~Node() { network_.detach(config_.id); }

std::string Node::inc_key() const { return "inc/" + std::to_string(config_.id.value); }

std::string Node::det_block_key(std::uint64_t seq) const {
  return "dets/" + std::to_string(config_.id.value) + "/" + std::to_string(seq);
}

fbl::HolderMask Node::mask_of(const std::vector<ProcessId>& pids) const {
  fbl::HolderMask m = 0;
  for (const ProcessId p : pids) m |= fbl::holder_bit(p);
  return m;
}

// --- lifecycle -----------------------------------------------------------

void Node::start() {
  RR_CHECK_MSG(!alive_, "start() is for the initial boot only");
  alive_ = true;
  inc_ = 1;
  network_.set_up(config_.id, true);
  transport_.reset(inc_);
  const auto epoch = epoch_;

  BufWriter w;
  w.u32(inc_);
  storage_.write(inc_key(), std::move(w).take(), [this, epoch] {
    if (epoch != epoch_) return;
    // Pre-start checkpoint: recovery from it re-executes on_start.
    fbl::Checkpoint cp = engine_.make_checkpoint(app_->snapshot());
    cp.app_started = false;
    const Time snapped_at = sim_.now();
    storage::CheckpointStore::SaveCallback done = [this, epoch, snapped_at](std::uint64_t) {
      if (config_.trace != nullptr) {
        config_.trace->record(snapped_at, trace::CheckpointEvent{config_.id, 0});
      }
      if (epoch != epoch_) return;
      started_ = true;
      detector_.set_peers(processes_);
      detector_.start();
      // Desynchronize checkpoint cadence across nodes deterministically.
      checkpoint_timer_.start_after(config_.checkpoint_period +
                                    milliseconds(37) * (config_.id.value + 1));
      if (engine_.stable_instance()) det_flush_timer_.start();
      app_->on_start(*ctx_);
      while (!pre_start_queue_.empty()) {
        auto [src, frame] = std::move(pre_start_queue_.front());
        pre_start_queue_.pop_front();
        handle_app_frame(src, std::move(frame));
      }
    };
    ckpts_.save(cp.encode(), std::move(done));
  });
}

void Node::crash() {
  metrics_.counter("node.crashes").add();
  if (config_.trace != nullptr) {
    config_.trace->record(sim_.now(), trace::CrashEvent{config_.id, inc_});
  }
  if (config_.tracer != nullptr) config_.tracer->on_crash(sim_.now(), config_.id.value, inc_);
  RR_INFO("node", "%s crashed (inc %u)", to_string(config_.id).c_str(), inc_);
  ++epoch_;
  alive_ = false;
  started_ = false;
  recovering_ = false;
  needs_onstart_replay_ = false;
  network_.set_up(config_.id, false);
  transport_.reset(0);  // a down node has no transport state
  detector_.stop();
  checkpoint_timer_.stop();
  det_flush_timer_.stop();
  det_flush_inflight_ = false;
  if (delivery_blocked_) blocked_.end(sim_.now());
  delivery_blocked_ = false;
  blocked_queue_.clear();
  pending_fresh_.clear();
  pre_start_queue_.clear();
  held_ooo_.clear();
  defer_rset_.clear();
  deferred_queue_.clear();
  suppress_marks_.clear();
  pending_marks_.clear();
  recovery_.reset_for_restart();
  replay_.reset();
  outputs_.reset();
  snapshot_.reset();
  engine_ = fbl::LoggingEngine(fbl::EngineConfig{config_.id, config_.num_processes, config_.f,
                                                 config_.prune_piggyback,
                                                 config_.transport.enabled});

  if (current_recovery_) metrics_.counter("recovery.abandoned").add();
  current_recovery_ = RecoveryTimeline{};
  current_recovery_->crashed_at = sim_.now();

  const auto epoch = epoch_;
  sim_.schedule_after(config_.supervisor_restart_delay, [this, epoch] {
    if (epoch == epoch_ && !alive_) begin_restore();
  });
}

void Node::begin_restore() {
  current_recovery_->restore_started = sim_.now();
  if (config_.tracer != nullptr) config_.tracer->on_restore_begin(sim_.now(), config_.id.value);
  const auto epoch = epoch_;
  storage_.read(inc_key(), [this, epoch](std::optional<Bytes> blk) {
    if (epoch != epoch_) return;
    RR_CHECK_MSG(blk.has_value(), "incarnation record missing from stable storage");
    BufReader r(*blk);
    inc_ = r.u32() + 1;  // paper §3.4 step 2: incarnation <- incarnation + 1
    BufWriter w;
    w.u32(inc_);
    storage_.write(inc_key(), std::move(w).take(), [this, epoch] {
      if (epoch != epoch_) return;
      ckpts_.load_latest([this, epoch](std::optional<Bytes> blk, std::uint64_t version) {
        if (epoch != epoch_) return;
        RR_CHECK_MSG(blk.has_value(), "no committed checkpoint to restore");
        (void)version;
        fbl::Checkpoint cp = fbl::Checkpoint::decode(*blk);
        if (engine_.stable_instance()) {
          auto keys = storage_.keys_with_prefix("dets/" + std::to_string(config_.id.value) + "/");
          load_stable_dets(std::move(keys), std::move(cp));
        } else {
          finish_restore(cp);
        }
      });
    });
  });
}

void Node::load_stable_dets(std::vector<std::string> keys, fbl::Checkpoint cp) {
  // Sequentially read the post-checkpoint determinant blocks (f = n
  // instance) and merge them into the restored determinant log.
  if (keys.empty()) {
    finish_restore(cp);
    return;
  }
  const std::string key = keys.back();
  keys.pop_back();
  // Resume the block sequence beyond anything on disk.
  const auto slash = key.rfind('/');
  const std::uint64_t seq = std::stoull(key.substr(slash + 1));
  det_block_seq_ = std::max(det_block_seq_, seq + 1);
  det_blocks_written_.push_back(key);

  const auto epoch = epoch_;
  storage_.read(key, [this, epoch, keys = std::move(keys),
                      cp = std::move(cp)](std::optional<Bytes> blk) mutable {
    if (epoch != epoch_) return;
    if (blk) {
      BufReader r(*blk);
      const auto n = r.varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto det = fbl::Determinant::decode(r);
        cp.det_log.record(fbl::HeldDeterminant{
            det, fbl::holder_bit(config_.id) | fbl::kStableHolder});
      }
    }
    load_stable_dets(std::move(keys), std::move(cp));
  });
}

void Node::finish_restore(const fbl::Checkpoint& cp) {
  engine_ = fbl::LoggingEngine(fbl::EngineConfig{config_.id, config_.num_processes, config_.f,
                                                 config_.prune_piggyback,
                                                 config_.transport.enabled});
  engine_.load(cp);
  app_->restore(cp.app_state);
  needs_onstart_replay_ = !cp.app_started;
  alive_ = true;
  started_ = true;
  recovering_ = true;
  network_.set_up(config_.id, true);
  // The incarnation bump is the transport epoch bump: peers seeing it reset
  // their channels toward us, closing the pre-crash sequence space.
  transport_.reset(inc_);
  detector_.set_peers(processes_);
  detector_.start();
  current_recovery_->restored_at = sim_.now();
  current_recovery_->inc = inc_;
  metrics_.counter("node.restores").add();
  if (config_.tracer != nullptr) config_.tracer->on_restored(sim_.now(), config_.id.value, inc_);
  if (config_.trace != nullptr) {
    config_.trace->record(sim_.now(), trace::RestoreEvent{config_.id, inc_, cp.rsn});
  }
  RR_INFO("node", "%s restored checkpoint rsn=%llu as inc %u", to_string(config_.id).c_str(),
          static_cast<unsigned long long>(cp.rsn), inc_);
  recovery_.begin_recovery();
}

void Node::finish_recovery() {
  RR_CHECK(recovering_);
  recovering_ = false;
  current_recovery_->completed_at = sim_.now();
  current_recovery_->replayed = replay_.delivered();
  if (replay_.gaps_detected() > 0) {
    metrics_.counter("recovery.det_gaps").add(replay_.gaps_detected());
  }
  metrics_.accum("recovery.detect_ns").record_duration(current_recovery_->detect());
  metrics_.accum("recovery.restore_ns").record_duration(current_recovery_->restore());
  metrics_.accum("recovery.gather_ns").record_duration(current_recovery_->gather());
  metrics_.accum("recovery.replay_ns").record_duration(current_recovery_->replay());
  metrics_.accum("recovery.total_ns").record_duration(current_recovery_->total());
  metrics_.accum("recovery.replayed_msgs").record(
      static_cast<double>(current_recovery_->replayed));
  timelines_.push_back(*current_recovery_);
  current_recovery_.reset();
  if (config_.tracer != nullptr) {
    config_.tracer->on_recovery_complete(sim_.now(), config_.id.value);
  }

  recovery_.on_replay_complete();
  if (config_.trace != nullptr) {
    config_.trace->record(sim_.now(), trace::CompleteEvent{config_.id, inc_, engine_.rsn()});
  }
  broadcast_control(recovery::RecoveryComplete{inc_, engine_.recv_marks(), engine_.rsn()});
  replay_.reset();
  RR_INFO("node", "%s recovery complete (inc %u, rsn %llu)", to_string(config_.id).c_str(),
          inc_, static_cast<unsigned long long>(engine_.rsn()));

  drain_pending_fresh();
  checkpoint_timer_.start();
  if (engine_.stable_instance()) det_flush_timer_.start();
}

// --- receive path ---------------------------------------------------------

void Node::deliver(ProcessId src, Bytes payload) {
  if (!alive_) {
    BufferPool::global().release(std::move(payload));
    return;
  }
  // The transport demuxes (resequences/dedups/acks its own frames, passes
  // raw ones through), upcalls handle_wire with the inner frame, and
  // recycles the wire buffer afterwards.
  transport_.on_wire(src, std::move(payload));
}

void Node::handle_wire(ProcessId src, std::span<const std::byte> payload) {
  try {
    BufReader r(payload);
    switch (fbl::decode_kind(r)) {
      case fbl::FrameKind::kHeartbeat: {
        (void)fbl::HeartbeatFrame::decode(r);
        detector_.on_heartbeat(src);
        return;
      }
      case fbl::FrameKind::kCkptNotice: {
        const auto notice = fbl::CkptNoticeFrame::decode(r);
        const auto gc = engine_.on_ckpt_notice(src, notice);
        metrics_.counter("fbl.gc.send_entries").add(gc.send_entries);
        metrics_.counter("fbl.gc.determinants").add(gc.determinants);
        return;
      }
      case fbl::FrameKind::kControl: {
        auto m = recovery::decode_control(r);
        if (const auto* req = std::get_if<recovery::ReplayRequest>(&m)) {
          handle_replay_request(src, *req);
        } else if (const auto* push = std::get_if<recovery::DetPush>(&m)) {
          // Output-commit stabilization: log the determinants durably-in-
          // volatile terms (we are now one of the f+1 holders) and confirm.
          engine_.det_log().absorb(push->dets, config_.id);
          metrics_.counter("output.det_pushes_served").add();
          send_control(src, recovery::DetAck{push->seq});
        } else if (const auto* ack = std::get_if<recovery::DetAck>(&m)) {
          outputs_.on_ack(src, *ack);
        } else if (auto* data = std::get_if<recovery::ReplayData>(&m)) {
          if (recovering_) {
            for (auto& item : data->items) {
              metrics_.counter("replay.payloads_from_log").add();
              replay_.offer(src, item.ssn, std::move(item.payload));
            }
          }
        } else {
          recovery_.on_control(src, m);
        }
        return;
      }
      case fbl::FrameKind::kSnapshot: {
        snapshot_.on_frame(src, r);
        return;
      }
      case fbl::FrameKind::kApp: {
        handle_app_frame(src, fbl::AppFrame::decode(r));
        return;
      }
    }
  } catch (const SerdeError& e) {
    metrics_.counter("node.malformed_frames").add();
    RR_WARN("node", "%s dropped malformed frame from %s: %s", to_string(config_.id).c_str(),
            to_string(src).c_str(), e.what());
  }
}

void Node::handle_app_frame(ProcessId src, fbl::AppFrame frame) {
  if (!started_) {
    pre_start_queue_.emplace_back(src, std::move(frame));
    return;
  }
  if (recovering_) {
    // Piggybacked knowledge is valid regardless of what happens to the
    // payload; absorb it so later gathers (and our own piggybacks) see it.
    engine_.det_log().absorb(frame.dets, config_.id);
    if (replay_.installed() && replay_.needs(src, frame.ssn)) {
      metrics_.counter("replay.payloads_from_wire").add();
      replay_.offer(src, frame.ssn, std::move(frame.payload));
    } else {
      pending_fresh_.emplace_back(src, std::move(frame));
    }
    return;
  }
  if (delivery_blocked_) {
    blocked_queue_.emplace_back(src, std::move(frame));
    metrics_.counter("node.frames_blocked").add();
    return;
  }
  if (!defer_rset_.empty() && references_deferred(frame)) {
    metrics_.counter("recovery.frames_deferred").add();
    deferred_queue_.push_back(DeferredFrame{src, std::move(frame), sim_.now()});
    return;
  }
  try_deliver_app(src, frame);
}

bool Node::references_deferred(const fbl::AppFrame& frame) const {
  // Manetho-style unsafety test: the frame carries a receipt order of a
  // process that is still recovering, so delivering it could create a
  // dependency inconsistent with our already-sent depinfo reply.
  for (const auto& h : frame.dets) {
    if (defer_rset_.contains(h.det.dest)) return true;
  }
  return false;
}

void Node::set_defer_unsafe(const std::set<ProcessId>& rset) {
  defer_rset_ = rset;
  if (defer_rset_.empty()) drain_deferred();
}

void Node::drain_deferred() {
  while (!deferred_queue_.empty() && defer_rset_.empty() && !delivery_blocked_) {
    DeferredFrame d = std::move(deferred_queue_.front());
    deferred_queue_.pop_front();
    metrics_.accum("recovery.deferred_hold_ns").record_duration(sim_.now() - d.held_since);
    try_deliver_app(d.src, d.frame);
  }
}

void Node::sync_log_then_send(ProcessId to, const ControlMessage& m) {
  // The reply is durably recorded before it leaves the host; the recovering
  // process can then safely depend on it even if we crash next. The seek +
  // transfer shows up directly in the leader's gather phase.
  metrics_.counter("recovery.live_sync_writes").add();
  const std::string key =
      "recovery/reply/" + std::to_string(config_.id.value) + "/" +
      std::to_string(sync_log_seq_++);
  const auto epoch = epoch_;
  Bytes blob = recovery::encode_control(m);
  storage_.write(key, blob, [this, epoch, to, m] {
    if (epoch != epoch_ || !alive_) return;
    send_control(to, m);
  });
}

void Node::try_deliver_app(ProcessId src, const fbl::AppFrame& frame) {
  const auto res = engine_.accept(src, frame, recovery_.incvector());
  switch (res.verdict) {
    case fbl::LoggingEngine::Verdict::kDeliver:
      ++app_delivered_;
      metrics_.counter("app.delivered").add();
      metrics_.counter("fbl.dets_learned").add(res.dets_learned);
      if (config_.trace != nullptr) {
        config_.trace->record(sim_.now(), trace::DeliverEvent{config_.id, src, frame.ssn,
                                                              res.rsn, inc_, false, frame.inc});
      }
      snapshot_.observe_delivery(src);
      app_->on_message(*ctx_, src, frame.payload);
      drain_held(src);
      return;
    case fbl::LoggingEngine::Verdict::kStale:
      metrics_.counter("app.stale_rejected").add();
      return;
    case fbl::LoggingEngine::Verdict::kDuplicate:
      metrics_.counter("app.duplicates").add();
      return;
    case fbl::LoggingEngine::Verdict::kOutOfOrder:
      metrics_.counter("app.held_out_of_order").add();
      held_ooo_[src][frame.ssn] = frame;
      return;
  }
}

void Node::drain_held(ProcessId src) {
  const auto chan = held_ooo_.find(src);
  if (chan == held_ooo_.end()) return;
  while (!chan->second.empty()) {
    const Ssn next = fbl::watermark_of(engine_.recv_marks(), src) + 1;
    const auto it = chan->second.find(next);
    if (it == chan->second.end()) break;
    fbl::AppFrame frame = std::move(it->second);
    chan->second.erase(it);
    const auto res = engine_.accept(src, frame, recovery_.incvector());
    if (res.verdict == fbl::LoggingEngine::Verdict::kDeliver) {
      ++app_delivered_;
      metrics_.counter("app.delivered").add();
      if (config_.trace != nullptr) {
        config_.trace->record(sim_.now(), trace::DeliverEvent{config_.id, src, frame.ssn,
                                                              res.rsn, inc_, false, frame.inc});
      }
      snapshot_.observe_delivery(src);
      app_->on_message(*ctx_, src, frame.payload);
    }
    // Stale/duplicate held frames just evaporate; out-of-order cannot
    // happen for exactly watermark+1.
  }
  if (chan->second.empty()) held_ooo_.erase(chan);
}

void Node::drain_blocked() {
  while (!delivery_blocked_ && !blocked_queue_.empty()) {
    auto [src, frame] = std::move(blocked_queue_.front());
    blocked_queue_.pop_front();
    try_deliver_app(src, frame);
  }
}

void Node::drain_pending_fresh() {
  while (!recovering_ && !pending_fresh_.empty()) {
    auto [src, frame] = std::move(pending_fresh_.front());
    pending_fresh_.pop_front();
    if (delivery_blocked_) {
      blocked_queue_.emplace_back(src, std::move(frame));
    } else {
      try_deliver_app(src, frame);
    }
  }
}

// --- send path -------------------------------------------------------------

void Node::app_send(ProcessId to, Bytes payload) {
  RR_CHECK_MSG(alive_ && started_, "application sends require a started process");
  const std::size_t payload_bytes = payload.size();
  auto res = engine_.make_frame(to, std::move(payload), inc_);
  metrics_.counter("app.sent").add();
  metrics_.counter("app.payload_bytes").add(payload_bytes);
  metrics_.counter("fbl.piggyback_dets").add(res.piggyback_count);
  metrics_.counter("fbl.piggyback_bytes").add(res.piggyback_bytes);

  const bool suppressed =
      recovering_ && res.ssn <= fbl::watermark_of(suppress_marks_, to);
  if (config_.trace != nullptr) {
    config_.trace->record(sim_.now(),
                          trace::SendEvent{config_.id, to, res.ssn, inc_, !suppressed});
  }
  if (suppressed) {
    // Regenerated send already delivered at `to` before our crash: the
    // send log is refilled, the wire stays quiet.
    metrics_.counter("replay.sends_suppressed").add();
    return;
  }
  if (recovering_) metrics_.counter("replay.sends_transmitted").add();
  transmit_app_frame(to, std::move(res));
}

void Node::transmit_app_frame(ProcessId to, fbl::LoggingEngine::SendResult&& res) {
  std::vector<fbl::Determinant> attached = std::move(res.attached);
  transport_.send(to, std::move(res.frame));
  if (attached.empty()) return;
  const std::uint64_t msg = transport_.last_sent_msg(to);
  if (msg == 0) {
    // The frame bypassed the channel machinery (raw peer): handover is
    // delivery again, as on the perfect fabric.
    engine_.confirm_piggyback(to, attached);
    return;
  }
  pending_marks_[to].push_back(PendingMarks{msg, std::move(attached)});
}

void Node::confirm_piggyback_marks(ProcessId dst, std::uint64_t msg) {
  const auto it = pending_marks_.find(dst);
  if (it == pending_marks_.end()) return;
  auto& queue = it->second;
  while (!queue.empty() && queue.front().msg <= msg) {
    engine_.confirm_piggyback(dst, queue.front().dets);
    metrics_.counter("fbl.piggyback_confirms").add(queue.front().dets.size());
    queue.pop_front();
  }
  if (queue.empty()) pending_marks_.erase(it);
}

void Node::start_snapshot(std::uint64_t id) {
  RR_CHECK_MSG(alive_ && started_ && !recovering_,
               "snapshots are a failure-free-operation facility");
  snapshot_.initiate(id);
}

std::uint64_t Node::commit_output(Bytes payload) {
  RR_CHECK_MSG(alive_ && started_, "output commit requires a started process");
  return outputs_.commit(std::move(payload));
}

void Node::send_control(ProcessId to, const ControlMessage& m) {
  const std::size_t bytes = transport_.send(to, recovery::encode_control(m));
  if (bytes == 0) return;
  metrics_.counter("recovery.ctrl_msgs").add();
  metrics_.counter("recovery.ctrl_bytes").add(bytes);
  metrics_.counter(std::string("recovery.msg.") + recovery::control_name(m)).add();
}

void Node::broadcast_control(const ControlMessage& m) {
  for (const ProcessId pid : network_.attached()) {
    if (pid != config_.id) send_control(pid, m);
  }
}

void Node::handle_replay_request(ProcessId src, const recovery::ReplayRequest& req) {
  recovery::ReplayData data;
  for (const Ssn ssn : req.ssns) {
    const Bytes* payload = engine_.send_log().find(src, ssn);
    if (payload == nullptr) {
      // Regenerates later (post-checkpoint send of ours) or lost beyond f.
      metrics_.counter("recovery.replay_misses").add();
      continue;
    }
    data.items.push_back(recovery::ReplayData::Item{ssn, *payload});
  }
  if (!data.items.empty()) send_control(src, data);
}

void Node::on_install(const recovery::DepInstall& install) {
  if (!recovering_) return;
  for (const auto& [pid, marks] : install.live_marks) {
    fbl::raise_watermark(suppress_marks_, pid, fbl::watermark_of(marks, config_.id));
  }
  engine_.det_log().absorb(install.dets, config_.id);
  if (current_recovery_ && current_recovery_->installed_at == 0) {
    current_recovery_->installed_at = sim_.now();
  }
  if (needs_onstart_replay_) {
    needs_onstart_replay_ = false;
    app_->on_start(*ctx_);
  }
  if (config_.recovery.phase_hook && !replay_.installed()) {
    trace::PhaseEventInfo info;
    info.pid = config_.id;
    info.phase = trace::PhaseId::kReplayStarted;
    info.round = install.round;
    info.ord = recovery_.ord();
    info.subject = config_.id;
    config_.recovery.phase_hook(info);
  }
  // Schedule = own receipts known post-merge; payload sources resolve via
  // ReplayRequest (live or restored senders answer; recovering senders'
  // regenerated traffic fills the rest).
  replay_.install(engine_.det_log().slice_for(fbl::holder_bit(config_.id)), engine_.rsn(), {});
  // A second install (fail-over leader) may have extended the schedule
  // after payloads already arrived buffered as fresh; recheck them.
  for (auto it = pending_fresh_.begin(); it != pending_fresh_.end();) {
    if (replay_.needs(it->first, it->second.ssn)) {
      replay_.offer(it->first, it->second.ssn, std::move(it->second.payload));
      it = pending_fresh_.erase(it);
    } else {
      ++it;
    }
  }
}

void Node::on_peer_recovered(ProcessId peer, const recovery::RecoveryComplete& m) {
  engine_.det_log().forget_holder(peer, m.rsn);
  if (recovering_ && replay_.installed()) replay_.on_source_recovered(peer);
  if (!alive_ || !started_) return;
  // Retransmit everything the recovered peer never delivered from us.
  const Ssn mark = fbl::watermark_of(m.recv_marks, config_.id);
  for (const auto& entry : engine_.send_log().entries_after(peer, mark)) {
    auto rt = engine_.retransmit_frame(peer, entry.ssn, inc_);
    if (!rt) continue;
    metrics_.counter("recovery.retransmits").add();
    transmit_app_frame(peer, std::move(*rt));
  }
}

void Node::set_delivery_blocked(bool blocked) {
  if (blocked == delivery_blocked_) return;
  delivery_blocked_ = blocked;
  if (blocked) {
    metrics_.counter("recovery.block_episodes").add();
    blocked_.begin(sim_.now());
  } else {
    blocked_.end(sim_.now());
    drain_blocked();
  }
}

// --- maintenance -----------------------------------------------------------

void Node::take_checkpoint() {
  if (!alive_ || !started_ || recovering_) return;
  fbl::Checkpoint cp = engine_.make_checkpoint(app_->snapshot());
  cp.app_started = true;
  const Rsn rsn = cp.rsn;
  const fbl::Watermarks marks = cp.recv_marks;
  Bytes blob = cp.encode();
  metrics_.counter("ckpt.taken").add();
  metrics_.counter("ckpt.bytes").add(blob.size());
  const auto epoch = epoch_;
  const Time snapped_at = sim_.now();
  // Determinant blocks written before this snapshot are now subsumed by it.
  std::vector<std::string> dead_blocks = det_blocks_written_;
  ckpts_.save(std::move(blob), [this, epoch, rsn, marks, dead_blocks,
                                snapped_at](std::uint64_t) {
    // The commit belongs to the stable medium: a write queued before a
    // crash still completes (and restores will find it), so the trace
    // records it regardless of the node's fate. Timestamped at the
    // snapshot cut — sends after it are not in the image.
    if (config_.trace != nullptr) {
      config_.trace->record(snapped_at, trace::CheckpointEvent{config_.id, rsn});
    }
    if (epoch != epoch_ || !alive_) return;
    fbl::CkptNoticeFrame notice{rsn, marks};
    const Bytes frame = notice.encode();
    for (const ProcessId pid : processes_) {
      if (pid != config_.id) transport_.send(pid, BufferPool::global().copy_of(frame));
    }
    // Self-GC: our own receipts up to rsn are subsumed by the checkpoint.
    engine_.det_log().prune_dest(config_.id, rsn);
    for (const auto& key : dead_blocks) {
      storage_.erase(key, nullptr);
      std::erase(det_blocks_written_, key);
    }
  });
}

void Node::flush_unstable_dets() {
  if (!alive_ || !started_ || recovering_ || det_flush_inflight_) return;
  const auto dets = engine_.det_log().unstable();
  if (dets.empty()) return;
  BufWriter w;
  w.varint(dets.size());
  for (const auto& d : dets) d.encode(w);
  const std::string key = det_block_key(det_block_seq_++);
  det_flush_inflight_ = true;
  const auto epoch = epoch_;
  storage_.write(key, std::move(w).take(), [this, epoch, key, dets] {
    if (epoch != epoch_) return;
    det_flush_inflight_ = false;
    det_blocks_written_.push_back(key);
    metrics_.counter("fbl.dets_flushed").add(dets.size());
    for (const auto& d : dets) engine_.det_log().add_holders(d, fbl::kStableHolder);
    outputs_.on_stability_changed();
  });
}

void Node::send_heartbeats() {
  if (!alive_) return;
  // Heartbeats stay raw: retransmitting a liveness proof after the silence
  // window would claim liveness for an interval the node never proved.
  const Bytes frame = fbl::HeartbeatFrame{inc_}.encode();
  for (const ProcessId pid : processes_) {
    if (pid != config_.id) transport_.send_raw(pid, BufferPool::global().copy_of(frame));
  }
}

}  // namespace rr::runtime
