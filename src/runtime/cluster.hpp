// Cluster — builds and drives a whole simulated system.
//
// Owns the simulator, the network, the never-failing ord service and one
// Node per process; provides failure injection and the query surface the
// tests and benches use (blocked time, recovery timelines, combined state
// hashes). Everything is deterministic in (config, seed).
#pragma once

#include <memory>
#include <vector>

#include "app/application.hpp"
#include "common/types.hpp"
#include "detect/failure_detector.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "obs/ledger.hpp"
#include "obs/span.hpp"
#include "recovery/ord_service.hpp"
#include "recovery/recovery_manager.hpp"
#include "runtime/node.hpp"
#include "sim/simulator.hpp"
#include "storage/stable_storage.hpp"
#include "trace/history_checker.hpp"
#include "trace/trace.hpp"

namespace rr::runtime {

struct ClusterConfig {
  std::uint32_t num_processes{8};
  /// Failures to tolerate (FBL parameter); f == num_processes selects the
  /// stable-storage (Manetho-style) instance.
  std::uint32_t f{2};
  recovery::Algorithm algorithm{recovery::Algorithm::kNonBlocking};
  std::uint64_t seed{1};
  /// Piggyback pruning (default on); off = the un-pruned baseline where
  /// every frame carries the sender's whole active determinant set.
  bool prune_piggyback{true};

  net::NetworkConfig net;
  /// Reliable transport between app processes; enable when net.faults (or a
  /// schedule's loss/partition coordinates) degrade the fabric.
  net::TransportConfig transport;
  storage::StorageConfig storage;
  detect::DetectorConfig detector;
  recovery::RecoveryConfig recovery;  // .algorithm is overridden by `algorithm`

  Duration checkpoint_period = seconds(10);
  Duration supervisor_restart_delay = seconds(2);
  Duration replay_delivery_cost = microseconds(50);
  Duration det_flush_period = milliseconds(250);
  /// Record a structured protocol trace (memory ∝ traffic; off by default).
  bool enable_trace{false};
  /// Record causal spans (recovery phases, control-packet transit,
  /// stable-storage intervals) into an obs::SpanTracer; off by default.
  bool enable_spans{false};
  /// Flight-recorder ring size per node when enable_spans is set.
  std::uint32_t flight_capacity{64};
  /// Attribute every wire byte to a cost category (obs::CostLedger) and arm
  /// the V10 cost-conservation oracle in check_history(); off by default.
  bool enable_ledger{false};
  /// Timeline sampling period for the ledger (sim-time driven); 0 keeps the
  /// byte ledger without a timeline — and without any extra sim events, so
  /// replay schedules recorded before the ledger existed stay valid.
  Duration ledger_sample_every{0};
};

class Cluster {
 public:
  Cluster(ClusterConfig config, const app::AppFactory& factory);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Boot every node (asynchronous; run the simulation to complete it).
  void start();

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] metrics::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const metrics::Registry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }

  [[nodiscard]] Node& node(ProcessId id);
  [[nodiscard]] Node& node(std::uint32_t index) { return node(ProcessId{index}); }
  [[nodiscard]] const std::vector<ProcessId>& pids() const noexcept { return pids_; }
  [[nodiscard]] const recovery::OrdService& ord_service() const noexcept { return ord_; }

  /// Schedule a crash of `id` at absolute time `t`. Crashing a process
  /// that is already down re-fails its restart machinery: any in-progress
  /// restore is abandoned and the supervisor delay starts over (this is
  /// how "the leader fails during recovery" scenarios are driven).
  void crash_at(ProcessId id, Time t);

  void run_until(Time t) { sim_.run_until(t); }
  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

  // --- queries ------------------------------------------------------------

  /// Every process alive, started, not recovering, not blocked.
  [[nodiscard]] bool all_idle() const;
  [[nodiscard]] bool any_recovering() const;

  [[nodiscard]] Duration total_blocked_time() const;
  [[nodiscard]] Duration max_blocked_time() const;

  /// Completed recoveries across all nodes, ordered by completion time.
  [[nodiscard]] std::vector<RecoveryTimeline> all_recoveries() const;

  /// Combined digest of all application states (determinism oracle).
  [[nodiscard]] std::uint64_t state_hash() const;

  /// Total application messages delivered across the cluster.
  [[nodiscard]] std::uint64_t total_app_delivered() const;

  /// Structured protocol trace (nullptr unless enable_trace).
  [[nodiscard]] const trace::TraceLog* trace() const noexcept { return trace_.get(); }

  /// Causal span tracer (nullptr unless enable_spans).
  [[nodiscard]] const obs::SpanTracer* spans() const noexcept { return tracer_.get(); }

  /// Cost-attribution ledger (nullptr unless enable_ledger).
  [[nodiscard]] const obs::CostLedger* ledger() const noexcept { return ledger_.get(); }

  /// Append one timeline sample at the current sim time (requires
  /// enable_ledger). The sampler timer calls this on its cadence; callers
  /// invoke it once more after the run so the final sample's blocked-time
  /// column equals the scalar total_blocked_time() exactly.
  void sample_ledger_now();

  /// Run the global history checker on the recorded trace (requires
  /// enable_trace).
  [[nodiscard]] trace::CheckResult check_history() const;

  /// ProcessId of the never-failing ord/registry service — one past the
  /// holder-mask capacity so it can never collide with an app process
  /// (pids 0..fbl::kMaxProcesses-1; the service holds no determinants).
  static constexpr ProcessId kOrdServiceId{1025};

  /// Observe protocol phase boundaries (see trace/phase_hook.hpp) from
  /// every node and the ord service. The probe runs in addition to trace
  /// recording; the fault-schedule explorer uses it to place crashes at
  /// exact protocol states. Settable any time, including before start().
  void set_phase_probe(trace::PhaseHook probe) { phase_probe_ = std::move(probe); }

 private:
  ClusterConfig config_;
  sim::Simulator sim_;
  metrics::Registry metrics_;
  net::Network network_;
  recovery::OrdService ord_;
  std::unique_ptr<trace::TraceLog> trace_;
  std::unique_ptr<obs::SpanTracer> tracer_;
  std::unique_ptr<obs::CostLedger> ledger_;
  std::unique_ptr<sim::RepeatingTimer> ledger_timer_;
  std::vector<ProcessId> pids_;
  std::vector<std::unique_ptr<Node>> nodes_;
  trace::PhaseHook phase_probe_;
};

}  // namespace rr::runtime
