// Deterministic fault-schedule explorer.
//
// ScheduleExplorer::run() executes one FaultSchedule: it builds a
// compressed-timescale cluster (the same constants the test suite uses),
// arms the phase probe and the network fault hook with the schedule's
// injections, drives the simulation to idle (or the deadline), and feeds
// the full structured trace through the history checker — including the
// proof-derived V7 (stale rejection) and V8 (leader-ordinal monotonicity)
// oracles, plus V9 (exactly-once application delivery under
// retransmission) for schedules that degrade the network fabric; those
// auto-enable the reliable transport and additionally audit its channel
// counters after the run. Everything is a pure function of the schedule,
// so any failure is replayable from its one-line form.
//
// explore() enumerates a seeded matrix of schedules (grid × seeds × fault
// variants) and runs each; on the first failure it invokes shrink(), a
// greedy minimiser that drops injections, halves delays and reduces the
// cluster, re-running the candidate after every mutation so the result is
// a *still-failing* minimal repro, printed as a single `--replay` line.
//
// With ExploreOptions::jobs > 1 the matrix is swept by a work-stealing
// pool of fully independent simulation instances (exec::WorkStealingPool;
// one kernel, RNG stream, metrics registry and span arena per worker).
// Every run is a pure function of its schedule, so parallelism changes
// only wall-clock time: outcomes are merged by a single consumer in
// canonical matrix order, making run counts, on_run callbacks, failure
// selection, shrink decisions and `--replay` lines bit-identical to a
// jobs=1 sweep. Shrinking likewise evaluates its fixed-order candidate
// batches as parallel speculative jobs and applies verdicts serially.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "obs/ledger.hpp"
#include "trace/history_checker.hpp"

namespace rr::check {

/// Everything observed from one schedule execution.
struct RunOutcome {
  /// Cluster reached all-idle (every process alive, recovered, unblocked)
  /// before the schedule's idle deadline. A wedged recovery shows up here.
  bool terminated{false};
  /// History-checker verdict over the full structured trace (V1–V9; the
  /// explorer appends transport-audit violations to V9 for lossy runs).
  trace::CheckResult check;
  Time finished_at{0};
  std::uint64_t phase_events{0};
  /// Global occurrence count per PhaseId (index by the enum's value).
  std::array<std::uint32_t, 16> phase_count{};
  std::uint64_t injections_applied{0};
  std::uint64_t recoveries{0};
  std::uint64_t gather_restarts{0};
  std::uint64_t state_hash{0};
  /// Cost-ledger category totals (obs::CostCategory order). Every run
  /// carries the ledger (it arms the V10 conservation oracle inside
  /// check_history), and explore() folds these in canonical matrix order —
  /// the aggregate rrcheck --metrics-out reports is therefore bit-identical
  /// for every --jobs value.
  std::array<std::uint64_t, obs::kCostCategoryCount> ledger_bytes{};
  std::array<std::uint64_t, obs::kCostCategoryCount> ledger_frames{};
  /// Flight-recorder excerpt (last spans per involved node, still-open
  /// spans flagged), captured before the cluster is torn down; empty when
  /// the run passed. A wedged recovery shows up as spans that never closed.
  std::string flight_dump;

  [[nodiscard]] bool ok() const { return terminated && check.ok; }
  /// "ok", "did not terminate", or the first checker violation.
  [[nodiscard]] std::string brief() const;
};

struct ExploreOptions {
  /// Truncate the matrix to this many runs (0 = the full matrix).
  std::uint64_t max_runs{0};
  /// Seeds per (n, f) grid cell.
  std::uint64_t seeds_per_cell{64};
  /// Arm the seeded skip-gather-restart bug in every generated schedule
  /// (and bias the matrix toward concurrent-failure scenarios that expose
  /// it). The explorer must then find, shrink and report a failure.
  bool seed_bug{false};
  /// Restrict the matrix to unreliable-fabric schedules (loss / lossburst /
  /// dup / partition / flap coordinates) — the stratified CI slice that
  /// exercises the reliable transport and the V9 oracle.
  bool unreliable_only{false};
  /// Restrict the matrix to scale schedules (gather-tree arity set, with
  /// treecrash coordinates) — the slice that exercises k-ary gather
  /// relaying and subtree re-parenting.
  bool scale_only{false};
  bool stop_on_failure{true};
  /// Shrink budget: schedule re-executions the minimiser may spend.
  std::uint32_t shrink_budget{64};
  /// Worker threads for the sweep and speculative shrinking. 1 = serial,
  /// 0 = hardware concurrency. Results are bit-identical for every value;
  /// only wall-clock time changes.
  unsigned jobs{1};
  /// Progress tap, called after every run — always from the calling
  /// thread, in canonical matrix order, whatever `jobs` is.
  std::function<void(const FaultSchedule&, const RunOutcome&)> on_run;
};

struct ExploreResult {
  std::uint64_t runs{0};
  std::uint64_t failures{0};
  std::uint64_t injections_applied{0};
  /// Populated iff failures > 0.
  FaultSchedule first_failure;
  RunOutcome first_outcome;
  FaultSchedule shrunk;
  RunOutcome shrunk_outcome;
  /// Self-contained repro for `shrunk` ("--replay seed=..,schedule=..").
  std::string replay;

  [[nodiscard]] bool ok() const { return failures == 0; }
};

/// Extra artifacts a caller may request from one run (the backing cluster
/// is destroyed before run() returns, so they must be captured inside).
struct RunCapture {
  /// Fill `trace_json` with the run's spans as Perfetto trace_event JSON.
  bool want_trace_json{false};
  std::string trace_json;
  /// Fill `metrics_json` with the run's counters + ledger breakdown
  /// (obs::export_metrics_json).
  bool want_metrics_json{false};
  std::string metrics_json;
};

class ScheduleExplorer {
 public:
  /// Execute one schedule; deterministic in the schedule alone.
  [[nodiscard]] static RunOutcome run(const FaultSchedule& schedule,
                                      RunCapture* capture = nullptr);

  /// Greedy minimisation of a failing schedule: try removing each
  /// injection, then halving/zeroing delays, then shrinking the cluster,
  /// keeping every mutation that still fails. Returns the smallest
  /// still-failing schedule found within the re-execution budget.
  ///
  /// Candidates are generated in a fixed order; with jobs > 1 each batch
  /// is evaluated as parallel speculative jobs whose verdicts are applied
  /// in that fixed order, with the budget charged only for the prefix a
  /// serial shrink would have consulted — the resulting minimal repro is
  /// therefore identical for every `jobs` value.
  [[nodiscard]] static FaultSchedule shrink(const FaultSchedule& schedule,
                                            std::uint32_t budget = 64,
                                            unsigned jobs = 1);

  /// The deterministic schedule matrix explore() runs.
  [[nodiscard]] static std::vector<FaultSchedule> matrix(const ExploreOptions& options);

  /// Run the matrix; shrink and report the first failure (if any).
  [[nodiscard]] static ExploreResult explore(const ExploreOptions& options);
};

}  // namespace rr::check
