// Parallel exploration regression tests.
//
// The work-stealing sweep is only sound if a simulation instance is a pure
// function of its schedule with zero cross-instance state: these tests pin
// (a) that two sims running *concurrently* on different threads produce
// traces identical to back-to-back serial runs (guards the thread-local
// BufferPool, logging clock and any future hidden static), (b) that
// explore() is bit-identical across jobs counts, and (c) that parallel
// speculative shrinking converges to the same minimal repro as serial
// shrinking on the planted seed bug.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/explorer.hpp"
#include "check/schedule.hpp"

namespace rr {
namespace {

using check::ExploreOptions;
using check::ExploreResult;
using check::FaultSchedule;
using check::Injection;
using check::RunCapture;
using check::RunOutcome;
using check::ScheduleExplorer;

FaultSchedule crash_schedule(std::uint32_t n, std::uint32_t f, std::uint64_t seed,
                             std::uint32_t victim) {
  FaultSchedule s;
  s.n = n;
  s.f = f;
  s.seed = seed;
  Injection inj;
  inj.kind = Injection::Kind::kCrashAt;
  inj.victim = ProcessId{victim};
  inj.at = seconds(2);
  s.injections = {inj};
  return s;
}

/// Everything an outcome exposes that a sweep report is built from, plus
/// the flight dump a failing run carries and, where captured, every
/// recorded span.
struct Fingerprint {
  bool terminated;
  bool check_ok;
  Time finished_at;
  std::uint64_t phase_events;
  std::uint64_t injections_applied;
  std::uint64_t state_hash;
  std::string flight_dump;
  std::string trace_json;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(const RunOutcome& o, std::string trace_json = {}) {
  return {o.terminated,  o.check.ok,     o.finished_at, o.phase_events, o.injections_applied,
          o.state_hash, o.flight_dump, std::move(trace_json)};
}

/// Run `s` and fingerprint it with its spans exported.
Fingerprint run_with_spans(const FaultSchedule& s) {
  RunCapture capture;
  capture.want_trace_json = true;
  const RunOutcome o = ScheduleExplorer::run(s, &capture);
  return fingerprint(o, std::move(capture.trace_json));
}

TEST(ParallelExplorerTest, ConcurrentSimsMatchBackToBackSerialRuns) {
  // Two different clusters with different seeds, so any shared mutable
  // state (a common buffer pool free list, a process-wide clock) would
  // cross-contaminate rather than coincidentally agree.
  const FaultSchedule sa = crash_schedule(4, 2, 11, 0);
  const FaultSchedule sb = crash_schedule(4, 1, 23, 1);

  const Fingerprint serial_a = run_with_spans(sa);
  const Fingerprint serial_b = run_with_spans(sb);
  ASSERT_FALSE(serial_a.trace_json.empty());
  ASSERT_FALSE(serial_b.trace_json.empty());

  Fingerprint conc_a, conc_b;
  {
    std::thread ta([&] { conc_a = run_with_spans(sa); });
    std::thread tb([&] { conc_b = run_with_spans(sb); });
    ta.join();
    tb.join();
  }
  EXPECT_EQ(conc_a, serial_a);
  EXPECT_EQ(conc_b, serial_b);
}

TEST(ParallelExplorerTest, ExploreIsBitIdenticalAcrossJobs) {
  // A small slice of the real matrix; the on_run stream is exactly what the
  // rrcheck sweep report prints, so equality here is report byte-identity.
  auto sweep = [](unsigned jobs) {
    ExploreOptions eo;
    eo.seeds_per_cell = 1;
    eo.max_runs = 6;
    eo.jobs = jobs;
    std::vector<std::string> stream;
    eo.on_run = [&stream](const FaultSchedule& s, const RunOutcome& o) {
      stream.push_back(s.format() + " | " + o.brief() + " | " +
                       std::to_string(o.state_hash) + " | " +
                       std::to_string(o.injections_applied));
    };
    const ExploreResult r = ScheduleExplorer::explore(eo);
    stream.push_back("runs=" + std::to_string(r.runs) +
                     " failures=" + std::to_string(r.failures) +
                     " injections=" + std::to_string(r.injections_applied) +
                     " replay=" + r.replay);
    return stream;
  };
  const auto serial = sweep(1);
  ASSERT_EQ(serial.size(), 7u);  // 6 runs + the summary line
  EXPECT_EQ(sweep(4), serial);
}

TEST(ParallelExplorerTest, LossySliceIsBitIdenticalAcrossJobs) {
  // Same identity check over the unreliable-fabric slice of the matrix: the
  // stateless loss/dup draws and the transport's retransmission timers must
  // not leak any cross-instance or cross-thread state into the report.
  auto sweep = [](unsigned jobs) {
    ExploreOptions eo;
    eo.seeds_per_cell = 1;
    eo.max_runs = 4;
    eo.jobs = jobs;
    eo.unreliable_only = true;
    std::vector<std::string> stream;
    eo.on_run = [&stream](const FaultSchedule& s, const RunOutcome& o) {
      stream.push_back(s.format() + " | " + o.brief() + " | " +
                       std::to_string(o.state_hash) + " | " +
                       std::to_string(o.injections_applied));
    };
    const ExploreResult r = ScheduleExplorer::explore(eo);
    stream.push_back("runs=" + std::to_string(r.runs) +
                     " failures=" + std::to_string(r.failures) +
                     " injections=" + std::to_string(r.injections_applied));
    return stream;
  };
  const auto serial = sweep(1);
  ASSERT_EQ(serial.size(), 5u);  // 4 runs + the summary line
  EXPECT_TRUE(serial.back().find("failures=0") != std::string::npos) << serial.back();
  EXPECT_EQ(sweep(3), serial);
}

TEST(ParallelExplorerTest, ParallelShrinkMatchesSerialOnSeededBug) {
  ExploreOptions eo;
  eo.seed_bug = true;
  eo.seeds_per_cell = 1;
  eo.shrink_budget = 12;
  eo.jobs = 1;
  const ExploreResult serial = ScheduleExplorer::explore(eo);
  ASSERT_GE(serial.failures, 1u) << "seeded bug escaped the serial explorer";

  eo.jobs = 3;
  const ExploreResult parallel = ScheduleExplorer::explore(eo);
  ASSERT_GE(parallel.failures, 1u) << "seeded bug escaped the parallel explorer";

  // Same failing schedule found, shrunk to the same minimal repro, printed
  // as the same --replay line.
  EXPECT_EQ(parallel.first_failure, serial.first_failure);
  EXPECT_EQ(parallel.shrunk, serial.shrunk);
  EXPECT_EQ(parallel.replay, serial.replay);
  EXPECT_EQ(fingerprint(parallel.shrunk_outcome), fingerprint(serial.shrunk_outcome));

  // And the direct shrink entry point agrees for a spread of job counts.
  const FaultSchedule direct = ScheduleExplorer::shrink(serial.first_failure, 12, 2);
  EXPECT_EQ(direct, serial.shrunk);
}

}  // namespace
}  // namespace rr
