// rrcheck — deterministic fault-schedule explorer for the FBL recovery
// protocol.
//
// Drives the simulator through a seeded matrix of fault schedules (timed
// crashes, crashes pinned to protocol phase boundaries, packet drops,
// delays, stale stragglers, probabilistic link loss, duplication windows
// and partition/flap schedules), then feeds every run's structured trace
// through the history checker's proof-derived oracles V1–V9. Lossy and
// partitioned schedules route protocol traffic through the reliable
// transport, whose exactly-once guarantee is V9's subject. On a failure
// the schedule is shrunk to a minimal repro and printed as a single
// `--replay` line that re-executes the run bit-identically.
//
// Examples:
//   rrcheck --smoke                 bounded 64-schedule sweep (tier-1 CI)
//   rrcheck --sweep --jobs 8        the full matrix (>= 10000 schedules) on a
//                                   work-stealing pool of 8 sim instances;
//                                   reports are byte-identical to --jobs 1
//   rrcheck --seed-bug              arm the seeded skip-gather-restart bug;
//                                   succeeds iff it is caught and shrunk
//   rrcheck --replay seed=7,n=4,f=2,alg=nonblocking,schedule=crash:1@2000000000
//   rrcheck --list --max-runs 20    print schedules without running them
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/explorer.hpp"
#include "common/log.hpp"
#include "exec/work_steal.hpp"
#include "obs/ledger.hpp"

using namespace rr;

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "rrcheck — deterministic fault-schedule explorer\n\n"
      "  --smoke              bounded sweep (64 schedules; CI tier-1 target)\n"
      "  --sweep              full schedule matrix (>= 10000 runs)\n"
      "  --seed-bug           arm the seeded skip-gather-restart protocol bug;\n"
      "                       exit 0 iff the explorer catches and shrinks it\n"
      "  --replay LINE        re-execute one schedule (the format printed on\n"
      "                       failure); exit 0 iff the run passes V1-V9\n"
      "  --list               print the matrix schedules without running\n"
      "  --unreliable         restrict the matrix to lossy/partition schedules\n"
      "                       (the ones that exercise the reliable transport)\n"
      "  --scale              restrict the matrix to gather-tree schedules\n"
      "                       (arity set; treecrash relay-failure coordinates)\n"
      "  --seeds N            seeds per grid cell (default 64)\n"
      "  --jobs N             worker threads for --sweep/--smoke/--seed-bug\n"
      "                       (default: hardware concurrency; 1 = serial).\n"
      "                       Reports and --replay lines are byte-identical\n"
      "                       for every N\n"
      "  --max-runs N         truncate the matrix to N schedules\n"
      "  --keep-going         do not stop at the first failure\n"
      "  --verbose            one line per run\n"
      "  --debug              protocol debug logging, and with --replay also\n"
      "                       write the span timeline (rrcheck_trace.json)\n"
      "  --trace-out FILE     with --replay: write the run's span timeline as\n"
      "                       Chrome/Perfetto trace_event JSON\n"
      "  --metrics-out FILE   with --replay: write the run's counters + cost-\n"
      "                       ledger breakdown as JSON; with sweeps: write the\n"
      "                       matrix-aggregated per-category ledger (byte-\n"
      "                       identical for every --jobs value)\n"
      "  --help               this text\n");
  std::exit(code);
}

struct Options {
  enum class Mode { kSmoke, kSweep, kSeedBug, kReplay, kList } mode{Mode::kSmoke};
  std::string replay_line;
  std::uint64_t seeds = 64;
  unsigned jobs = 0;  // 0 = hardware concurrency
  std::uint64_t max_runs = 0;
  bool unreliable_only = false;
  bool scale_only = false;
  bool keep_going = false;
  bool verbose = false;
  bool debug = false;
  std::string trace_out;
  std::string metrics_out;
};

/// Write `body` to `path`; returns false (after a stderr note) on failure.
bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "rrcheck: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool mode_set = false;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      usage(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--smoke") {
      opt.mode = Options::Mode::kSmoke;
      mode_set = true;
    } else if (arg == "--sweep") {
      opt.mode = Options::Mode::kSweep;
      mode_set = true;
    } else if (arg == "--seed-bug") {
      opt.mode = Options::Mode::kSeedBug;
      mode_set = true;
    } else if (arg == "--replay") {
      opt.mode = Options::Mode::kReplay;
      opt.replay_line = need_value(i);
      mode_set = true;
    } else if (arg == "--list") {
      opt.mode = Options::Mode::kList;
      mode_set = true;
    } else if (arg == "--seeds") {
      opt.seeds = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 10));
    } else if (arg == "--max-runs") {
      opt.max_runs = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--unreliable") {
      opt.unreliable_only = true;
    } else if (arg == "--scale") {
      opt.scale_only = true;
    } else if (arg == "--keep-going") {
      opt.keep_going = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--debug") {
      opt.debug = true;
      logging::set_level(LogLevel::kDebug);
    } else if (arg == "--trace-out") {
      opt.trace_out = need_value(i);
    } else if (arg == "--metrics-out") {
      opt.metrics_out = need_value(i);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(2);
    }
  }
  if (!mode_set) usage(2);
  return opt;
}

int run_replay(const Options& opt) {
  check::FaultSchedule schedule;
  if (!check::FaultSchedule::parse(opt.replay_line, schedule)) {
    std::fprintf(stderr, "rrcheck: cannot parse replay line: %s\n",
                 opt.replay_line.c_str());
    return 2;
  }
  std::printf("replaying %s\n", schedule.format().c_str());
  // --debug without an explicit --trace-out still lands the span timeline
  // somewhere predictable.
  std::string trace_path = opt.trace_out;
  if (trace_path.empty() && opt.debug) trace_path = "rrcheck_trace.json";
  check::RunCapture capture;
  capture.want_trace_json = !trace_path.empty();
  capture.want_metrics_json = !opt.metrics_out.empty();
  const check::RunOutcome outcome = check::ScheduleExplorer::run(schedule, &capture);
  std::printf("  terminated=%s  recoveries=%llu  gather_restarts=%llu  "
              "phase_events=%llu  injections=%llu  state_hash=%016llx\n",
              outcome.terminated ? "yes" : "NO",
              static_cast<unsigned long long>(outcome.recoveries),
              static_cast<unsigned long long>(outcome.gather_restarts),
              static_cast<unsigned long long>(outcome.phase_events),
              static_cast<unsigned long long>(outcome.injections_applied),
              static_cast<unsigned long long>(outcome.state_hash));
  std::printf("  phases:");
  for (std::size_t i = 0; i < outcome.phase_count.size(); ++i) {
    if (outcome.phase_count[i] == 0) continue;
    std::printf(" %s=%u", trace::to_string(static_cast<trace::PhaseId>(i)),
                outcome.phase_count[i]);
  }
  std::printf("\n");
  std::printf("  checker: %s\n", outcome.check.summary().c_str());
  for (const std::string& v : outcome.check.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
  if (!outcome.flight_dump.empty()) {
    std::printf("%s", outcome.flight_dump.c_str());
  }
  if (!trace_path.empty()) {
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "rrcheck: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::fwrite(capture.trace_json.data(), 1, capture.trace_json.size(), f);
    std::fclose(f);
    std::printf("span timeline written to %s (load at ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (!opt.metrics_out.empty()) {
    if (!write_file(opt.metrics_out, capture.metrics_json)) return 2;
    std::printf("metrics written to %s\n", opt.metrics_out.c_str());
  }
  std::printf("%s\n", outcome.ok() ? "PASS" : "FAIL");
  return outcome.ok() ? 0 : 1;
}

int run_explore(const Options& opt) {
  check::ExploreOptions eo;
  eo.seeds_per_cell = opt.seeds;
  eo.max_runs = opt.max_runs;
  eo.stop_on_failure = !opt.keep_going;
  eo.seed_bug = opt.mode == Options::Mode::kSeedBug;
  eo.unreliable_only = opt.unreliable_only;
  eo.scale_only = opt.scale_only;
  eo.jobs = opt.jobs;
  if (opt.mode == Options::Mode::kSmoke && eo.max_runs == 0) eo.max_runs = 64;

  if (opt.mode == Options::Mode::kList) {
    for (const auto& s : check::ScheduleExplorer::matrix(eo)) {
      std::printf("%s\n", s.format().c_str());
    }
    return 0;
  }

  std::uint64_t done = 0;
  // Per-category byte/frame totals across the whole sweep. on_run fires in
  // canonical matrix order whatever --jobs is, so the aggregate (and the
  // file written below) is byte-identical for every worker count — the
  // rrcheck_metrics_parity CI test cmp's exactly that.
  std::array<std::uint64_t, obs::kCostCategoryCount> sweep_bytes{};
  std::array<std::uint64_t, obs::kCostCategoryCount> sweep_frames{};
  eo.on_run = [&](const check::FaultSchedule& s, const check::RunOutcome& o) {
    ++done;
    for (std::size_t c = 0; c < obs::kCostCategoryCount; ++c) {
      sweep_bytes[c] += o.ledger_bytes[c];
      sweep_frames[c] += o.ledger_frames[c];
    }
    if (opt.verbose) {
      std::printf("[%5llu] %-90s %s\n", static_cast<unsigned long long>(done),
                  s.format().c_str(), o.brief().c_str());
    } else if (done % 100 == 0) {
      std::printf("  ... %llu schedules explored\n",
                  static_cast<unsigned long long>(done));
      std::fflush(stdout);
    }
  };

  // Worker count goes to stderr so sweep reports on stdout stay
  // byte-identical across --jobs values (that identity is CI-enforced).
  std::fprintf(stderr, "rrcheck: %u worker(s)\n",
               eo.jobs == 0 ? rr::exec::default_jobs() : eo.jobs);
  const check::ExploreResult result = check::ScheduleExplorer::explore(eo);
  std::printf("explored %llu schedules, %llu injections applied, %llu failures\n",
              static_cast<unsigned long long>(result.runs),
              static_cast<unsigned long long>(result.injections_applied),
              static_cast<unsigned long long>(result.failures));

  if (result.failures > 0) {
    std::printf("first failure: %s\n  %s\n", result.first_failure.format().c_str(),
                result.first_outcome.brief().c_str());
    std::printf("shrunk to %zu injection(s): %s\n", result.shrunk.injections.size(),
                result.shrunk_outcome.brief().c_str());
    std::printf("%s\n", result.replay.c_str());
    if (!result.shrunk_outcome.flight_dump.empty()) {
      std::printf("%s", result.shrunk_outcome.flight_dump.c_str());
    }
  }

  if (!opt.metrics_out.empty()) {
    std::string json = "{\n  \"runs\": " + std::to_string(done) +
                       ",\n  \"categories\": {\n";
    for (std::size_t c = 0; c < obs::kCostCategoryCount; ++c) {
      json += "    \"";
      json += obs::to_string(static_cast<obs::CostCategory>(c));
      json += "\": {\"bytes\": " + std::to_string(sweep_bytes[c]) +
              ", \"frames\": " + std::to_string(sweep_frames[c]) + "}";
      json += c + 1 < obs::kCostCategoryCount ? ",\n" : "\n";
    }
    json += "  }\n}\n";
    if (!write_file(opt.metrics_out, json)) return 2;
    // stderr, like the worker count: sweep stdout must stay byte-identical
    // whatever the output path or --jobs value (CI cmp's it).
    std::fprintf(stderr, "aggregate ledger written to %s\n", opt.metrics_out.c_str());
  }

  if (opt.mode == Options::Mode::kSeedBug) {
    // Inverted expectation: the seeded bug *must* be caught and the shrunk
    // schedule must still fail when re-executed.
    const bool caught = result.failures > 0 && !result.shrunk_outcome.ok();
    std::printf("%s\n", caught ? "PASS (seeded bug caught and shrunk)"
                               : "FAIL (seeded bug escaped the explorer)");
    return caught ? 0 : 1;
  }
  std::printf("%s\n", result.ok() ? "PASS" : "FAIL");
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (opt.mode == Options::Mode::kReplay) return run_replay(opt);
  return run_explore(opt);
}
