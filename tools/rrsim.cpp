// rrsim — command-line driver for the FBL rollback-recovery simulator.
//
// Runs a configurable cluster + workload + crash schedule and reports the
// recovery behaviour; everything the benches measure, scriptable from the
// shell.
//
// Examples:
//   rrsim --nodes 8 --f 2 --crash 1@6.5 --crash 2@8.9
//   rrsim --algorithm blocking --workload bank --horizon 30 --metrics
//   rrsim --workload chain --nodes 4 --crash 0@0.025 --crash 1@0.029 --check
//   rrsim --paper-testbed --crash 1@6.5 --verbose
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "app/workloads.hpp"
#include "common/log.hpp"
#include "fbl/determinant.hpp"
#include "harness/experiments.hpp"
#include "harness/table.hpp"
#include "obs/perfetto.hpp"
#include "runtime/cluster.hpp"
#include "trace/history_checker.hpp"

using namespace rr;

namespace {

struct Options {
  std::uint32_t nodes = 8;
  std::uint32_t f = 2;
  recovery::Algorithm algorithm = recovery::Algorithm::kNonBlocking;
  std::string workload = "gossip";
  std::uint64_t seed = 1;
  double horizon_s = 20.0;
  double idle_deadline_s = 120.0;
  std::size_t pad_kib = 0;
  bool paper_testbed = false;
  bool metrics = false;
  bool check = false;
  bool trace_dump = false;
  bool verbose = false;
  std::string trace_out;
  std::string metrics_out;
  std::vector<std::pair<std::uint32_t, double>> crashes;  // pid @ seconds
};

[[noreturn]] void usage(int code) {
  std::printf(
      "rrsim — FBL rollback-recovery simulator\n\n"
      "  --nodes N            processes, 2..1024 (default 8)\n"
      "  --f F                failures to tolerate, 1..N; N selects the\n"
      "                       Manetho-style stable-logging instance (default 2)\n"
      "  --algorithm A        nonblocking | blocking | defer (default nonblocking)\n"
      "  --workload W         gossip | ring | bank | chain (default gossip)\n"
      "  --crash PID@SECS     schedule a crash (repeatable)\n"
      "  --seed S             RNG seed (default 1)\n"
      "  --horizon SECS       minimum simulated time (default 20)\n"
      "  --pad KIB            pad process images to this size\n"
      "  --paper-testbed      use the calibrated 1995 testbed parameters\n"
      "  --metrics            dump the full metrics registry\n"
      "  --check              record a trace and run the history checker\n"
      "  --trace-dump         print the first 200 trace events (implies --check)\n"
      "  --trace-out FILE     record causal spans and write them as\n"
      "                       Chrome/Perfetto trace_event JSON (with the cost\n"
      "                       ledger's counter tracks merged in)\n"
      "  --metrics-out FILE   write counters + per-category cost ledger +\n"
      "                       sampled timeline as JSON\n"
      "  --verbose            protocol-level logging\n"
      "  --help               this text\n");
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options opt;
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
    } else if (arg == "--nodes") {
      opt.nodes = static_cast<std::uint32_t>(std::atoi(need_value(i)));
    } else if (arg == "--f") {
      opt.f = static_cast<std::uint32_t>(std::atoi(need_value(i)));
    } else if (arg == "--algorithm") {
      const std::string v = need_value(i);
      if (v == "nonblocking") {
        opt.algorithm = recovery::Algorithm::kNonBlocking;
      } else if (v == "blocking") {
        opt.algorithm = recovery::Algorithm::kBlocking;
      } else if (v == "defer") {
        opt.algorithm = recovery::Algorithm::kDeferUnsafe;
      } else {
        std::fprintf(stderr, "unknown algorithm '%s'\n", v.c_str());
        usage(2);
      }
    } else if (arg == "--workload") {
      opt.workload = need_value(i);
    } else if (arg == "--crash") {
      const std::string v = need_value(i);
      const auto at = v.find('@');
      if (at == std::string::npos) {
        std::fprintf(stderr, "--crash expects PID@SECONDS, got '%s'\n", v.c_str());
        usage(2);
      }
      try {
        opt.crashes.emplace_back(static_cast<std::uint32_t>(std::stoul(v.substr(0, at))),
                                 std::stod(v.substr(at + 1)));
      } catch (const std::exception&) {
        std::fprintf(stderr, "--crash expects PID@SECONDS, got '%s'\n", v.c_str());
        usage(2);
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--horizon") {
      opt.horizon_s = std::atof(need_value(i));
    } else if (arg == "--pad") {
      opt.pad_kib = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (arg == "--paper-testbed") {
      opt.paper_testbed = true;
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--trace-dump") {
      opt.check = true;
      opt.trace_dump = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = need_value(i);
    } else if (arg == "--metrics-out") {
      opt.metrics_out = need_value(i);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      usage(2);
    }
  }
  return opt;
}

[[noreturn]] void reject(const std::string& why) {
  std::fprintf(stderr, "rrsim: %s\n", why.c_str());
  std::exit(2);
}

/// Rejects the cluster shapes and crash targets runtime::Cluster would
/// abort on, before one is built.
void validate(const Options& opt) {
  if (opt.nodes < 2 || opt.nodes > fbl::kMaxProcesses) {
    reject("--nodes must be in 2.." + std::to_string(fbl::kMaxProcesses) + ", got " +
           std::to_string(opt.nodes));
  }
  if (opt.f < 1 || opt.f > opt.nodes) {
    reject("--f must be in 1..N (N = --nodes), got " + std::to_string(opt.f));
  }
  for (const auto& [pid, secs] : opt.crashes) {
    if (pid >= opt.nodes) reject("--crash PID must be below --nodes, got " + std::to_string(pid));
    if (!std::isfinite(secs) || secs < 0) {
      reject("--crash time must be a non-negative number of seconds");
    }
  }
}

app::AppFactory make_workload(const Options& opt) {
  app::AppFactory inner;
  if (opt.workload == "gossip") {
    inner = [](ProcessId pid) {
      app::GossipConfig cfg;
      cfg.tokens_per_process = pid.value < 2 ? 1 : 0;
      cfg.seed = 42 + pid.value;
      return std::make_unique<app::GossipApp>(cfg);
    };
  } else if (opt.workload == "ring") {
    inner = [](ProcessId) { return std::make_unique<app::RingTokenApp>(app::RingConfig{}); };
  } else if (opt.workload == "bank") {
    inner = [](ProcessId) {
      app::BankConfig cfg;
      cfg.tokens_per_process = 1;
      cfg.ttl = 30'000;
      return std::make_unique<app::BankApp>(cfg);
    };
  } else if (opt.workload == "chain") {
    inner = [](ProcessId) { return std::make_unique<app::ChainApp>(app::ChainConfig{64}); };
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    usage(2);
  }
  if (opt.pad_kib == 0) return inner;
  return [inner, pad = opt.pad_kib * 1024](ProcessId pid) {
    return std::make_unique<app::PaddedApp>(inner(pid), pad);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  validate(opt);
  if (opt.verbose) logging::set_level(LogLevel::kDebug);

  runtime::ClusterConfig config =
      opt.paper_testbed
          ? harness::PaperSetup::testbed(opt.algorithm, opt.nodes, opt.f)
          : [&] {
              runtime::ClusterConfig c;
              c.num_processes = opt.nodes;
              c.f = opt.f;
              c.algorithm = opt.algorithm;
              return c;
            }();
  config.seed = opt.seed;
  config.enable_trace = opt.check;
  config.enable_spans = !opt.trace_out.empty();
  // Either export wants the cost ledger; the sampled timeline feeds both the
  // Perfetto counter tracks and the metrics JSON.
  config.enable_ledger = !opt.trace_out.empty() || !opt.metrics_out.empty();
  if (config.enable_ledger) config.ledger_sample_every = milliseconds(50);

  runtime::Cluster cluster(config, make_workload(opt));
  cluster.start();
  for (const auto& [pid, secs] : opt.crashes) {
    cluster.crash_at(ProcessId{pid}, static_cast<Time>(secs * 1e9));
  }

  cluster.run_until(static_cast<Time>(opt.horizon_s * 1e9));
  while (!cluster.all_idle() &&
         cluster.sim().now() < static_cast<Time>(opt.idle_deadline_s * 1e9)) {
    cluster.run_for(milliseconds(250));
  }

  std::printf("rrsim: %u nodes, f=%u, %s algorithm, workload=%s, seed=%llu\n", opt.nodes,
              opt.f, recovery::to_string(opt.algorithm), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  std::printf("simulated %s, %zu events, cluster %s\n",
              format_duration(cluster.sim().now()).c_str(), cluster.sim().events_executed(),
              cluster.all_idle() ? "idle" : "NOT IDLE");

  harness::Table nodes("processes", {"pid", "inc", "delivered", "blocked", "recoveries"});
  for (const ProcessId pid : cluster.pids()) {
    auto& node = cluster.node(pid);
    nodes.add_row({to_string(pid), std::to_string(node.incarnation()),
                   std::to_string(node.app_delivered()),
                   format_duration(node.blocked_time()),
                   std::to_string(node.recoveries().size())});
  }
  nodes.print();

  const auto recoveries = cluster.all_recoveries();
  if (!recoveries.empty()) {
    harness::Table t("recoveries",
                     {"inc", "crashed at", "detect", "restore", "gather", "replay", "total",
                      "replayed msgs"});
    for (const auto& r : recoveries) {
      t.add_row({std::to_string(r.inc), format_duration(r.crashed_at),
                 format_duration(r.detect()), format_duration(r.restore()),
                 format_duration(r.gather()), format_duration(r.replay()),
                 format_duration(r.total()), std::to_string(r.replayed)});
    }
    t.print();
  }

  const auto& m = cluster.metrics();
  std::printf("\ncontrol traffic: %llu msgs / %.1f KiB; gather restarts: %llu; "
              "retransmits: %llu; det gaps: %llu\n",
              static_cast<unsigned long long>(m.counter_value("recovery.ctrl_msgs")),
              static_cast<double>(m.counter_value("recovery.ctrl_bytes")) / 1024.0,
              static_cast<unsigned long long>(m.counter_value("recovery.gather_restarts")),
              static_cast<unsigned long long>(m.counter_value("recovery.retransmits")),
              static_cast<unsigned long long>(m.counter_value("recovery.det_gaps")));

  if (opt.metrics) {
    std::printf("\n-- metrics registry --\n%s", m.dump().c_str());
  }

  bool ok = cluster.all_idle();
  // Close the timeline with a final sample at the stop time so the last
  // partial period is represented in both exports.
  if (cluster.ledger() != nullptr && cluster.ledger()->sample_every() > 0) {
    cluster.sample_ledger_now();
  }
  if (!opt.trace_out.empty()) {
    const std::string json =
        obs::export_trace_event_json(*cluster.spans(), cluster.ledger());
    std::FILE* f = std::fopen(opt.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "rrsim: cannot write %s\n", opt.trace_out.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nspan timeline: %zu spans written to %s (load at ui.perfetto.dev)\n",
                cluster.spans()->span_count(), opt.trace_out.c_str());
  }
  if (!opt.metrics_out.empty()) {
    const std::string json = obs::export_metrics_json(m, cluster.ledger());
    std::FILE* f = std::fopen(opt.metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "rrsim: cannot write %s\n", opt.metrics_out.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nmetrics: %zu timeline samples written to %s\n",
                cluster.ledger()->sample_count(), opt.metrics_out.c_str());
  }
  if (opt.check) {
    const auto result = cluster.check_history();
    std::printf("\nhistory check: %s\n", result.summary().c_str());
    for (const auto& v : result.violations) std::printf("  %s\n", v.c_str());
    ok = ok && result.ok;
    if (opt.trace_dump) {
      std::printf("\n-- trace (first 200 events) --\n%s",
                  cluster.trace()->dump(200).c_str());
    }
  }
  return ok ? 0 : 1;
}
