// perfbench — host cost of simulating FBL-RR, end to end and per layer.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Every workload is a batch job driven by this one thread: the seed expands
// into a sequence of scenario inputs (cluster seed, gossip seeds, crash
// schedule, explorer sample), and scenarios run back to back until S seconds
// of wall time have passed. Each scenario's outputs are checked; the last
// line of stdout is one JSON object with the metrics.
//
// --trace 0 runs the program exactly as rrsim and rrcheck do and reports the
// end-to-end metrics. --trace 1 runs each scenario twice on the same inputs:
// once plain, once with proxies at the layer boundaries reachable from
// outside src/ — every Simulator::step(), a proxy net::Endpoint in place of
// each Node, and a proxy app::Application (and app::AppContext) around each
// application. The proxies keep spans in memory; self times are the span
// durations minus their children's. The traced run must reproduce the plain
// run's state hash and event count. See README.md for the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "app/workloads.hpp"
#include "check/explorer.hpp"
#include "harness/experiments.hpp"
#include "obs/ledger.hpp"
#include "obs/perfetto.hpp"
#include "runtime/cluster.hpp"

using namespace rr;

// --- heap allocation counter ------------------------------------------------
//
// Counts every global operator new on the calling thread. Only the main
// thread runs simulations, so this is the program's allocation count.

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double sim_secs(Time t) { return static_cast<double>(t) / 1e9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Value at quantile q in [0, 1] (nearest rank).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// splitmix64: the benchmark's only source of input randomness.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// --- spans -------------------------------------------------------------------

enum class Kind : std::uint8_t {
  kStep,            ///< one Simulator::step() (or the run_until tail at a boundary)
  kStepRecovering,  ///< a step taken while Cluster::any_recovering() held
  kDeliver,         ///< net::Endpoint::deliver into a Node
  kHandler,         ///< Application::on_start / on_message
  kSend,            ///< AppContext::send
  kSnapshot,        ///< Application::snapshot / restore
};
constexpr std::size_t kKinds = 6;

struct Span {
  std::uint64_t start;
  std::uint64_t end;
  std::uint32_t parent;
  std::uint32_t allocs;  ///< allocation counter at open; the delta after close
  Kind kind;
};
constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// In-memory span recorder. Spans nest step → deliver → handler → send; the
/// recorder's own storage growth is excluded from the allocation counts.
class Tracer {
 public:
  std::uint32_t open(Kind kind) {
    if (spans_.size() == spans_.capacity()) {
      const std::uint64_t before = t_allocs;
      spans_.reserve(std::max<std::size_t>(1 << 16, spans_.capacity() * 2));
      t_allocs = before;
    }
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{now_ns(), 0, top_, static_cast<std::uint32_t>(t_allocs), kind});
    top_ = idx;
    return idx;
  }
  void close(std::uint32_t idx) {
    Span& s = spans_[idx];
    s.end = now_ns();
    s.allocs = static_cast<std::uint32_t>(t_allocs) - s.allocs;
    top_ = s.parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    top_ = kNoSpan;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t top_{kNoSpan};
};

class Scope {
 public:
  Scope(Tracer& t, Kind k) : t_(t), idx_(t.open(k)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t idx_;
};

/// Per-kind totals distilled from one traced run's spans.
struct SpanTotals {
  std::array<std::uint64_t, kKinds> count{};
  std::array<std::uint64_t, kKinds> total_ns{};
  std::array<std::uint64_t, kKinds> self_ns{};
  std::array<std::uint64_t, kKinds> self_allocs{};
  std::uint64_t delivers_without_handler{0};
  std::vector<double> step_ns;

  void add(const std::vector<Span>& spans) {
    std::vector<std::uint64_t> self(spans.size());
    std::vector<std::uint32_t> self_allocs_v(spans.size());
    std::vector<bool> has_handler(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i].end - spans[i].start;
      self_allocs_v[i] = spans[i].allocs;
    }
    // Children always follow their parent, so one pass subtracts them.
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent == kNoSpan) continue;
      self[s.parent] -= s.end - s.start;
      self_allocs_v[s.parent] -= s.allocs;
      if (s.kind == Kind::kHandler) has_handler[s.parent] = true;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto k = static_cast<std::size_t>(s.kind);
      ++count[k];
      total_ns[k] += s.end - s.start;
      self_ns[k] += self[i];
      self_allocs[k] += self_allocs_v[i];
      if (s.kind == Kind::kDeliver && !has_handler[i]) ++delivers_without_handler;
      if (s.kind == Kind::kStep || s.kind == Kind::kStepRecovering) {
        step_ns.push_back(static_cast<double>(s.end - s.start));
      }
    }
  }
  [[nodiscard]] std::uint64_t of(const std::array<std::uint64_t, kKinds>& a, Kind k) const {
    return a[static_cast<std::size_t>(k)];
  }
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  // Layout: "PBSPANS1", u64 count, then per span u64 start_ns, u64 end_ns,
  // u32 parent (0xffffffff = root), u32 allocs, u8 kind — little endian.
  const std::uint64_t n = spans.size();
  std::fwrite("PBSPANS1", 1, 8, f);
  std::fwrite(&n, sizeof n, 1, f);
  for (const Span& s : spans) {
    std::fwrite(&s.start, 8, 1, f);
    std::fwrite(&s.end, 8, 1, f);
    std::fwrite(&s.parent, 4, 1, f);
    std::fwrite(&s.allocs, 4, 1, f);
    const auto kind = static_cast<std::uint8_t>(s.kind);
    std::fwrite(&kind, 1, 1, f);
  }
  std::fclose(f);
}

// --- proxies -----------------------------------------------------------------

class ProxyContext final : public app::AppContext {
 public:
  ProxyContext(app::AppContext& inner, Tracer& t) : inner_(inner), t_(t) {}
  void send(ProcessId to, Bytes payload) override {
    Scope s(t_, Kind::kSend);
    inner_.send(to, std::move(payload));
  }
  std::uint64_t commit_output(Bytes payload) override {
    return inner_.commit_output(std::move(payload));
  }
  [[nodiscard]] ProcessId self() const override { return inner_.self(); }
  [[nodiscard]] const std::vector<ProcessId>& processes() const override {
    return inner_.processes();
  }

 private:
  app::AppContext& inner_;
  Tracer& t_;
};

class ProxyApp final : public app::Application {
 public:
  ProxyApp(std::unique_ptr<app::Application> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}
  void on_start(app::AppContext& ctx) override {
    Scope s(t_, Kind::kHandler);
    ProxyContext pc(ctx, t_);
    inner_->on_start(pc);
  }
  void on_message(app::AppContext& ctx, ProcessId from, const Bytes& payload) override {
    Scope s(t_, Kind::kHandler);
    ProxyContext pc(ctx, t_);
    inner_->on_message(pc, from, payload);
  }
  [[nodiscard]] Bytes snapshot() const override {
    Scope s(t_, Kind::kSnapshot);
    return inner_->snapshot();
  }
  void restore(const Bytes& state) override {
    Scope s(t_, Kind::kSnapshot);
    inner_->restore(state);
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return inner_->state_hash(); }

 private:
  std::unique_ptr<app::Application> inner_;
  Tracer& t_;
};

class ProxyEndpoint final : public net::Endpoint {
 public:
  ProxyEndpoint(net::Endpoint& inner, Tracer& t) : inner_(inner), t_(t) {}
  void deliver(ProcessId src, Bytes payload) override {
    Scope s(t_, Kind::kDeliver);
    inner_.deliver(src, std::move(payload));
  }

 private:
  net::Endpoint& inner_;
  Tracer& t_;
};

// --- cluster workloads -------------------------------------------------------

enum class Workload { kSteady, kRecovery, kScale, kExplore };

struct CrashAt {
  std::uint32_t pid;
  Time at;
};

/// One scenario's generated inputs: everything the program receives.
struct ClusterInputs {
  std::uint64_t cluster_seed{0};
  std::vector<std::uint64_t> gossip_seeds;
  std::vector<CrashAt> crashes;
  Time horizon{0};
};

constexpr Duration kIdleStep = milliseconds(250);
constexpr Duration kIdleGrace = seconds(60);

std::uint32_t cluster_size(Workload w) {
  switch (w) {
    case Workload::kSteady: return 32;
    case Workload::kRecovery: return 8;
    case Workload::kScale: return 256;
    case Workload::kExplore: break;
  }
  return 0;
}

/// `tiny` shrinks each scenario to the least that still exercises its layers
/// (the self-test size): one crash group, the shortest horizons.
ClusterInputs make_inputs(Workload w, std::uint64_t seed, std::uint64_t rep, bool tiny) {
  InputRng rng(seed * 0x100000001b3ULL + rep * 0x9e3779b97f4a7c15ULL + 0x7065726662ULL);
  ClusterInputs in;
  const std::uint32_t n = cluster_size(w);
  in.cluster_seed = rng.next();
  for (std::uint32_t p = 0; p < n; ++p) in.gossip_seeds.push_back(rng.next());
  switch (w) {
    case Workload::kSteady:
      in.horizon = tiny ? seconds(1) : seconds(8);
      break;
    case Workload::kRecovery: {
      // Crash storm: groups 10 s apart. Even groups are the T2 pair (a second
      // process fails while the first restores its checkpoint), odd groups a
      // single failure. At most two processes are ever down (f = 2).
      const int groups = tiny ? 1 : 2;
      Time t = milliseconds(6'500);
      for (int g = 0; g < groups; ++g) {
        const Time at = t + static_cast<Time>(rng.below(500)) * milliseconds(1);
        const auto a = static_cast<std::uint32_t>(rng.below(n));
        in.crashes.push_back({a, at});
        if (g % 2 == 0) {
          auto b = static_cast<std::uint32_t>(rng.below(n - 1));
          if (b >= a) ++b;
          in.crashes.push_back({b, at + milliseconds(2'100) +
                                       static_cast<Time>(rng.below(300)) * milliseconds(1)});
        }
        t += seconds(10);
      }
      in.horizon = t;
      break;
    }
    case Workload::kScale:
      in.crashes.push_back({static_cast<std::uint32_t>(rng.below(n)),
                            seconds(2) + static_cast<Time>(rng.below(200)) * milliseconds(1)});
      in.horizon = seconds(3);
      break;
    case Workload::kExplore:
      break;
  }
  return in;
}

/// The cell's configuration. `taps` arms trace, spans and the 50 ms ledger
/// timeline (recovery_n8); `ledger_only` arms the byte ledger alone, which
/// schedules no sim events.
runtime::ClusterConfig make_config(Workload w, const ClusterInputs& in, bool taps,
                                   bool ledger_only) {
  runtime::ClusterConfig cfg;
  switch (w) {
    case Workload::kSteady:
      cfg.num_processes = 32;
      cfg.f = 2;
      break;
    case Workload::kRecovery:
      cfg = harness::PaperSetup::testbed(recovery::Algorithm::kNonBlocking, 8, 2);
      break;
    case Workload::kScale:
      // The n = 256 FBL-RR cell of bench_t6_scale_sweep, taps off.
      cfg.num_processes = 256;
      cfg.f = 2;
      cfg.algorithm = recovery::Algorithm::kNonBlocking;
      cfg.prune_piggyback = true;
      cfg.net.base_latency = microseconds(200);
      cfg.net.jitter_max = microseconds(40);
      cfg.storage.seek_latency = milliseconds(2);
      cfg.storage.bytes_per_second = 8.0 * 1024 * 1024;
      cfg.detector.heartbeat_period = seconds(1);
      cfg.detector.timeout = seconds(3);
      cfg.supervisor_restart_delay = milliseconds(600);
      cfg.checkpoint_period = seconds(30);
      cfg.replay_delivery_cost = microseconds(10);
      cfg.recovery.progress_period = milliseconds(200);
      cfg.recovery.phase_timeout = seconds(5);
      cfg.recovery.gather_arity = 4;
      break;
    case Workload::kExplore:
      break;
  }
  cfg.seed = in.cluster_seed;
  if (taps) {
    cfg.enable_trace = true;
    cfg.enable_spans = true;
    cfg.enable_ledger = true;
    cfg.ledger_sample_every = milliseconds(50);
  } else if (ledger_only) {
    cfg.enable_ledger = true;
  }
  return cfg;
}

app::AppFactory make_factory(Workload w, const ClusterInputs& in) {
  const std::vector<std::uint64_t> seeds = in.gossip_seeds;
  switch (w) {
    case Workload::kRecovery:
      // PaperSetup::workload with generated gossip seeds: two token sources,
      // 96-byte payloads, 1 MiB padded process images.
      return [seeds](ProcessId pid) -> std::unique_ptr<app::Application> {
        app::GossipConfig cfg;
        cfg.tokens_per_process = pid.value < 2 ? 1 : 0;
        cfg.payload_pad = 96;
        cfg.seed = seeds[pid.value];
        return std::make_unique<app::PaddedApp>(std::make_unique<app::GossipApp>(cfg),
                                                std::size_t{1} << 20);
      };
    case Workload::kScale:
      return [seeds](ProcessId pid) -> std::unique_ptr<app::Application> {
        app::GossipConfig cfg;
        cfg.tokens_per_process = pid.value < 8 ? 1 : 0;
        cfg.payload_pad = 32;
        cfg.seed = seeds[pid.value];
        return std::make_unique<app::GossipApp>(cfg);
      };
    default:
      // rrsim's gossip workload.
      return [seeds](ProcessId pid) -> std::unique_ptr<app::Application> {
        app::GossipConfig cfg;
        cfg.tokens_per_process = pid.value < 2 ? 1 : 0;
        cfg.seed = seeds[pid.value];
        return std::make_unique<app::GossipApp>(cfg);
      };
  }
}

// --- output ------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.10g", metrics[i].value);
    out += std::string(i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Every per-layer metric of a traced run. Times and counts are means per
/// scenario (or schedule); layers a workload does not reach stay 0.
struct LayerReport {
  double sim_events{0}, step_ns_p50{0}, step_ns_p99{0}, timer_self_s{0};
  double deliver_calls{0}, deliver_self_s{0}, non_app_delivers{0};
  double app_send_s{0}, allocs_per_send{0}, allocs_per_deliver{0};
  double handler_self_s{0}, snapshot_s{0};
  double piggyback_dets_per_msg{0}, piggyback_bytes_per_msg{0}, active_dets_max{0};
  double packets_per_app_msg{0}, bytes_per_app_msg{0};
  double window_host_s{0}, window_sim_s{0}, replay_payload_bytes{0}, protocol_ctrl_bytes{0};
  double storage_ops{0}, storage_bytes_written{0};
  double export_s{0}, tap_overhead{0};
  double check_history_s{0};
  double run_s_p50{0}, run_s_max{0}, injections_applied{0}, matrix_schedules{0};
  double full_sweep_h{0};
  double fail_share{0}, tracing_overhead{0};

  [[nodiscard]] std::vector<Metric> metrics() const {
    return {
        {"sim.events", sim_events, "count"},
        {"sim.step_ns_p50", step_ns_p50, "ns"},
        {"sim.step_ns_p99", step_ns_p99, "ns"},
        {"sim.timer_self_s", timer_self_s, "s"},
        {"runtime.deliver_calls", deliver_calls, "count"},
        {"runtime.deliver_self_s", deliver_self_s, "s"},
        {"runtime.non_app_delivers", non_app_delivers, "count"},
        {"runtime.app_send_s", app_send_s, "s"},
        {"runtime.allocs_per_send", allocs_per_send, "count/send"},
        {"runtime.allocs_per_deliver", allocs_per_deliver, "count/deliver"},
        {"app.handler_self_s", handler_self_s, "s"},
        {"app.snapshot_s", snapshot_s, "s"},
        {"fbl.piggyback_dets_per_msg", piggyback_dets_per_msg, "count/msg"},
        {"fbl.piggyback_bytes_per_msg", piggyback_bytes_per_msg, "B/msg"},
        {"fbl.active_dets_max", active_dets_max, "count"},
        {"net.packets_per_app_msg", packets_per_app_msg, "count/msg"},
        {"net.bytes_per_app_msg", bytes_per_app_msg, "B/msg"},
        {"recovery.window_host_s", window_host_s, "s"},
        {"recovery.window_sim_s", window_sim_s, "sim_s"},
        {"recovery.replay_payload_bytes", replay_payload_bytes, "B/recovery"},
        {"recovery.protocol_ctrl_bytes", protocol_ctrl_bytes, "B/recovery"},
        {"storage.ops", storage_ops, "count"},
        {"storage.bytes_written", storage_bytes_written, "B"},
        {"obs.export_s", export_s, "s"},
        {"obs.tap_overhead", tap_overhead, "ratio"},
        {"trace.check_history_s", check_history_s, "s"},
        {"check.run_s_p50", run_s_p50, "s"},
        {"check.run_s_max", run_s_max, "s"},
        {"check.injections_applied", injections_applied, "count"},
        {"check.matrix_schedules", matrix_schedules, "count"},
        {"check.full_sweep_h", full_sweep_h, "h"},
        {"fail_share", fail_share, "ratio"},
        {"perfbench.tracing_overhead", tracing_overhead, "ratio"},
    };
  }
};

/// Counters a traced run reads from the registry (or the metrics export).
struct Counters {
  std::uint64_t app_delivered{0}, app_sent{0}, piggyback_dets{0}, piggyback_bytes{0};
  std::uint64_t net_packets{0}, net_bytes{0}, storage_ops{0}, storage_bytes_written{0};
  std::uint64_t recoveries{0}, replay_payload_bytes{0}, protocol_ctrl_bytes{0};

  void add(const Counters& o) {
    app_delivered += o.app_delivered;
    app_sent += o.app_sent;
    piggyback_dets += o.piggyback_dets;
    piggyback_bytes += o.piggyback_bytes;
    net_packets += o.net_packets;
    net_bytes += o.net_bytes;
    storage_ops += o.storage_ops;
    storage_bytes_written += o.storage_bytes_written;
    recoveries += o.recoveries;
    replay_payload_bytes += o.replay_payload_bytes;
    protocol_ctrl_bytes += o.protocol_ctrl_bytes;
  }
  void report(LayerReport& l, double runs) const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    l.piggyback_dets_per_msg = ratio(d(piggyback_dets), d(app_sent));
    l.piggyback_bytes_per_msg = ratio(d(piggyback_bytes), d(app_sent));
    l.packets_per_app_msg = ratio(d(net_packets), d(app_delivered));
    l.bytes_per_app_msg = ratio(d(net_bytes), d(app_delivered));
    l.replay_payload_bytes = ratio(d(replay_payload_bytes), d(recoveries));
    l.protocol_ctrl_bytes = ratio(d(protocol_ctrl_bytes), d(recoveries));
    l.storage_ops = d(storage_ops) / runs;
    l.storage_bytes_written = d(storage_bytes_written) / runs;
  }
};

/// What one scenario run reports, plain or traced.
struct RunResult {
  bool ok{true};
  std::string why;
  std::uint64_t state_hash{0};
  std::uint64_t events{0};
  double setup_s{0};
  double wall_s{0};  ///< first simulated event to teardown, checks and exports included
  double sim_s{0};
  std::uint64_t app_delivered{0};
  std::uint64_t allocs{0};  ///< set-up through teardown
  std::uint64_t recoveries{0};

  // Traced runs only.
  double window_sim_s{0};
  std::uint64_t active_dets_max{0};
  double check_history_s{0};
  double export_s{0};
  Counters counters;
};

void fail(RunResult& r, std::string why) {
  if (r.ok) r.why = std::move(why);
  r.ok = false;
}

/// Ledger split behind the T6 cost claim: replayed payload vs every other
/// recovery-protocol byte (the ctrl.* kinds plus the incvector and gather
/// relay categories carved out of DepRequests).
void ledger_split(const std::array<std::uint64_t, obs::kCostCategoryCount>& bytes,
                  Counters& c) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto cat = static_cast<obs::CostCategory>(i);
    if (cat == obs::CostCategory::kCtrlReplayData) {
      c.replay_payload_bytes += bytes[i];
    } else if (cat >= obs::CostCategory::kIncVectorFull &&
               cat != obs::CostCategory::kTransportAck &&
               cat != obs::CostCategory::kTransportRetransmit &&
               cat != obs::CostCategory::kOther) {
      c.protocol_ctrl_bytes += bytes[i];
    }
  }
}

RunResult run_cluster(Workload w, const ClusterInputs& in, bool taps, Tracer* tracer) {
  RunResult r;
  const std::uint64_t allocs0 = t_allocs;
  const std::uint64_t t0 = now_ns();
  // The traced scale run arms the byte ledger (no sim events) for the
  // per-recovery ledger split.
  runtime::ClusterConfig cfg =
      make_config(w, in, taps, tracer != nullptr && w == Workload::kScale);
  app::AppFactory factory = make_factory(w, in);
  if (tracer != nullptr) {
    factory = [inner = std::move(factory), tracer](ProcessId pid) {
      return std::make_unique<ProxyApp>(inner(pid), *tracer);
    };
  }
  // Declared before the cluster so the proxies outlive the Nodes' detach().
  std::vector<std::unique_ptr<ProxyEndpoint>> endpoints;
  auto cluster = std::make_unique<runtime::Cluster>(cfg, factory);
  if (tracer != nullptr) {
    net::Network& net = cluster->network();
    for (const ProcessId pid : cluster->pids()) {
      endpoints.push_back(std::make_unique<ProxyEndpoint>(cluster->node(pid), *tracer));
      net.detach(pid);
      net.attach(pid, *endpoints.back());
      net.set_up(pid, false);  // as the Node left it: dark until start()
    }
  }
  cluster->start();
  for (const CrashAt& c : in.crashes) cluster->crash_at(ProcessId{c.pid}, c.at);
  const std::uint64_t t1 = now_ns();
  r.setup_s = secs(t1 - t0);

  const Time deadline = in.horizon + kIdleGrace;
  sim::Simulator& sim = cluster->sim();
  std::uint64_t sentinels = 0;
  if (tracer == nullptr) {
    cluster->run_until(in.horizon);
    while (!cluster->all_idle() && sim.now() < deadline) cluster->run_for(kIdleStep);
  } else {
    // The plain loop, one step at a time. A sentinel event at each boundary
    // T says when every event before T has run; run_until(T) then runs the
    // events due at exactly T that were queued after the sentinel. Sentinels
    // only shift insertion sequence numbers uniformly, so event order — and
    // the run — stay identical to the plain run's.
    Time boundary = in.horizon;
    bool hit = false;
    const auto arm = [&] {
      hit = false;
      sim.schedule_at(boundary, [&hit] { hit = true; });
      ++sentinels;
    };
    arm();
    std::uint64_t steps = 0;
    const auto sample_dets = [&] {
      for (const ProcessId pid : cluster->pids()) {
        r.active_dets_max = std::max<std::uint64_t>(
            r.active_dets_max, cluster->node(pid).engine().det_log().active_size());
      }
    };
    for (;;) {
      const bool recovering = cluster->any_recovering();
      const Time before = sim.now();
      bool more = false;
      {
        Scope s(*tracer, recovering ? Kind::kStepRecovering : Kind::kStep);
        more = sim.step();
      }
      if (recovering) r.window_sim_s += sim_secs(sim.now() - before);
      if ((++steps & 1023) == 0) sample_dets();
      if (!hit && more) continue;
      {
        Scope s(*tracer, Kind::kStep);
        sim.run_until(boundary);
      }
      if (cluster->all_idle() || boundary >= deadline) break;
      boundary += kIdleStep;
      arm();
    }
    sample_dets();
  }
  r.sim_s = sim_secs(sim.now());
  r.events = sim.events_executed() - sentinels;
  r.state_hash = cluster->state_hash();
  r.app_delivered = cluster->total_app_delivered();

  if (!cluster->all_idle()) fail(r, "not idle at the idle deadline");
  const auto recoveries = cluster->all_recoveries();
  r.recoveries = recoveries.size();
  if (recoveries.size() != in.crashes.size()) {
    fail(r, "crashes " + std::to_string(in.crashes.size()) + " but completed recoveries " +
                std::to_string(recoveries.size()));
  }
  if (taps) {
    cluster->sample_ledger_now();
    std::uint64_t a = now_ns();
    const trace::CheckResult check = cluster->check_history();
    std::uint64_t b = now_ns();
    r.check_history_s = secs(b - a);
    if (!check.ok) fail(r, "history check: " + check.summary());
    const std::string trace_json =
        obs::export_trace_event_json(*cluster->spans(), cluster->ledger());
    const std::string metrics_json =
        obs::export_metrics_json(cluster->metrics(), cluster->ledger());
    r.export_s = secs(now_ns() - b);
    if (trace_json.empty() || metrics_json.empty()) fail(r, "empty export");
  }
  if (tracer != nullptr) {
    const metrics::Registry& m = cluster->metrics();
    Counters& c = r.counters;
    c.app_delivered = r.app_delivered;
    c.app_sent = m.counter_value("app.sent");
    c.piggyback_dets = m.counter_value("fbl.piggyback_dets");
    c.piggyback_bytes = m.counter_value("fbl.piggyback_bytes");
    c.net_packets = m.counter_value("net.packets");
    c.net_bytes = m.counter_value("net.bytes");
    c.storage_ops = m.counter_value("storage.reads") + m.counter_value("storage.writes") +
                    m.counter_value("storage.erases");
    c.storage_bytes_written = m.counter_value("storage.bytes_written");
    c.recoveries = r.recoveries;
    if (const obs::CostLedger* ledger = cluster->ledger()) {
      std::array<std::uint64_t, obs::kCostCategoryCount> bytes{};
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = ledger->bytes(static_cast<obs::CostCategory>(i));
      }
      ledger_split(bytes, c);
    }
  }
  cluster.reset();
  r.wall_s = secs(now_ns() - t1);
  r.allocs = t_allocs - allocs0;
  return r;
}

/// Set-up alone: generate the inputs, construct, start, schedule crashes.
double setup_only(Workload w, std::uint64_t seed, std::uint64_t rep, bool tiny, bool taps) {
  const std::uint64_t t0 = now_ns();
  const ClusterInputs in = make_inputs(w, seed, rep, tiny);
  runtime::Cluster cluster(make_config(w, in, taps, false), make_factory(w, in));
  cluster.start();
  for (const CrashAt& c : in.crashes) cluster.crash_at(ProcessId{c.pid}, c.at);
  return secs(now_ns() - t0);
}

// --- explorer workload -------------------------------------------------------

struct ExploreRun {
  check::RunOutcome outcome;
  double wall_s{0};
  std::uint64_t allocs{0};
  std::uint64_t app_msgs{0};  ///< app frames on the wire (the outcome's ledger)
};

ExploreRun run_schedule(const check::FaultSchedule& s, check::RunCapture* capture) {
  ExploreRun r;
  const std::uint64_t a0 = t_allocs;
  const std::uint64_t t0 = now_ns();
  r.outcome = check::ScheduleExplorer::run(s, capture);
  r.wall_s = secs(now_ns() - t0);
  r.allocs = t_allocs - a0;
  r.app_msgs =
      r.outcome.ledger_frames[static_cast<std::size_t>(obs::CostCategory::kAppPayload)];
  return r;
}

/// Schedules in the sample: one per matrix cell (n, f).
constexpr std::size_t kTemplates = 6;

/// One pass of the explorer sample. Template j takes variant row ⌊j·V/6⌋ of
/// cell j (V = variant rows per cell), so the sample walks the variant
/// families from a plain crash to loss and gather-tree schedules; the seed
/// and the pass pick each template's seed coordinate. Per-schedule cost
/// ranges from milliseconds to seconds across the matrix but moves only a
/// few percent across the seeds of one template, so every pass has the same
/// composition and the rate stays comparable between runs.
std::vector<std::size_t> sample_matrix(const std::vector<check::FaultSchedule>& matrix,
                                       std::uint64_t seed, std::uint64_t pass,
                                       std::size_t templates) {
  InputRng rng(seed * 0x100000001b3ULL + pass * 0x9e3779b97f4a7c15ULL + 0x6578706cULL);
  const std::uint64_t seeds = check::ExploreOptions{}.seeds_per_cell;
  std::vector<std::size_t> picks;
  std::size_t start = 0;
  for (std::size_t i = 1; i <= matrix.size(); ++i) {
    if (i < matrix.size() && matrix[i].n == matrix[start].n && matrix[i].f == matrix[start].f) {
      continue;
    }
    const std::size_t variants = (i - start) / seeds;
    const std::size_t row = picks.size() * variants / kTemplates;
    picks.push_back(start + rng.below(seeds) * variants + row);
    if (picks.size() == templates) break;
    start = i;
  }
  return picks;
}

std::uint64_t json_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const auto at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// --- workload loops ------------------------------------------------------------

struct Options {
  Workload workload{Workload::kSteady};
  std::string workload_name;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool tiny{false};
  std::string spans_out;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload steady_n32|recovery_n8|scale_n256|explore_sample\n"
               "                 --seed N --seconds S --trace 0|1 [--size full|tiny]\n"
               "                 [--spans-out FILE]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string v = argv[i + 1];
    if (arg == "--workload") {
      const std::pair<const char*, Workload> names[] = {{"steady_n32", Workload::kSteady},
                                                        {"recovery_n8", Workload::kRecovery},
                                                        {"scale_n256", Workload::kScale},
                                                        {"explore_sample", Workload::kExplore}};
      for (const auto& [name, w] : names) {
        if (v == name) {
          o.workload = w;
          o.workload_name = v;
          have_workload = true;
        }
      }
      if (!have_workload) usage();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage();
      o.trace = v == "1";
    } else if (arg == "--size") {
      if (v != "full" && v != "tiny") usage();
      o.tiny = v == "tiny";
    } else if (arg == "--spans-out") {
      o.spans_out = v;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || !(o.seconds > 0)) usage();
  return o;
}

/// Scenario runs always made, whatever --seconds says (one at --size tiny).
/// Allocation counts come from these alone, so they are exact for a seed on
/// any host.
std::uint64_t min_reps(const Options& o) { return o.tiny ? 1 : 3; }
/// Set-ups timed before each scenario (or schedule) for the set-up median.
/// Spread over the whole run, they see the same host as the scenarios do,
/// not one instant of it.
constexpr std::size_t kSetupsPerRun = 5;

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

void print_digest(const Options& o, const char* mode, std::uint64_t rep, const RunResult& r) {
  std::printf("digest %s %s rep=%llu state_hash=%016llx events=%llu sim_s=%.3f wall_s=%.4f "
              "app_msgs=%llu %s%s\n",
              o.workload_name.c_str(), mode, static_cast<unsigned long long>(rep),
              static_cast<unsigned long long>(r.state_hash),
              static_cast<unsigned long long>(r.events), r.sim_s, r.wall_s,
              static_cast<unsigned long long>(r.app_delivered), r.ok ? "ok" : "FAIL ",
              r.why.c_str());
}

void print_outcome(const char* mode, std::size_t index, const ExploreRun& r,
                   const check::FaultSchedule& s) {
  std::printf("digest explore_sample %s matrix[%zu] state_hash=%016llx sim_s=%.3f wall_s=%.4f "
              "%s %s\n",
              mode, index, static_cast<unsigned long long>(r.outcome.state_hash),
              sim_secs(r.outcome.finished_at), r.wall_s, r.outcome.brief().c_str(),
              s.replay_line().c_str());
}

int run_cluster_plain(const Options& o) {
  const Workload w = o.workload;
  const bool taps = w == Workload::kRecovery;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs = 0;
  std::uint64_t msgs = 0;
  const std::uint64_t deadline = deadline_after(o.seconds);
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> runs_per_s;
  for (std::uint64_t rep = 0; rep < min_reps(o) || now_ns() < deadline; ++rep) {
    for (std::uint64_t i = 0; i < kSetupsPerRun; ++i) {
      setups.push_back(setup_only(w, o.seed, rep * kSetupsPerRun + i, o.tiny, taps));
    }
    const RunResult r = run_cluster(w, make_inputs(w, o.seed, rep, o.tiny), taps, nullptr);
    print_digest(o, "plain", rep, r);
    ++attempted;
    if (!r.ok) ++failed;
    rates.push_back(r.sim_s / r.wall_s);
    runs_per_s.push_back(1.0 / (r.setup_s + r.wall_s));
    if (rep < min_reps(o)) {
      allocs += r.allocs;
      msgs += r.app_delivered;
    }
  }
  print_result(failed == 0, attempted, failed,
               {{"setup_s", median(setups), "s"},
                {"sim_s_per_wall_s", median(rates), "sim_s/s"},
                {"schedules_per_s", median(runs_per_s), "1/s"},
                {"allocs_per_app_msg", ratio(static_cast<double>(allocs), static_cast<double>(msgs)),
                 "count/msg"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int run_cluster_traced(const Options& o) {
  const Workload w = o.workload;
  const bool taps = w == Workload::kRecovery;
  const std::uint64_t deadline = deadline_after(o.seconds);
  Tracer tracer;
  SpanTotals spans;
  Counters counters;
  LayerReport l;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t injected = 0;
  double events = 0;
  std::vector<double> run_s;
  std::vector<double> overhead;
  std::vector<double> tap_share;
  for (std::uint64_t rep = 0; rep == 0 || now_ns() < deadline; ++rep) {
    const ClusterInputs in = make_inputs(w, o.seed, rep, o.tiny);
    const RunResult plain = run_cluster(w, in, taps, nullptr);
    tracer.clear();
    const RunResult traced = run_cluster(w, in, taps, &tracer);
    print_digest(o, "plain", rep, plain);
    print_digest(o, "traced", rep, traced);
    const bool same =
        plain.state_hash == traced.state_hash && plain.events == traced.events;
    if (!same) std::printf("FAIL traced run diverged from the plain run at rep %llu\n",
                           static_cast<unsigned long long>(rep));
    bool ok = plain.ok && traced.ok && same;
    if (taps) {
      // The same scenario with trace, spans and the ledger off prices the taps.
      const RunResult off = run_cluster(w, in, false, nullptr);
      print_digest(o, "taps-off", rep, off);
      ok = ok && off.ok && off.state_hash == plain.state_hash;
      tap_share.push_back(1.0 - off.wall_s / plain.wall_s);
    }
    ++attempted;
    if (!ok) ++failed;
    spans.add(tracer.spans());
    counters.add(traced.counters);
    injected += in.crashes.size();
    events += static_cast<double>(traced.events);
    run_s.push_back(plain.setup_s + plain.wall_s);
    overhead.push_back(traced.wall_s / plain.wall_s - 1.0);
    l.window_sim_s += traced.window_sim_s;
    l.active_dets_max = std::max(l.active_dets_max, static_cast<double>(traced.active_dets_max));
    l.check_history_s += traced.check_history_s;
    l.export_s += traced.export_s;
  }
  write_spans(o.spans_out, tracer.spans());

  const auto runs = static_cast<double>(attempted);
  const auto mean_s = [&](std::uint64_t ns) { return secs(ns) / runs; };
  const auto mean = [&](std::uint64_t v) { return static_cast<double>(v) / runs; };
  l.sim_events = events / runs;
  l.step_ns_p50 = quantile(spans.step_ns, 0.50);
  l.step_ns_p99 = quantile(spans.step_ns, 0.99);
  l.timer_self_s = mean_s(spans.of(spans.self_ns, Kind::kStep) +
                          spans.of(spans.self_ns, Kind::kStepRecovering));
  l.deliver_calls = mean(spans.of(spans.count, Kind::kDeliver));
  l.deliver_self_s = mean_s(spans.of(spans.self_ns, Kind::kDeliver));
  l.non_app_delivers = mean(spans.delivers_without_handler);
  l.app_send_s = mean_s(spans.of(spans.total_ns, Kind::kSend));
  l.allocs_per_send = ratio(static_cast<double>(spans.of(spans.self_allocs, Kind::kSend)),
                            static_cast<double>(spans.of(spans.count, Kind::kSend)));
  l.allocs_per_deliver =
      ratio(static_cast<double>(spans.of(spans.self_allocs, Kind::kDeliver)),
            static_cast<double>(spans.of(spans.count, Kind::kDeliver)));
  l.handler_self_s = mean_s(spans.of(spans.self_ns, Kind::kHandler));
  l.snapshot_s = mean_s(spans.of(spans.total_ns, Kind::kSnapshot));
  l.window_host_s = mean_s(spans.of(spans.total_ns, Kind::kStepRecovering));
  l.window_sim_s /= runs;
  l.check_history_s /= runs;
  l.export_s /= runs;
  l.tap_overhead = median(tap_share);
  counters.report(l, runs);
  l.run_s_p50 = median(run_s);
  l.run_s_max = *std::max_element(run_s.begin(), run_s.end());
  l.injections_applied = static_cast<double>(injected) / runs;
  l.matrix_schedules =
      static_cast<double>(check::ScheduleExplorer::matrix(check::ExploreOptions{}).size());
  l.fail_share = static_cast<double>(failed) / runs;
  l.tracing_overhead = median(overhead);
  print_result(failed == 0, attempted, failed, l.metrics());
  return 0;
}

int run_explore(const Options& o) {
  // --size tiny samples the first (smallest) cell only.
  const std::size_t templates = o.tiny ? 1 : kTemplates;
  std::vector<check::FaultSchedule> matrix;
  std::vector<double> setups;
  // Set-up: build the matrix and draw the pass's sample.
  const auto set_up = [&](std::uint64_t pass) {
    const std::uint64_t t0 = now_ns();
    matrix = check::ScheduleExplorer::matrix(check::ExploreOptions{});
    std::vector<std::size_t> picks = sample_matrix(matrix, o.seed, pass, templates);
    setups.push_back(secs(now_ns() - t0));
    return picks;
  };
  const std::uint64_t deadline = deadline_after(o.seconds);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs = 0;
  std::uint64_t msgs = 0;
  std::uint64_t injected = 0;
  double wall = 0;
  double sim = 0;
  Counters counters;
  std::vector<double> run_s;
  std::vector<double> overhead;
  // Whole passes only, so every run measures the same sample composition.
  // A pass takes seconds, so the run ends at the pass boundary nearest the
  // deadline rather than the first one after it.
  std::uint64_t pass_ns = 0;
  for (std::uint64_t pass = 0; pass == 0 || now_ns() + pass_ns / 2 < deadline; ++pass) {
    const std::uint64_t pass_start = now_ns();
    const std::vector<std::size_t> picks = set_up(pass);
    for (const std::size_t index : picks) {
      for (std::size_t i = 0; i < kSetupsPerRun; ++i) set_up(pass);
      const check::FaultSchedule& s = matrix[index];
      const ExploreRun r = run_schedule(s, nullptr);
      print_outcome("plain", index, r, s);
      bool ok = r.outcome.ok();
      ++attempted;
      wall += r.wall_s;
      sim += sim_secs(r.outcome.finished_at);
      if (pass == 0) {
        allocs += r.allocs;
        msgs += r.app_msgs;
      }
      if (o.trace) {
        // rrcheck --replay --trace-out --metrics-out: the same run with both
        // exports captured. Its metrics export is where the counters come from.
        // The exports run inside ScheduleExplorer::run, so obs.export_s stays
        // 0 here: the difference of two whole runs is noise at this size.
        check::RunCapture capture;
        capture.want_trace_json = true;
        capture.want_metrics_json = true;
        const ExploreRun t = run_schedule(s, &capture);
        print_outcome("traced", index, t, s);
        ok = ok && t.outcome.ok() && t.outcome.state_hash == r.outcome.state_hash &&
             t.outcome.finished_at == r.outcome.finished_at &&
             t.outcome.phase_events == r.outcome.phase_events;
        run_s.push_back(r.wall_s);
        overhead.push_back(t.wall_s / r.wall_s - 1.0);
        injected += r.outcome.injections_applied;
        const std::string& json = capture.metrics_json;
        Counters c;
        c.app_delivered = json_counter(json, "app.delivered");
        c.app_sent = json_counter(json, "app.sent");
        c.piggyback_dets = json_counter(json, "fbl.piggyback_dets");
        c.piggyback_bytes = json_counter(json, "fbl.piggyback_bytes");
        c.net_packets = json_counter(json, "net.packets");
        c.net_bytes = json_counter(json, "net.bytes");
        c.storage_ops = json_counter(json, "storage.reads") +
                        json_counter(json, "storage.writes") +
                        json_counter(json, "storage.erases");
        c.storage_bytes_written = json_counter(json, "storage.bytes_written");
        c.recoveries = r.outcome.recoveries;
        ledger_split(r.outcome.ledger_bytes, c);
        counters.add(c);
      }
      if (!ok) ++failed;
    }
    pass_ns = now_ns() - pass_start;
  }
  const double rate = static_cast<double>(attempted) / wall;
  const double sweep_h = static_cast<double>(matrix.size()) / rate / 3600.0;
  std::printf("explorer: %zu schedules in the matrix; %.4f schedules/s serial; "
              "projected serial full sweep %.2f h\n",
              matrix.size(), rate, sweep_h);
  if (!o.trace) {
    print_result(failed == 0, attempted, failed,
                 {{"setup_s", median(setups), "s"},
                  {"sim_s_per_wall_s", sim / wall, "sim_s/s"},
                  {"schedules_per_s", rate, "1/s"},
                  {"allocs_per_app_msg",
                   ratio(static_cast<double>(allocs), static_cast<double>(msgs)), "count/msg"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}});
    return 0;
  }
  LayerReport l;
  const auto runs = static_cast<double>(attempted);
  counters.report(l, runs);
  l.run_s_p50 = median(run_s);
  l.run_s_max = *std::max_element(run_s.begin(), run_s.end());
  l.injections_applied = static_cast<double>(injected) / runs;
  l.matrix_schedules = static_cast<double>(matrix.size());
  l.full_sweep_h = sweep_h;
  l.fail_share = static_cast<double>(failed) / runs;
  l.tracing_overhead = median(overhead);
  print_result(failed == 0, attempted, failed, l.metrics());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.workload == Workload::kExplore) return run_explore(o);
  return o.trace ? run_cluster_traced(o) : run_cluster_plain(o);
}
