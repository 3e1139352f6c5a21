// Fault schedules: the deterministic coordinate system of the explorer.
//
// A FaultSchedule names one complete experiment — cluster shape, seed,
// horizon and a list of injections — such that executing it twice yields
// bit-identical simulations. Injections are addressed by coordinates that
// survive re-execution: absolute virtual time for plain crashes, *protocol
// phase occurrences* for phase crashes (see trace/phase_hook.hpp), and
// per-channel send indices for packet faults (see net::FaultHook).
//
// The whole schedule round-trips through a single `--replay` line, so a
// failing run shrunk by the explorer can be handed around as one string:
//
//   --replay seed=7,n=4,f=2,alg=nonblocking,
//            schedule=crash:1@2000000000;pcrash:L@gather-started#1
//
// Injection grammar (all times/durations in integer nanoseconds):
//   crash:<pid>@<ns>                  crash <pid> at absolute time <ns>
//   pcrash:<pid|L>@<phase>#<k>[+<d>]  crash <pid> (or L = whichever process
//                                     fired the event) <d> after the k-th
//                                     global occurrence of <phase>
//   drop:<src>-<dst>@<i>x<c>          drop app frames <i>..<i+c-1> on the
//                                     src->dst channel (control frames pass)
//   delay:<src>-<dst>@<i>x<c>+<d>     add <d> to sends <i>..<i+c-1> on the
//                                     channel (applied before the FIFO
//                                     horizon; never reorders)
//   stale:<src>-<dst>@<i>+<d>         re-inject a copy of app frame <i> on
//                                     the channel, delivered <d> after the
//                                     original send (models the stale
//                                     straggler incvectors must reject)
//   sstall:<pid>@<i>x<c>+<d>          stall operations <i>..<i+c-1> of
//                                     <pid>'s stable-storage device by <d>
//                                     each (a retried seek / remapped
//                                     block; queued ops shift behind it)
//   loss:<src>-<dst>@<ppm>            make the src->dst channel lossy: each
//                                     send (any frame kind) dies with
//                                     probability <ppm>/1e6, drawn by a
//                                     stateless hash of the schedule seed
//                                     and the send index
//   lossburst:<src>-<dst>@<i>x<c>     drop sends <i>..<i+c-1> on the channel
//                                     outright — all frame kinds, unlike
//                                     drop: (a dead interval, not app-only)
//   dup:<src>-<dst>@<i>x<c>           re-deliver a copy of sends
//                                     <i>..<i+c-1> shortly after the
//                                     original (receive-side dedup must
//                                     suppress them)
//   partition:<pid>@<t>+<d>           bidirectionally isolate <pid> from
//                                     everyone at absolute time <t>, heal
//                                     at <t>+<d>
//   flap:<pid>@<t>+<d>x<c>            <c> cycles of [isolated <d>, healed
//                                     <d>] starting at <t> (a flapping link)
//   treecrash:<i>@<k>[+<d>]           crash the <i>-th (0-based) gather-tree
//                                     participant <d> after the k-th global
//                                     gather-started firing — addresses tree
//                                     positions (interior nodes, leaves)
//                                     without hardcoding pids; resolved
//                                     against the firing round's live set
//
// The loss/lossburst/dup/partition/flap coordinates degrade the fabric
// below the paper's reliable-FIFO assumption, so running them implies the
// reliable transport (FaultSchedule::needs_reliable(); the explorer enables
// net::TransportConfig automatically).
//
// Optional key=value fields besides the cluster shape: `arity=<k>` sets the
// gather-tree fan-out (0 = flat broadcast+collect); `restart=<ns>` sets
// the supervisor restart delay — stretch it past the failure-detector
// timeout and a crashed leader stays silent long enough to be suspected,
// which is what makes the next-ordinal failover reachable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "trace/phase_hook.hpp"
#include "recovery/recovery_manager.hpp"

namespace rr::check {

/// One fault, addressable by a coordinate that is stable across re-runs.
struct Injection {
  enum class Kind : std::uint8_t {
    kCrashAt,
    kPhaseCrash,
    kDrop,
    kDelay,
    kStale,
    kStall,
    kLoss,       ///< probabilistic per-send loss on one channel (index = ppm)
    kLossBurst,  ///< deterministic dead interval on one channel (all kinds)
    kDup,        ///< duplicate sends i..i+c-1 on one channel
    kPartition,  ///< bidirectional isolation of victim over [at, at+delay)
    kFlap,       ///< count cycles of [isolated delay][healed delay] from at
    kTreeCrash,  ///< crash the index-th gather-tree participant at the
                 ///< occurrence-th gather-started firing (+delay)
  };

  /// Wildcard victim for kPhaseCrash: crash whichever process fired the
  /// phase event (printed as "L" — in practice the round leader).
  static constexpr ProcessId kFirer{};

  Kind kind{Kind::kCrashAt};

  ProcessId victim{0};    ///< kCrashAt / kPhaseCrash (kFirer = event source) / kStall /
                          ///< kPartition / kFlap
  Time at{0};             ///< kCrashAt / kPartition / kFlap: absolute time
  trace::PhaseId phase{trace::PhaseId::kLeaderElected};  ///< kPhaseCrash
  std::uint32_t occurrence{1};  ///< kPhaseCrash: 1-based k-th global firing
  Duration delay{0};      ///< kPhaseCrash/kStale/kDelay/kStall extra duration;
                          ///< kPartition/kFlap: isolation window length

  ProcessId src{0};       ///< kDrop/kDelay/kStale/kLoss/kLossBurst/kDup: channel source
  ProcessId dst{0};       ///< kDrop/kDelay/kStale/kLoss/kLossBurst/kDup: channel destination
  std::uint64_t index{0}; ///< first affected send (channel) or op (storage) index;
                          ///< kLoss: loss probability in parts per million (<= 1000000);
                          ///< kTreeCrash: 0-based participant index in the gather tree
  std::uint32_t count{1}; ///< kDrop/kDelay/kStall/kLossBurst/kDup: consecutive indices;
                          ///< kFlap: number of [down][up] cycles

  friend bool operator==(const Injection&, const Injection&) = default;
};

/// Renders the grammar above; parse_injection() inverts it exactly.
[[nodiscard]] std::string to_string(const Injection& inj);
[[nodiscard]] bool parse_injection(std::string_view text, Injection& out);

/// CLI token for an algorithm ("nonblocking" | "blocking" | "defer").
[[nodiscard]] const char* algorithm_token(recovery::Algorithm a);
[[nodiscard]] bool parse_algorithm(std::string_view token, recovery::Algorithm& out);

/// A complete, self-contained experiment description.
struct FaultSchedule {
  std::uint32_t n{4};
  std::uint32_t f{1};
  recovery::Algorithm algorithm{recovery::Algorithm::kNonBlocking};
  std::uint64_t seed{1};
  /// Minimum virtual time to simulate.
  Time horizon{seconds(6)};
  /// Give up on termination past this point (the run is then a failure).
  Time idle_deadline{seconds(40)};
  /// Supervisor restart delay (`restart=<ns>`, optional). A value above the
  /// failure-detector timeout keeps a crashed process silent long enough to
  /// be *suspected* — the only road to the paper's next-ordinal failover,
  /// since a restarting process re-announces itself immediately.
  Duration restart{milliseconds(600)};
  /// Gather-tree fan-out (`arity=<k>`, optional): RecoveryConfig::
  /// gather_arity. 0 = the flat broadcast+collect the paper describes.
  std::uint32_t arity{0};
  /// Sparse workload (`tokens=<k>`, optional): only the first k processes
  /// seed a gossip token, so large-n schedules keep the application load
  /// fixed instead of O(n). 0 = the historical one-token-per-process
  /// workload — every existing schedule line is unchanged.
  std::uint32_t tokens{0};
  /// Arms RecoveryConfig::bug_skip_gather_restart (the deliberately seeded
  /// protocol bug the explorer exists to catch).
  bool seeded_bug{false};
  std::vector<Injection> injections;

  friend bool operator==(const FaultSchedule&, const FaultSchedule&) = default;

  /// True when any injection degrades the fabric below reliable FIFO
  /// (loss / lossburst / dup / partition / flap) — such schedules are run
  /// with the reliable transport enabled.
  [[nodiscard]] bool needs_reliable() const;

  /// One-line key=value form; parse() inverts it exactly.
  [[nodiscard]] std::string format() const;
  /// format() prefixed with "--replay " — the shape rrcheck accepts back.
  [[nodiscard]] std::string replay_line() const;
  /// Accepts format() output, with or without a leading "--replay ".
  [[nodiscard]] static bool parse(std::string_view text, FaultSchedule& out);
};

}  // namespace rr::check
