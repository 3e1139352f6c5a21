#include "check/schedule.hpp"

#include <charconv>
#include <cstdio>

namespace rr::check {

namespace {

/// Consume an unsigned integer at the front of `s`; false if none there.
bool eat_u64(std::string_view& s, std::uint64_t& out) {
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr == first) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - first));
  return true;
}

/// Consume the literal `tok` at the front of `s`; false if absent.
bool eat(std::string_view& s, std::string_view tok) {
  if (!s.starts_with(tok)) return false;
  s.remove_prefix(tok.size());
  return true;
}

bool eat_pid(std::string_view& s, ProcessId& out) {
  std::uint64_t v = 0;
  if (!eat_u64(s, v) || v > 0xfffffffeULL) return false;
  out = ProcessId{static_cast<std::uint32_t>(v)};
  return true;
}

std::string_view take_until(std::string_view& s, char sep) {
  const auto pos = s.find(sep);
  std::string_view head = s.substr(0, pos);
  s.remove_prefix(pos == std::string_view::npos ? s.size() : pos + 1);
  return head;
}

}  // namespace

std::string to_string(const Injection& inj) {
  char buf[160];
  switch (inj.kind) {
    case Injection::Kind::kCrashAt:
      std::snprintf(buf, sizeof buf, "crash:%u@%lld", inj.victim.value,
                    static_cast<long long>(inj.at));
      break;
    case Injection::Kind::kPhaseCrash: {
      char victim[16];
      if (inj.victim == Injection::kFirer) {
        std::snprintf(victim, sizeof victim, "L");
      } else {
        std::snprintf(victim, sizeof victim, "%u", inj.victim.value);
      }
      if (inj.delay > 0) {
        std::snprintf(buf, sizeof buf, "pcrash:%s@%s#%u+%lld", victim,
                      trace::to_string(inj.phase), inj.occurrence,
                      static_cast<long long>(inj.delay));
      } else {
        std::snprintf(buf, sizeof buf, "pcrash:%s@%s#%u", victim,
                      trace::to_string(inj.phase), inj.occurrence);
      }
      break;
    }
    case Injection::Kind::kDrop:
      std::snprintf(buf, sizeof buf, "drop:%u-%u@%llux%u", inj.src.value, inj.dst.value,
                    static_cast<unsigned long long>(inj.index), inj.count);
      break;
    case Injection::Kind::kDelay:
      std::snprintf(buf, sizeof buf, "delay:%u-%u@%llux%u+%lld", inj.src.value,
                    inj.dst.value, static_cast<unsigned long long>(inj.index), inj.count,
                    static_cast<long long>(inj.delay));
      break;
    case Injection::Kind::kStale:
      std::snprintf(buf, sizeof buf, "stale:%u-%u@%llu+%lld", inj.src.value, inj.dst.value,
                    static_cast<unsigned long long>(inj.index),
                    static_cast<long long>(inj.delay));
      break;
    case Injection::Kind::kStall:
      std::snprintf(buf, sizeof buf, "sstall:%u@%llux%u+%lld", inj.victim.value,
                    static_cast<unsigned long long>(inj.index), inj.count,
                    static_cast<long long>(inj.delay));
      break;
    case Injection::Kind::kLoss:
      std::snprintf(buf, sizeof buf, "loss:%u-%u@%llu", inj.src.value, inj.dst.value,
                    static_cast<unsigned long long>(inj.index));
      break;
    case Injection::Kind::kLossBurst:
      std::snprintf(buf, sizeof buf, "lossburst:%u-%u@%llux%u", inj.src.value, inj.dst.value,
                    static_cast<unsigned long long>(inj.index), inj.count);
      break;
    case Injection::Kind::kDup:
      std::snprintf(buf, sizeof buf, "dup:%u-%u@%llux%u", inj.src.value, inj.dst.value,
                    static_cast<unsigned long long>(inj.index), inj.count);
      break;
    case Injection::Kind::kPartition:
      std::snprintf(buf, sizeof buf, "partition:%u@%lld+%lld", inj.victim.value,
                    static_cast<long long>(inj.at), static_cast<long long>(inj.delay));
      break;
    case Injection::Kind::kFlap:
      std::snprintf(buf, sizeof buf, "flap:%u@%lld+%lldx%u", inj.victim.value,
                    static_cast<long long>(inj.at), static_cast<long long>(inj.delay),
                    inj.count);
      break;
    case Injection::Kind::kTreeCrash:
      if (inj.delay > 0) {
        std::snprintf(buf, sizeof buf, "treecrash:%llu@%u+%lld",
                      static_cast<unsigned long long>(inj.index), inj.occurrence,
                      static_cast<long long>(inj.delay));
      } else {
        std::snprintf(buf, sizeof buf, "treecrash:%llu@%u",
                      static_cast<unsigned long long>(inj.index), inj.occurrence);
      }
      break;
  }
  return buf;
}

bool parse_injection(std::string_view s, Injection& out) {
  Injection inj;
  std::uint64_t v = 0;
  if (eat(s, "crash:")) {
    inj.kind = Injection::Kind::kCrashAt;
    if (!eat_pid(s, inj.victim) || !eat(s, "@") || !eat_u64(s, v)) return false;
    inj.at = static_cast<Time>(v);
  } else if (eat(s, "pcrash:")) {
    inj.kind = Injection::Kind::kPhaseCrash;
    if (eat(s, "L")) {
      inj.victim = Injection::kFirer;
    } else if (!eat_pid(s, inj.victim)) {
      return false;
    }
    if (!eat(s, "@")) return false;
    const auto hash = s.find('#');
    if (hash == std::string_view::npos) return false;
    const std::string phase_name(s.substr(0, hash));
    if (!trace::parse_phase(phase_name.c_str(), inj.phase)) return false;
    s.remove_prefix(hash + 1);
    if (!eat_u64(s, v) || v == 0 || v > 0xffffffffULL) return false;
    inj.occurrence = static_cast<std::uint32_t>(v);
    if (eat(s, "+")) {
      if (!eat_u64(s, v)) return false;
      inj.delay = static_cast<Duration>(v);
    }
  } else if (s.starts_with("drop:") || s.starts_with("delay:")) {
    inj.kind = eat(s, "drop:") ? Injection::Kind::kDrop
                               : (eat(s, "delay:"), Injection::Kind::kDelay);
    if (!eat_pid(s, inj.src) || !eat(s, "-") || !eat_pid(s, inj.dst) || !eat(s, "@") ||
        !eat_u64(s, inj.index) || !eat(s, "x") || !eat_u64(s, v) || v == 0 ||
        v > 0xffffffffULL) {
      return false;
    }
    inj.count = static_cast<std::uint32_t>(v);
    if (inj.kind == Injection::Kind::kDelay) {
      if (!eat(s, "+") || !eat_u64(s, v)) return false;
      inj.delay = static_cast<Duration>(v);
    }
  } else if (eat(s, "stale:")) {
    inj.kind = Injection::Kind::kStale;
    if (!eat_pid(s, inj.src) || !eat(s, "-") || !eat_pid(s, inj.dst) || !eat(s, "@") ||
        !eat_u64(s, inj.index) || !eat(s, "+") || !eat_u64(s, v)) {
      return false;
    }
    inj.delay = static_cast<Duration>(v);
  } else if (eat(s, "sstall:")) {
    inj.kind = Injection::Kind::kStall;
    if (!eat_pid(s, inj.victim) || !eat(s, "@") || !eat_u64(s, inj.index) ||
        !eat(s, "x") || !eat_u64(s, v) || v == 0 || v > 0xffffffffULL) {
      return false;
    }
    inj.count = static_cast<std::uint32_t>(v);
    if (!eat(s, "+") || !eat_u64(s, v) || v == 0) return false;
    inj.delay = static_cast<Duration>(v);
  } else if (eat(s, "lossburst:")) {
    // Checked before "loss:" for clarity; the trailing ':' already keeps the
    // two prefixes from shadowing each other.
    inj.kind = Injection::Kind::kLossBurst;
    if (!eat_pid(s, inj.src) || !eat(s, "-") || !eat_pid(s, inj.dst) || !eat(s, "@") ||
        !eat_u64(s, inj.index) || !eat(s, "x") || !eat_u64(s, v) || v == 0 ||
        v > 0xffffffffULL) {
      return false;
    }
    inj.count = static_cast<std::uint32_t>(v);
  } else if (eat(s, "loss:")) {
    inj.kind = Injection::Kind::kLoss;
    if (!eat_pid(s, inj.src) || !eat(s, "-") || !eat_pid(s, inj.dst) || !eat(s, "@") ||
        !eat_u64(s, inj.index) || inj.index == 0 || inj.index > 1000000) {
      return false;
    }
  } else if (eat(s, "dup:")) {
    inj.kind = Injection::Kind::kDup;
    if (!eat_pid(s, inj.src) || !eat(s, "-") || !eat_pid(s, inj.dst) || !eat(s, "@") ||
        !eat_u64(s, inj.index) || !eat(s, "x") || !eat_u64(s, v) || v == 0 ||
        v > 0xffffffffULL) {
      return false;
    }
    inj.count = static_cast<std::uint32_t>(v);
  } else if (eat(s, "treecrash:")) {
    inj.kind = Injection::Kind::kTreeCrash;
    if (!eat_u64(s, inj.index) || !eat(s, "@") || !eat_u64(s, v) || v == 0 ||
        v > 0xffffffffULL) {
      return false;
    }
    inj.occurrence = static_cast<std::uint32_t>(v);
    if (eat(s, "+")) {
      if (!eat_u64(s, v)) return false;
      inj.delay = static_cast<Duration>(v);
    }
  } else if (s.starts_with("partition:") || s.starts_with("flap:")) {
    inj.kind = eat(s, "partition:") ? Injection::Kind::kPartition
                                    : (eat(s, "flap:"), Injection::Kind::kFlap);
    if (!eat_pid(s, inj.victim) || !eat(s, "@") || !eat_u64(s, v)) return false;
    inj.at = static_cast<Time>(v);
    if (!eat(s, "+") || !eat_u64(s, v) || v == 0) return false;
    inj.delay = static_cast<Duration>(v);
    if (inj.kind == Injection::Kind::kFlap) {
      if (!eat(s, "x") || !eat_u64(s, v) || v == 0 || v > 0xffffffffULL) return false;
      inj.count = static_cast<std::uint32_t>(v);
    }
  } else {
    return false;
  }
  if (!s.empty()) return false;
  out = inj;
  return true;
}

const char* algorithm_token(recovery::Algorithm a) {
  switch (a) {
    case recovery::Algorithm::kNonBlocking: return "nonblocking";
    case recovery::Algorithm::kBlocking: return "blocking";
    case recovery::Algorithm::kDeferUnsafe: return "defer";
  }
  return "?";
}

bool parse_algorithm(std::string_view token, recovery::Algorithm& out) {
  if (token == "nonblocking" || token == "nb") {
    out = recovery::Algorithm::kNonBlocking;
  } else if (token == "blocking") {
    out = recovery::Algorithm::kBlocking;
  } else if (token == "defer") {
    out = recovery::Algorithm::kDeferUnsafe;
  } else {
    return false;
  }
  return true;
}

bool FaultSchedule::needs_reliable() const {
  for (const Injection& inj : injections) {
    switch (inj.kind) {
      case Injection::Kind::kLoss:
      case Injection::Kind::kLossBurst:
      case Injection::Kind::kDup:
      case Injection::Kind::kPartition:
      case Injection::Kind::kFlap:
        return true;
      default:
        break;
    }
  }
  return false;
}

std::string FaultSchedule::format() const {
  std::string out;
  out.reserve(128);
  char buf[128];
  std::snprintf(buf, sizeof buf, "seed=%llu,n=%u,f=%u,alg=%s,horizon=%lld,idle=%lld",
                static_cast<unsigned long long>(seed), n, f, algorithm_token(algorithm),
                static_cast<long long>(horizon), static_cast<long long>(idle_deadline));
  out += buf;
  if (restart != FaultSchedule{}.restart) {
    std::snprintf(buf, sizeof buf, ",restart=%lld", static_cast<long long>(restart));
    out += buf;
  }
  if (arity != 0) {
    std::snprintf(buf, sizeof buf, ",arity=%u", arity);
    out += buf;
  }
  if (tokens != 0) {
    std::snprintf(buf, sizeof buf, ",tokens=%u", tokens);
    out += buf;
  }
  if (seeded_bug) out += ",bug=skip-gather-restart";
  out += ",schedule=";
  for (std::size_t i = 0; i < injections.size(); ++i) {
    if (i > 0) out += ';';
    out += to_string(injections[i]);
  }
  return out;
}

std::string FaultSchedule::replay_line() const { return "--replay " + format(); }

bool FaultSchedule::parse(std::string_view text, FaultSchedule& out) {
  FaultSchedule s;
  s.injections.clear();
  eat(text, "--replay ");
  bool saw_schedule = false;
  while (!text.empty()) {
    const auto eq = text.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string_view key = text.substr(0, eq);
    text.remove_prefix(eq + 1);
    if (key == "schedule") {
      // Everything after "schedule=" is the injection list; must be last.
      saw_schedule = true;
      while (!text.empty()) {
        const std::string_view item = take_until(text, ';');
        if (item.empty()) continue;
        Injection inj;
        if (!parse_injection(item, inj)) return false;
        s.injections.push_back(inj);
      }
      break;
    }
    const std::string_view value = take_until(text, ',');
    std::string_view rest = value;
    std::uint64_t v = 0;
    if (key == "seed") {
      if (!eat_u64(rest, v) || !rest.empty()) return false;
      s.seed = v;
    } else if (key == "n") {
      if (!eat_u64(rest, v) || !rest.empty() || v == 0 || v > 1024) return false;
      s.n = static_cast<std::uint32_t>(v);
    } else if (key == "f") {
      if (!eat_u64(rest, v) || !rest.empty() || v == 0 || v > 1024) return false;
      s.f = static_cast<std::uint32_t>(v);
    } else if (key == "alg") {
      if (!parse_algorithm(value, s.algorithm)) return false;
    } else if (key == "horizon") {
      if (!eat_u64(rest, v) || !rest.empty()) return false;
      s.horizon = static_cast<Time>(v);
    } else if (key == "idle") {
      if (!eat_u64(rest, v) || !rest.empty()) return false;
      s.idle_deadline = static_cast<Time>(v);
    } else if (key == "restart") {
      if (!eat_u64(rest, v) || !rest.empty() || v == 0) return false;
      s.restart = static_cast<Duration>(v);
    } else if (key == "arity") {
      if (!eat_u64(rest, v) || !rest.empty() || v == 0 || v > 1024) return false;
      s.arity = static_cast<std::uint32_t>(v);
    } else if (key == "tokens") {
      if (!eat_u64(rest, v) || !rest.empty() || v == 0 || v > 1024) return false;
      s.tokens = static_cast<std::uint32_t>(v);
    } else if (key == "bug") {
      if (value != "skip-gather-restart") return false;
      s.seeded_bug = true;
    } else {
      return false;
    }
  }
  if (!saw_schedule || s.f > s.n) return false;
  out = std::move(s);
  return true;
}

}  // namespace rr::check
