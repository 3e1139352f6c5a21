// Named metric registry.
//
// Modules record into dotted names ("net.app.bytes", "recovery.gather.restarts").
// Lookups take a string_view and build a std::string only when a name is
// first created, so a hot-path call with a literal name never allocates.
// The registry is the bridge between protocol code and the experiment
// harness: benches read whichever names a scenario produced and print the
// paper's tables from them. Names are created on first use; reads of a
// never-written name return zero so table code stays branch-free.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/counters.hpp"

namespace rr::metrics {

class Registry {
 public:
  /// Counter cell for `name` (created zeroed on first use).
  Counter& counter(std::string_view name);
  /// Accumulator cell for `name` (created empty on first use).
  Accumulator& accum(std::string_view name);
  /// Histogram cell for `name` (created empty on first use).
  Histogram& histogram(std::string_view name);

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  /// Lookup without creating: nullptr when `name` was never written. One
  /// accessor per cell kind, all symmetric.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Accumulator* find_accum(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Names in sorted order, for dump/diff in tests.
  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> accum_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  void reset();

  /// Multi-line human-readable dump (sorted by name).
  [[nodiscard]] std::string dump() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Accumulator, std::less<>> accums_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace rr::metrics
