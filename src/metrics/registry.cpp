#include "metrics/registry.hpp"

#include <cstdio>

namespace rr::metrics {

namespace {

template <typename Map>
const typename Map::mapped_type* find_in(const Map& map, std::string_view name) {
  const auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}

template <typename Map>
typename Map::mapped_type& cell_in(Map& map, std::string_view name) {
  const auto it = map.lower_bound(name);
  if (it != map.end() && it->first == name) return it->second;
  return map.try_emplace(it, std::string(name))->second;
}

template <typename Map>
std::vector<std::string> names_of(const Map& map) {
  std::vector<std::string> out;
  out.reserve(map.size());
  for (const auto& [k, v] : map) out.push_back(k);
  return out;
}

}  // namespace

Counter& Registry::counter(std::string_view name) { return cell_in(counters_, name); }

Accumulator& Registry::accum(std::string_view name) { return cell_in(accums_, name); }

Histogram& Registry::histogram(std::string_view name) { return cell_in(histograms_, name); }

std::uint64_t Registry::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value();
}

const Counter* Registry::find_counter(std::string_view name) const {
  return find_in(counters_, name);
}

const Accumulator* Registry::find_accum(std::string_view name) const {
  return find_in(accums_, name);
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  return find_in(histograms_, name);
}

std::vector<std::string> Registry::counter_names() const { return names_of(counters_); }

std::vector<std::string> Registry::accum_names() const { return names_of(accums_); }

std::vector<std::string> Registry::histogram_names() const { return names_of(histograms_); }

void Registry::reset() {
  counters_.clear();
  accums_.clear();
  histograms_.clear();
}

std::string Registry::dump() const {
  std::string out;
  char line[256];
  for (const auto& [k, c] : counters_) {
    std::snprintf(line, sizeof line, "%-48s %llu\n", k.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += line;
  }
  for (const auto& [k, a] : accums_) {
    std::snprintf(line, sizeof line, "%-48s n=%llu mean=%.3f min=%.3f max=%.3f\n", k.c_str(),
                  static_cast<unsigned long long>(a.count()), a.mean(), a.min(), a.max());
    out += line;
  }
  for (const auto& [k, h] : histograms_) {
    std::snprintf(line, sizeof line, "%-48s n=%llu mean=%.3f p50=%.0f p90=%.0f p99=%.0f\n",
                  k.c_str(), static_cast<unsigned long long>(h.count()), h.mean(), h.p50(),
                  h.p90(), h.p99());
    out += line;
  }
  return out;
}

}  // namespace rr::metrics
