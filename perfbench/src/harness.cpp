#include "harness.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

void Outputs::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (bits >> (8 * byte)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Outputs::key(double value) {
  add(value);
  keys_.push_back(value);
}

void CallResult::fail(long ops_failed, const std::string& why) {
  failed = std::min(ops, failed + ops_failed);
  if (error.empty()) error = why;
}

void Probe::add_time(const std::string& name, double seconds, long calls) {
  Timer& t = timers_[name];
  t.seconds += seconds;
  t.calls += calls;
}

long Probe::counter(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

void Workload::derived_metrics(const Probe&,
                               std::map<std::string, double>&) const {}

}  // namespace perfbench
