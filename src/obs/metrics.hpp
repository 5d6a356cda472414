// Named counters, gauges and histograms for the simulation stack.
//
// The uniform metrics layer that absorbs the ad-hoc solver bookkeeping
// (SolverDiagnostics' cg_iterations / cache_hits / warm_starts /
// faults_injected counters keep riding in the structs for per-result
// reporting, but every producer also publishes into the process-global
// Registry, so one snapshot covers a whole run regardless of which sweep
// engine drove it). The registry renders as a text block and as the
// `metrics` object of the JSON report (sim/json_report.cpp).
//
// Conventions: dotted lowercase names prefixed by layer
// ("spice.cg_iterations", "nn.mc_draws", "dse.design_points").
// Counters are monotonic longs, gauges are last-write-wins doubles,
// histograms record count/sum/min/max of observed values.
//
// Thread-safe; collection is O(map lookup) under one mutex and producers
// publish per solve / per sweep, never per inner iteration, so the cost
// is unmeasurable next to the work being counted. Disabling the registry
// ([trace] Metrics = false) turns every producer into a no-op.
//
// Like obs/trace.hpp this header is a dependency leaf (std only).
#pragma once

#include <atomic>
#include <map>
#include <string>

#include "util/thread_safety.hpp"

namespace mnsim::obs {

class Registry {
 public:
  Registry() = default;  // local registries for tests
  static Registry& global();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  struct Histogram {
    long count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  // Producers. No-ops while disabled.
  void add(const std::string& name, long delta = 1);     // counter
  void set(const std::string& name, double value);       // gauge
  void observe(const std::string& name, double value);   // histogram

  void set_enabled(bool enabled) {
    // mnsim-analyze: allow(atomic-order, on/off knob read per publish; no data travels with it)
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    // mnsim-analyze: allow(atomic-order, fast-path gate; producers lock mutex_ before touching maps)
    return enabled_.load(std::memory_order_relaxed);
  }

  // Consumers (snapshots under the lock; safe during concurrent writes).
  [[nodiscard]] long counter(const std::string& name) const;  // 0 if absent
  [[nodiscard]] std::map<std::string, long> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, Histogram> histograms() const;
  [[nodiscard]] bool empty() const;

  // {"counters": {...}, "gauges": {...}, "histograms": {"name":
  // {"count": n, "sum": s, "min": lo, "max": hi}}} — keys sorted, so the
  // output is deterministic for a given state.
  [[nodiscard]] std::string to_json() const;

  void reset();

 private:
  // A consistent cross-category snapshot (to_json) must copy all three
  // maps under one critical section, never via three separate accessor
  // calls — see snapshot() in metrics.cpp.
  struct Snapshot {
    std::map<std::string, long> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const MN_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{true};
  mutable util::Mutex mutex_;
  std::map<std::string, long> counters_ MN_GUARDED_BY(mutex_);
  std::map<std::string, double> gauges_ MN_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ MN_GUARDED_BY(mutex_);
};

}  // namespace mnsim::obs
