// Workload interface of the benchmark.
//
// A workload is built once per set-up from a seed (all inputs generated
// then) and exposes a fixed list of calls — one round. The runner replays
// the round in a closed loop (one client, each call issued after the
// previous one returns, every library call single-threaded) until the
// run's time is spent, so every run measures the same mix of work.
//
// Each call times exactly one public library call (the "main" call) and
// checks its outputs outside the timed region. In the traced phase the
// runner hands the call a Probe: the call then also times the public
// functions of each layer underneath the main call, by calling them
// again on the same inputs, and records those times under the per-layer
// metric names. The main call's outputs are the same in both phases.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

// Every simulated value a call produced, folded into a 64-bit FNV-1a
// digest of the exact bit patterns, plus a few key values that the
// reference file records verbatim.
class Outputs {
 public:
  void add(double value);
  void add(long value) { add(static_cast<double>(value)); }
  // Adds `value` and records it as a key value.
  void key(double value);

  [[nodiscard]] std::uint64_t digest() const { return hash_; }
  [[nodiscard]] const std::vector<double>& keys() const { return keys_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
  std::vector<double> keys_;
};

struct CallResult {
  double seconds = 0.0;        // wall time of the main public call
  long ops = 0;                // operations the call attempted
  long failed = 0;             // ops that threw, diverged or failed a check
  long expected_failures = 0;  // ops that failed as the workload predicts
  Outputs outputs;
  std::string error;           // first check failure, for the log

  // Records a failed check on `ops` operations (capped at the call's).
  void fail(long ops_failed, const std::string& why);
};

// Per-layer timers and counts recorded by the benchmark around public
// library calls, during the traced phase only.
class Probe {
 public:
  struct Timer {
    double seconds = 0.0;
    long calls = 0;
  };

  // Times one call of a layer's public function under `name`.
  template <typename Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    Timer& t = timers_[name];
    ++t.calls;
    return timed(&t.seconds, fn);
  }
  void add_time(const std::string& name, double seconds, long calls = 1);
  void count(const std::string& name, long n) { counts_[name] += n; }

  [[nodiscard]] const std::map<std::string, Timer>& timers() const {
    return timers_;
  }
  [[nodiscard]] long counter(const std::string& name) const;

 private:
  std::map<std::string, Timer> timers_;
  std::map<std::string, long> counts_;
};

// Inputs of a set-up: the seed and where the repository's data files are.
struct Env {
  std::uint32_t seed = 1;
  std::string root = ".";  // checkout root (examples/, results/)
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::size_t calls() const = 0;
  [[nodiscard]] virtual std::string label(std::size_t call) const = 0;
  // Runs call `call` of the round; `probe` is null outside the traced
  // phase. Never throws: failures are recorded in the result.
  virtual CallResult run(std::size_t call, Probe* probe) = 0;
  // In-program span names (obs::Tracer) this workload must produce.
  [[nodiscard]] virtual std::vector<std::string> expected_spans() const = 0;
  // Per-layer metrics only this workload can derive (from its own
  // bookkeeping over the traced phase), added to `metrics`.
  virtual void derived_metrics(const Probe& probe,
                               std::map<std::string, double>& metrics) const;
};

// Set-up timers every workload shares: parsing the INI network and
// accelerator configuration from the repository's examples.
struct SetupTimes {
  double load_config_s = 0.0;
  double parse_network_s = 0.0;
};

// Factories; each performs the whole set-up including one untimed
// warm-up call. `times` receives the parse timings.
std::unique_ptr<Workload> make_xbar_cold(const Env& env, SetupTimes* times);
std::unique_ptr<Workload> make_xbar_sweep(const Env& env, SetupTimes* times);
std::unique_ptr<Workload> make_dse_sweep(const Env& env, SetupTimes* times);
std::unique_ptr<Workload> make_func_mc(const Env& env, SetupTimes* times);

// RMSE between the behaviour-level Eq. 11 estimate and the circuit-level
// error over the Fig. 5 worst-case grid (all cells at r_min); the
// paper's accuracy claim, reported on every workload.
double eq11_rmse();

}  // namespace perfbench
