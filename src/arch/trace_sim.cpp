#include "arch/trace_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "check/diagnostic.hpp"

namespace mnsim::arch {

TraceSimResult simulate_trace(const AcceleratorReport& report,
                              long max_recorded_events) {
  // Pre-flight over the input report: the trace walks pass latencies and
  // iteration counts, so a malformed report (no banks, non-finite or
  // negative timing) would loop forever or emit NaN schedules. Refuse
  // with coded diagnostics instead.
  {
    check::DiagnosticList diags;
    if (report.banks.empty())
      diags.emit("MN-TRC-001", check::Severity::kError,
                 "trace simulation needs at least one computation bank");
    if (max_recorded_events < 0)
      diags.emit("MN-TRC-002", check::Severity::kError,
                 "event cap must be non-negative, got " +
                     std::to_string(max_recorded_events));
    for (std::size_t b = 0; b < report.banks.size(); ++b) {
      const auto& bank = report.banks[b];
      // isfinite first: an ordered compare on a NaN raises FE_INVALID.
      if (!std::isfinite(bank.pass_latency) || bank.pass_latency < 0 ||
          bank.pass_latency >= 1e30) {
        diags.emit("MN-TRC-003", check::Severity::kError,
                   "bank " + std::to_string(b) +
                       " has a non-finite or negative pass latency")
            .location = "bank " + std::to_string(b);
      }
      if (bank.iterations < 0) {
        diags.emit("MN-TRC-004", check::Severity::kError,
                   "bank " + std::to_string(b) +
                       " has a negative iteration count")
            .location = "bank " + std::to_string(b);
      }
    }
    if (diags.has_errors()) throw check::CheckError(std::move(diags));
  }

  const std::size_t bank_count = report.banks.size();
  TraceSimResult result;
  result.bank_start.assign(bank_count, 0.0);
  result.bank_finish.assign(bank_count, 0.0);
  result.bank_busy.assign(bank_count, 0.0);
  result.bank_utilization.assign(bank_count, 0.0);

  // finish_time[b][k] is only needed for the *consumer's* ready query;
  // store each upstream bank's completed-pass finish times compactly as
  // the time its pass index p completed (passes run back-to-back once
  // started, but starts can stall on upstream data, so keep the vector).
  std::vector<std::vector<double>> finish_times(bank_count);

  for (std::size_t b = 0; b < bank_count; ++b) {
    const auto& bank = report.banks[b];
    const long passes = bank.iterations;
    const double pass_latency = bank.pass_latency;
    result.total_passes += passes;
    result.serial_makespan += static_cast<double>(passes) * pass_latency;
    finish_times[b].resize(static_cast<std::size_t>(passes));

    const long up_passes =
        b > 0 ? report.banks[b - 1].iterations : 0;
    const long up_warmup =
        b > 0 ? std::min(report.banks[b - 1].warmup_passes, up_passes) : 0;

    double prev_end = 0.0;
    for (long k = 0; k < passes; ++k) {
      // Upstream data dependency: the producer must have finished its
      // warm-up plus the proportional share feeding this pass.
      double ready = 0.0;
      if (b > 0) {
        const long streamed =
            passes > 1
                ? (k * std::max<long>(up_passes - up_warmup, 0)) /
                      std::max<long>(passes - 1, 1)
                : up_passes - up_warmup;
        const long needed =
            std::min<long>(up_passes, up_warmup + streamed);
        if (needed > 0)
          ready = finish_times[b - 1][static_cast<std::size_t>(needed - 1)];
      }
      const double start = std::max(prev_end, ready);
      const double end = start + pass_latency;
      finish_times[b][static_cast<std::size_t>(k)] = end;
      prev_end = end;

      if (k == 0) result.bank_start[b] = start;
      result.bank_busy[b] += pass_latency;
      if (static_cast<long>(result.events.size()) < max_recorded_events)
        result.events.push_back({static_cast<int>(b), k, start, end});
    }
    result.bank_finish[b] = prev_end;
    const double span = result.bank_finish[b] - result.bank_start[b];
    // span == 0 means the bank never ran (zero passes): it is idle, not
    // perfectly utilized.
    result.bank_utilization[b] = span > 0 ? result.bank_busy[b] / span : 0.0;
    result.makespan = std::max(result.makespan, result.bank_finish[b]);
  }
  return result;
}

}  // namespace mnsim::arch
