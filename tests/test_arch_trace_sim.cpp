#include "arch/trace_sim.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "arch/pipeline.hpp"
#include "check/diagnostic.hpp"
#include "nn/topologies.hpp"
#include "check_testing.hpp"

namespace mnsim::arch {
namespace {

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 128;
  c.interconnect_node_nm = 45;
  return c;
}

TEST(TraceSim, MlpExecutesStrictlySequentially) {
  // FC banks need the whole upstream output: no overlap possible.
  auto rep = simulate_accelerator(nn::make_mlp({128, 128, 128}), base());
  auto trace = simulate_trace(rep);
  EXPECT_EQ(trace.total_passes, 2);
  EXPECT_NEAR(trace.makespan, trace.serial_makespan, 1e-15);
  EXPECT_NEAR(trace.makespan,
              rep.banks[0].pass_latency + rep.banks[1].pass_latency, 1e-15);
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_GE(trace.events[1].start, trace.events[0].end);
}

TEST(TraceSim, ConvPipelineOverlapsBanks) {
  auto rep = simulate_accelerator(nn::make_vgg16(), base());
  auto trace = simulate_trace(rep);
  // Pipelining must beat the strictly serial schedule by a wide margin.
  EXPECT_LT(trace.makespan, 0.6 * trace.serial_makespan);
  // Downstream banks start long before upstream banks finish.
  EXPECT_LT(trace.bank_start[1], trace.bank_finish[0]);
  EXPECT_LT(trace.bank_start[5], trace.bank_finish[4]);
}

TEST(TraceSim, MakespanBoundedByAnalyticPipeline) {
  auto rep = simulate_accelerator(nn::make_vgg16(), base());
  auto trace = simulate_trace(rep);
  auto pipe = analyze_pipeline(rep);
  // The bottleneck bank's work is a lower bound on the makespan; fill +
  // every bank's work is an upper bound.
  EXPECT_GE(trace.makespan, pipe.sample_interval - 1e-12);
  EXPECT_LE(trace.makespan, trace.serial_makespan + 1e-12);
  // The discrete schedule should land within ~2x of the analytic
  // steady-state estimate (fill + bottleneck).
  EXPECT_LT(trace.makespan,
            2.0 * (pipe.fill_latency + pipe.sample_interval));
}

TEST(TraceSim, BottleneckBankStaysBusy) {
  auto rep = simulate_accelerator(nn::make_vgg16(), base());
  auto trace = simulate_trace(rep);
  auto pipe = analyze_pipeline(rep);
  const auto b = static_cast<std::size_t>(pipe.bottleneck_bank);
  EXPECT_GT(trace.bank_utilization[b], 0.95);
  for (double u : trace.bank_utilization) {
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(TraceSim, EventsRespectDependenciesAndCap) {
  auto rep = simulate_accelerator(nn::make_vgg16(), base());
  auto trace = simulate_trace(rep, 100);
  EXPECT_EQ(trace.events.size(), 100u);
  for (const auto& e : trace.events) {
    EXPECT_GE(e.end, e.start);
    EXPECT_GE(e.start, 0.0);
  }
  // Within a bank, passes are back-to-back and ordered.
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    if (trace.events[i].bank == trace.events[i - 1].bank) {
      EXPECT_GE(trace.events[i].start, trace.events[i - 1].end - 1e-18);
    }
  }
}

TEST(TraceSim, BusyTimeMatchesPassCounts) {
  auto rep = simulate_accelerator(nn::make_caffenet(), base());
  auto trace = simulate_trace(rep);
  for (std::size_t b = 0; b < rep.banks.size(); ++b) {
    EXPECT_NEAR(trace.bank_busy[b],
                rep.banks[b].iterations * rep.banks[b].pass_latency,
                1e-12 * trace.bank_busy[b] + 1e-18);
  }
}

TEST(TraceSim, ZeroPassBankReportsZeroUtilization) {
  // Regression: a bank that never runs (zero iterations) has an empty
  // active window, and busy / span used to collapse to a bogus 1.0 —
  // an idle bank reported as perfectly utilized.
  auto rep = simulate_accelerator(nn::make_mlp({8, 8, 8}), base());
  rep.banks[1].iterations = 0;
  auto trace = simulate_trace(rep);
  EXPECT_DOUBLE_EQ(trace.bank_utilization[1], 0.0);
  EXPECT_DOUBLE_EQ(trace.bank_busy[1], 0.0);
  EXPECT_EQ(trace.total_passes, 1);
  // The bank that does run still reports a real utilization.
  EXPECT_GT(trace.bank_utilization[0], 0.0);
}

TEST(TraceSim, DistinctCodesForLatencyAndIterationErrors) {
  // MN-TRC-002 used to cover three unrelated conditions; the bad-latency
  // and bad-iteration cases now carry their own codes so scripted
  // triage can tell them apart.
  auto rep = simulate_accelerator(nn::make_mlp({8, 8}), base());
  auto bad_latency = rep;
  bad_latency.banks[0].pass_latency =
      std::numeric_limits<double>::quiet_NaN();
  try {
    simulate_trace(bad_latency);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-TRC-003"));
    EXPECT_FALSE(has_code(e.diagnostics(), "MN-TRC-002"));
  }
  auto bad_iterations = rep;
  bad_iterations.banks[0].iterations = -4;
  try {
    simulate_trace(bad_iterations);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-TRC-004"));
    EXPECT_FALSE(has_code(e.diagnostics(), "MN-TRC-003"));
  }
}

TEST(TraceSim, Validation) {
  // Malformed inputs refuse with coded diagnostics (MN-TRC-*).
  AcceleratorReport empty;
  try {
    simulate_trace(empty);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-TRC-001"));
  }
  auto rep = simulate_accelerator(nn::make_mlp({8, 8}), base());
  try {
    simulate_trace(rep, -1);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-TRC-002"));
  }
}

}  // namespace
}  // namespace mnsim::arch
