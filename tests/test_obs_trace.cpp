// Tests for the tracing layer: disabled-is-free semantics, exact
// nesting/self-time attribution, thread-pool attribution, and the two
// exporters (Chrome trace JSON, flat text profile).
//
// The tracer is process-global; every test arms it explicitly
// (enable + reset) and disables it on exit so suites compose.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sim/json_report.hpp"
#include "util/parallel.hpp"

namespace mnsim::obs {
namespace {

// Busy-wait long enough for the span to record a nonzero duration on any
// clock resolution.
void spin() {
  volatile unsigned sink = 0;
  for (unsigned i = 0; i < 50000; ++i) sink = sink + 1;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().enable();
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Tracer::instance().disable();
  {
    Span outer("outer");
    Span inner("inner");
    spin();
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);

  // Spans opened while disabled stay silent even if tracing is enabled
  // before they close.
  Span late("late");
  Tracer::instance().enable();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST_F(TraceTest, NestingAttributesSelfTimeExactly) {
  {
    Span outer("outer");
    spin();
    {
      Span inner("inner");
      spin();
    }
    spin();
  }
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: the outer span opened first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[0].thread, events[1].thread);

  // The child runs inside the parent...
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
  // ...and self time is exact by construction: parent self = parent
  // duration minus child duration, child self = child duration.
  EXPECT_EQ(events[1].self_ns, events[1].duration_ns);
  EXPECT_EQ(events[0].self_ns,
            events[0].duration_ns - events[1].duration_ns);
}

TEST_F(TraceTest, ScopedTimerIsTheSameType) {
  { ScopedTimer t("timed"); }
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "timed");
}

TEST_F(TraceTest, ThreadPoolSpansAreThreadAttributed) {
  util::ThreadPool pool(3);
  pool.for_each_index(24, [](std::size_t, std::size_t) {
    Span span("task");
    spin();
  });
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 24u);
  for (const auto& e : events) {
    EXPECT_STREQ(e.name, "task");
    EXPECT_EQ(e.depth, 0u);
  }
  // With workers present the caller only waits, so every task ran on a
  // self-labelled pool thread.
  const std::string json = Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find("mnsim-worker-"), std::string::npos);
}

TEST_F(TraceTest, PhaseStatsAggregateAndReconcileWithWallClock) {
  {
    Span outer("outer");
    for (int i = 0; i < 3; ++i) {
      Span inner("inner");
      spin();
    }
  }
  const auto stats = Tracer::instance().phase_stats();
  ASSERT_EQ(stats.size(), 2u);
  std::uint64_t self_total = 0;
  long calls = 0;
  for (const auto& st : stats) {
    self_total += st.self_ns;
    calls += st.calls;
    if (st.name == "inner") {
      EXPECT_EQ(st.calls, 3);
    }
    if (st.name == "outer") {
      EXPECT_EQ(st.calls, 1);
    }
  }
  EXPECT_EQ(calls, 4);

  // Self times are disjoint on one thread, so their sum reconciles
  // exactly with the root span's wall clock.
  const auto events = Tracer::instance().events();
  std::uint64_t root_duration = 0;
  for (const auto& e : events)
    if (std::string(e.name) == "outer") root_duration = e.duration_ns;
  EXPECT_EQ(self_total, root_duration);

  const std::string profile = Tracer::instance().text_profile();
  EXPECT_NE(profile.find("inner"), std::string::npos);
  EXPECT_NE(profile.find("wall clock"), std::string::npos);
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormed) {
  {
    Span a("phase.alpha");
    Span b("phase.beta");
    spin();
  }
  const std::string json = Tracer::instance().chrome_trace_json();
  // parse_json_numbers throws on malformed JSON, so a clean parse is the
  // schema-validity check; then pin the Chrome-trace fields.
  const auto numbers = sim::parse_json_numbers(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"mnsim\""), std::string::npos);
  EXPECT_NE(json.find("phase.alpha"), std::string::npos);
  bool has_duration = false;
  for (const auto& [path, value] : numbers)
    if (path.find(".dur") != std::string::npos && value >= 0)
      has_duration = true;
  EXPECT_TRUE(has_duration);
}

// Thread names are caller-provided: a control byte in one is kept,
// escaped, rather than dropped or written raw.
TEST_F(TraceTest, ControlCharactersInThreadNamesAreEscaped) {
  std::thread worker([] {
    set_thread_name("io\x01" "bank");
    Span span("phase.io");
  });
  worker.join();
  const std::string json = Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find(R"("args": {"name": "io\u0001bank"})"),
            std::string::npos);
  EXPECT_NO_THROW((void)sim::parse_json_numbers(json));
}

TEST_F(TraceTest, EmptyTraceStillExportsValidJson) {
  const std::string json = Tracer::instance().chrome_trace_json();
  EXPECT_NO_THROW(sim::parse_json_numbers(json));
}

TEST_F(TraceTest, ResetMidSpanDropsTheSpanSafely) {
  Span* orphan = new Span("orphan");
  Tracer::instance().reset();
  delete orphan;  // end() after reset: dropped, not misattributed
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST_F(TraceTest, ResultsNeverDependOnTracerState) {
  // Determinism contract: the same computation with tracing on and off.
  auto work = [] {
    double acc = 0.0;
    for (int i = 1; i <= 1000; ++i) {
      Span span("work");
      acc += 1.0 / i;
    }
    return acc;
  };
  const double traced = work();
  Tracer::instance().disable();
  const double untraced = work();
  EXPECT_DOUBLE_EQ(traced, untraced);
}

}  // namespace
}  // namespace mnsim::obs
