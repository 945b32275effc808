// Tests of the benchmark's own arithmetic: tail percentile choice,
// latency from the due time, backlog and generator verdicts, the
// closed-loop phase runner and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "loadgen.hpp"
#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = ramp(100);
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(200, 95), 10u);
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000), 99.0);  // exactly 10 beyond p99
  EXPECT_EQ(tail_percentile(999), 95.0);   // p99 has only 9 beyond
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(39), 50.0);  // nothing qualifies: the median
  EXPECT_EQ(percentile(ramp(1000), tail_percentile(1000)), 990.0);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  OpTimes op;
  op.due = 1.0;
  op.sent = 1.004;  // the generator was 4 ms late
  op.received = 1.005;
  op.ok = true;
  EXPECT_NEAR(latency_from_due(op), 0.005, 1e-12);
  op.ok = false;  // failed or unanswered: misses every limit
  EXPECT_TRUE(std::isinf(latency_from_due(op)));
}

TEST(OpenLoop, StallIsChargedToEveryOperationBehindIt) {
  // Ten operations due every millisecond; the server stalls until t = 20 ms
  // and then answers everything at once. A closed-loop measurement would
  // see one slow operation; timed from due, all ten are late.
  std::vector<OpTimes> ops(10);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].due = ops[i].sent = 0.001 * static_cast<double>(i);
    ops[i].received = 0.020;
    ops[i].ok = true;
  }
  for (const OpTimes& op : ops) EXPECT_GE(latency_from_due(op), 0.011);
}

TEST(OpenLoop, GeneratorLagExcludesTimeBlockedOnTheServer) {
  std::vector<OpTimes> ops(2);
  ops[0].due = 0.0;
  ops[0].sent = 0.0005;  // own lateness: 0.5 ms
  ops[1].due = 0.001;
  ops[1].writer_free = 0.010;  // previous write blocked on a full pipe
  ops[1].sent = 0.0101;
  const std::vector<double> lag = generator_lag(ops);
  EXPECT_NEAR(lag[0], 0.0005, 1e-12);
  EXPECT_NEAR(lag[1], 0.0001, 1e-12);
}

TEST(OpenLoop, SendRate) {
  std::vector<OpTimes> ops(101);
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].sent = 0.01 * i;
  EXPECT_NEAR(send_rate(ops), 100.0, 1e-9);
}

/// `n` operations at `rate`, each answered `latency(i)` seconds after due.
template <typename Fn>
std::vector<OpTimes> phase(std::size_t n, double rate, Fn latency) {
  std::vector<OpTimes> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops[i].due = ops[i].sent = static_cast<double>(i) / rate;
    ops[i].received = ops[i].due + latency(i);
    ops[i].ok = true;
  }
  return ops;
}

TEST(Tail, FlatLatencyHasNoBacklog) {
  const auto ops = phase(8000, 4000.0, [](std::size_t) { return 0.001; });
  EXPECT_NEAR(latency_ms(ops, 99.0), 1.0, 1e-9);
  EXPECT_FALSE(backlog_growing(ops, 2.5));
}

TEST(Tail, FailuresCountAsInfinitelyLate) {
  auto ops = phase(8000, 4000.0, [](std::size_t) { return 0.001; });
  for (std::size_t i = 0; i < ops.size(); i += 50) ops[i].ok = false;  // 2 %
  EXPECT_TRUE(std::isinf(latency_ms(ops, 99.0)));
  EXPECT_NEAR(latency_ms(ops, 50.0), 1.0, 1e-9);
}

TEST(Backlog, GrowingBacklogIsDetected) {
  // Offered faster than served: every operation waits 0.01 ms longer than
  // the one before, a queue that never drains, though its p99 is only
  // 20 ms.
  const auto ops = phase(2000, 1000.0, [](std::size_t i) { return 1e-5 * i; });
  EXPECT_TRUE(backlog_growing(ops, 2.5));
}

TEST(Backlog, ShortHostStallIsNotABacklog) {
  // A 30 ms stall hits 60 operations in the last quarter; the rest are
  // fast. The lower quartile of that quarter stays flat.
  const auto ops = phase(4000, 2000.0, [](std::size_t i) {
    return (i >= 3500 && i < 3560) ? 0.030 : 0.0005;
  });
  EXPECT_FALSE(backlog_growing(ops, 2.5));
}

TEST(Tail, IntermittentStallMovesThePhaseTail) {
  // 2 s at 4000/s; a 50 ms stall once a second delays 2 % of the
  // operations. The phase p99 sees it; the median does not.
  const auto ops = phase(8000, 4000.0, [](std::size_t i) {
    return (i % 4000 < 80) ? 0.050 : 0.001;
  });
  EXPECT_NEAR(latency_ms(ops, 99.0), 50.0, 1e-9);
  EXPECT_NEAR(latency_ms(ops, 50.0), 1.0, 1e-9);
}

TEST(Generator, FallingBehindIsInvalid) {
  // A generator that needs 0.3 ms per operation offered one every 0.25 ms
  // falls further behind with every send.
  auto ops = phase(8000, 4000.0, [](std::size_t) { return 0.001; });
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].sent = 0.0003 * static_cast<double>(i);
    ops[i].received = ops[i].sent + 0.001;
  }
  EXPECT_TRUE(generator_fell_behind(ops, 2.0));
}

TEST(Generator, LateForAMomentIsValid) {
  // One 5 ms host stall of the writer, then it catches up.
  auto ops = phase(8000, 4000.0, [](std::size_t) { return 0.001; });
  for (std::size_t i = 4000; i < 4020; ++i) ops[i].sent = ops[4000].due + 0.005;
  EXPECT_FALSE(generator_fell_behind(ops, 2.0));
}

TEST(ClosedLoop, KeepsTheWindowAndFilesEveryAnswer) {
  // /bin/cat answers every line with itself, so each "response" carries
  // its own id and an ok status.
  ServeProcess echo({"/bin/cat"});
  std::vector<Outgoing> lines(200);
  for (std::size_t k = 0; k < lines.size(); ++k) {
    lines[k].id = 1000 + k;
    lines[k].line = "{\"id\":" + std::to_string(lines[k].id) +
                    ",\"status\":\"ok\"}\n";
  }
  const std::size_t window = 4;
  const PhaseResult r = run_closed(echo, lines, window);
  for (std::size_t k = 0; k < lines.size(); ++k) {
    ASSERT_TRUE(r.ops[k].ok) << k;
    EXPECT_EQ(r.responses[k], lines[k].line.substr(0, lines[k].line.size() - 1));
    EXPECT_LE(r.ops[k].sent, r.ops[k].received);
    EXPECT_EQ(r.ops[k].due, r.ops[k].sent);
    // Operation k waits for the answer that freed its slot.
    if (k >= window) {
      EXPECT_GE(r.ops[k].sent, r.ops[k - window].received);
    }
  }
  EXPECT_EQ(echo.finish(), 0);
  EXPECT_GE(echo.cpu_seconds(), 0.0);
}

TEST(Spans, SelfTimeSubtractsChildrenOnce) {
  std::vector<Span> spans(5);
  spans[0] = {"root", 1, 0, 1, 0.0, 10.0};
  spans[1] = {"a", 2, 1, 1, 1.0, 4.0};
  spans[2] = {"b", 3, 1, 1, 3.0, 6.0};   // overlaps a: union [1, 6]
  spans[3] = {"c", 4, 1, 1, 9.0, 12.0};  // sticks out: only [9, 10] counts
  spans[4] = {"a.child", 5, 2, 1, 2.0, 3.0};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, TotalsByName) {
  Tracer tracer;
  const std::uint64_t root = tracer.add("epoch", 0.0, 4.0, 0, 1);
  tracer.add("step", 0.0, 1.0, root, 1);
  tracer.add("step", 1.0, 3.0, root, 1);
  const auto totals = totals_by_name(tracer.spans());
  EXPECT_EQ(totals.at("step").calls, 2u);
  EXPECT_DOUBLE_EQ(totals.at("step").total, 3.0);
  EXPECT_DOUBLE_EQ(totals.at("epoch").self, 1.0);
  EXPECT_EQ(tracer.spans()[1].parent, root);
  EXPECT_EQ(tracer.spans()[1].trace, 1u);
}

TEST(Spans, TimedSpanRecordsNameParentAndTrace) {
  Tracer tracer;
  const int v = tracer.time("layer.call", 0, 7, [] { return 42; });
  EXPECT_EQ(v, 42);
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].name, "layer.call");
  EXPECT_EQ(tracer.spans()[0].trace, 7u);
  EXPECT_GE(tracer.spans()[0].end, tracer.spans()[0].start);
}

TEST(Responses, FieldsAreReadExactly) {
  const std::string line =
      "{\"id\":12,\"status\":\"ok\",\"queue_us\":3.5,\"logits\":"
      "[0.10000000000000001,-2.5e-05]}";
  EXPECT_EQ(json_number(line, "id"), 12.0);
  EXPECT_EQ(status_of(line), "ok");
  EXPECT_TRUE(status_ok(line));
  std::vector<double> logits;
  EXPECT_NE(json_array(line, "logits", 0, logits), std::string::npos);
  ASSERT_EQ(logits.size(), 2u);
  EXPECT_EQ(logits[0], 0.1);
  EXPECT_EQ(logits[1], -2.5e-05);
  EXPECT_EQ(std::strtod(exact(0.1 + 0.2).c_str(), nullptr), 0.1 + 0.2);
  EXPECT_FALSE(status_ok("{\"id\":3,\"status\":\"shed\"}"));
}

TEST(Schedule, PoissonIsSeededAndHasTheRate) {
  const auto a = poisson_schedule(1000.0, 10.0, 5);
  EXPECT_EQ(a, poisson_schedule(1000.0, 10.0, 5));
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

}  // namespace
}  // namespace perfbench
