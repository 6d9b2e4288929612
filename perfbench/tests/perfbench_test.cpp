// Tests of the benchmark's own arithmetic: order statistics, open-loop
// accounting, seeded inputs and span self time.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 46);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, FailedSamplesAreInfinitelyLate) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> v = {1, 2, 3, inf};
  EXPECT_TRUE(std::isinf(percentile(v, 99)));
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_FALSE(std::isnan(percentile({inf, inf}, 50)));
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Values from statistics.quantiles(values, n=4).
  Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = quartiles({3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 5.3);
  q = quartiles({5.0, 7.0});
  EXPECT_DOUBLE_EQ(q.q1, 4.5);
  EXPECT_DOUBLE_EQ(q.q2, 6.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.5);
  EXPECT_DOUBLE_EQ(relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
}

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.beyond, 10u);
  v.resize(200);
  s = summarize(v);
  EXPECT_DOUBLE_EQ(s.tail_pct, 95.0);
  EXPECT_GE(s.beyond, 10u);
  v.resize(5);
  EXPECT_DOUBLE_EQ(summarize(v).tail_pct, 50.0);
}

TEST(Stats, WindowedPercentileIsTheMedianOfWindows) {
  // Three one-second windows whose maxima are 4, 100 and 12; a fourth
  // holds too few samples to count.
  std::vector<TimedSample> v;
  const double values[3][4] = {{1, 2, 3, 4}, {1, 1, 1, 100}, {9, 10, 11, 12}};
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 4; ++i) {
      v.push_back({w * 1'000'000'000LL + i, values[w][i]});
    }
  }
  v.push_back({3'500'000'000LL, 1000});
  EXPECT_DOUBLE_EQ(windowed_percentile(v, 1'000'000'000, 100, 4), 12);
  // No window is full enough: the pooled percentile.
  EXPECT_DOUBLE_EQ(windowed_percentile(v, 1'000'000'000, 100, 50), 1000);
}

TEST(Stats, InterquartileMeanAveragesTheMiddleHalf) {
  // Sorted: 0 | 1 2 3 4 | 1000 -> the middle half of 6 is ranks 1..4.
  EXPECT_DOUBLE_EQ(interquartile_mean({4, 1000, 2, 0, 3, 1}), 2.5);
  EXPECT_DOUBLE_EQ(interquartile_mean({7}), 7);
  EXPECT_DOUBLE_EQ(interquartile_mean({}), 0);
}

TEST(Stats, HistogramPercentileInterpolatesInsideBuckets) {
  Histogram h(1.0, 100);  // 1 us buckets up to 100 us
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);  // one sample per bucket
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  Histogram other(1.0, 100);
  other.add(1e6);  // overflow
  h.merge(other);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_TRUE(std::isinf(h.percentile(100)));
  EXPECT_LT(h.percentile(50), 51.0);
}

TEST(OpenLoop, DueTimesFollowTheRateRoundRobin) {
  OpenLoop loop;
  loop.rate_per_s = 4000;
  loop.connections = 4;
  EXPECT_EQ(loop.due_ns(0), 0);
  EXPECT_EQ(loop.due_ns(1), 250'000);
  EXPECT_EQ(loop.due_ns(4000), 1'000'000'000);
  EXPECT_EQ(loop.slots_within(2.5), 10'000u);
}

TEST(OpenLoop, LatencyCountsFromDueTimeIncludingLateness) {
  OpTiming t;
  t.due_ns = 1'000'000;
  t.sent_ns = 3'000'000;  // the generator ran 2 ms late
  t.done_ns = 3'500'000;
  EXPECT_DOUBLE_EQ(latency_from_due_ms(t), 2.5);
  EXPECT_DOUBLE_EQ(lateness_ms(t), 2.0);
  t.sent_ns = 500'000;  // early sends are not negative lateness
  EXPECT_DOUBLE_EQ(lateness_ms(t), 0.0);
  t.ok = false;
  EXPECT_TRUE(std::isinf(latency_from_due_ms(t)));
}

TEST(Inputs, SameSeedGivesIdenticalInputs) {
  EXPECT_EQ(derive_seeds(7, "x", 4), derive_seeds(7, "x", 4));
  EXPECT_NE(derive_seeds(7, "x", 4), derive_seeds(8, "x", 4));
  EXPECT_NE(derive_seeds(7, "x", 4), derive_seeds(7, "y", 4));

  const auto a = sarb_profiles(11, 128, 2);
  const auto b = sarb_profiles(11, 128, 2);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[1].temperature, b[1].temperature);
  EXPECT_EQ(a[1].tau, b[1].tau);
  EXPECT_NE(a[0].temperature, a[1].temperature);

  const auto mesh = fun3d_mesh(11, 50);
  EXPECT_EQ(mesh.cell_nodes, fun3d_mesh(11, 50).cell_nodes);
  EXPECT_EQ(fun3d_solutions(11, mesh, 3), fun3d_solutions(11, mesh, 3));
  EXPECT_NE(fun3d_solutions(11, mesh, 1), fun3d_solutions(12, mesh, 1));

  const auto ops = serve_ops(11, 2000);
  const auto again = serve_ops(11, 2000);
  ASSERT_EQ(ops.size(), again.size());
  std::size_t batches = 0, probes = 0;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    EXPECT_EQ(ops[k].kind, again[k].kind);
    EXPECT_EQ(ops[k].entry, again[k].entry);
    EXPECT_EQ(ops[k].args, again[k].args);
    batches += ops[k].kind == OpKind::kBatch;
    probes += ops[k].kind == OpKind::kStats || ops[k].kind == OpKind::kHealth;
  }
  EXPECT_EQ(probes, 8u);  // two per kProbeEvery slots
  EXPECT_GT(batches, 80u);
  EXPECT_LT(batches, 250u);
}

Span span(int parent, std::int64_t start, std::int64_t end) {
  return Span{"s", 1, parent, start, end, 0};
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  // Root [0, 100) us; children [10, 30) and [20, 50) overlap to cover
  // [10, 50); a child sticking out past the root counts only inside it;
  // the grandchild is charged to its parent, not to the root.
  std::vector<Span> spans = {
      span(-1, 0, 100'000),       // 0: root
      span(0, 10'000, 30'000),    // 1
      span(0, 20'000, 50'000),    // 2
      span(0, 90'000, 120'000),   // 3: 10 us inside the root
      span(1, 12'000, 14'000),    // 4: grandchild under 1
  };
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
  EXPECT_DOUBLE_EQ(uncovered_share(spans), 50.0 / 100.0);

  const auto totals = totals_by_name(spans);
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].count, 5u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer off(false, 0);
  const int index = off.begin("x", 1);
  EXPECT_EQ(index, -1);
  off.end(index);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true, 3);
  on.end(on.begin("x", 9));
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_EQ(on.spans()[0].tid, 3);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[0].start_ns);
  const std::string json = chrome_trace_json({&on});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
