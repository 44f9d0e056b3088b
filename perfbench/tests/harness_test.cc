// Self-tests of the engine-independent harness pieces (harness.h).

#include "harness.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOnKnownSets) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(hundred, 0.50), 50.0);
  EXPECT_EQ(Percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(Percentile(hundred, 1.00), 100.0);
  EXPECT_EQ(Percentile(hundred, 0.001), 1.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // Nearest rank never interpolates: p50 of {1,2,3,4} is 2.
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.50), 2.0);
}

TEST(PercentileTest, SamplesBeyondP99) {
  EXPECT_EQ(NearestRank(1000, 0.99), 990u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(1100, 0.99), 11u);
}

TEST(ZipfTest, SameSeedSameSequence) {
  ZipfSampler zipf(1536, 1.0);
  std::mt19937_64 a(42);
  std::mt19937_64 b(42);
  std::mt19937_64 c(43);
  std::vector<size_t> sa, sb, sc;
  for (int i = 0; i < 1000; ++i) {
    sa.push_back(zipf.Sample(a));
    sb.push_back(zipf.Sample(b));
    sc.push_back(zipf.Sample(c));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(ZipfTest, SkewAndRange) {
  ZipfSampler zipf(100, 1.0);
  std::mt19937_64 rng(7);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    size_t r = zipf.Sample(rng);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  // P(rank 0) = 1/H(100) ~ 0.193; rank 1 about half of that.
  EXPECT_NEAR(counts[0] / 20000.0, 0.193, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 0.5, 0.08);
}

TEST(ShuffleTest, DeterministicPermutation) {
  std::vector<int> a(50), b(50);
  for (int i = 0; i < 50; ++i) a[i] = b[i] = i;
  std::mt19937_64 ra(9), rb(9);
  Shuffle(&a, ra);
  Shuffle(&b, rb);
  EXPECT_EQ(a, b);
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(OpenLoopTest, StallChargesQueuedRequestsFromDue) {
  // 200 requests/s for 0.5 s from one worker: one every 5 ms. Request 10
  // stalls 100 ms, so the ~20 requests due during the stall start late
  // and are charged from their due times; the others are on time.
  const double rate = 200.0;
  auto start = Clock::now() + std::chrono::milliseconds(2);
  auto records = RunOpenLoop(rate, 0.5, 1, start, [](size_t i) {
    if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return true;
  });
  ASSERT_EQ(records.size(), 100u);
  int late = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(records[i].due_ms, 5.0 * static_cast<double>(i));
    EXPECT_TRUE(records[i].ok);
    if (records[i].latency_ms() > 20.0) ++late;
  }
  EXPECT_GE(records[10].latency_ms(), 100.0);
  EXPECT_GE(records[11].lateness_ms(), 90.0);
  // Requests 10..~26 finish more than 20 ms after due: the stall
  // (100 ms) less the 20 ms limit, at one request per 5 ms, plus the
  // stalled request itself.
  EXPECT_GE(late, 15);
  EXPECT_LE(late, 19);
}

TEST(OpenLoopTest, SpinSendsOnTimeAndRecordsItsCpu) {
  // 100 requests/s for 0.2 s, 2 ms spin: no request starts before it is
  // due, and an idle worker's spin time is recorded for the caller to
  // leave out of the CPU it charges; queued requests spin not at all.
  auto records = RunOpenLoop(
      100.0, 0.2, 1, Clock::now() + std::chrono::milliseconds(2),
      [](size_t i) {
        if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(25));
        return true;
      },
      {}, 2.0);
  ASSERT_EQ(records.size(), 20u);
  double spin_ms = 0.0;
  for (const OpenLoopRecord& r : records) {
    EXPECT_GE(r.lateness_ms(), 0.0);
    EXPECT_LE(r.spin_cpu_ms, 2.5);
    spin_ms += r.spin_cpu_ms;
  }
  EXPECT_EQ(records[6].spin_cpu_ms, 0.0);  // due during request 5's stall
  EXPECT_GT(spin_ms, 0.0);
}

TEST(OpenLoopTest, WorkersShareTheScheduleWithoutDuplicates) {
  std::vector<int> seen(60, 0);
  auto records = RunOpenLoop(600.0, 0.1, 3, Clock::now(), [&](size_t i) {
    ++seen[i];  // distinct i per call, so no race
    return i % 2 == 0;
  });
  ASSERT_EQ(records.size(), 60u);
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(seen[i], 1);
    EXPECT_EQ(records[i].ok, i % 2 == 0);
    EXPECT_GE(records[i].done_ms, records[i].start_ms);
  }
}

TEST(SpanTest, SelfTimeSubtractsUnionOfChildren) {
  SpanRecorder rec(Clock::now());
  int op = rec.AddMs("op", 0.0, 10.0, -1, 0);
  int exec = rec.AddMs("execute", 1.0, 7.0, op, 0);
  rec.AddMs("engine.parse", 1.0, 2.0, exec, 0);
  int process = rec.AddMs("engine.process", 2.5, 6.0, exec, 0);
  rec.AddMs("engine.inner", 3.0, 4.0, process, 0);
  rec.AddMs("explain", 6.5, 9.0, op, 0);
  rec.AddMs("overlap", 8.0, 9.5, op, 0);  // overlaps explain
  std::vector<double> self = SelfTimesMs(rec.spans());
  ASSERT_EQ(self.size(), 7u);
  // Children cover [1,7] u [6.5,9] u [8,9.5] = [1,9.5].
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 8.5);
  EXPECT_DOUBLE_EQ(self[1], 6.0 - (1.0 + 3.5));
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 3.5 - 1.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  EXPECT_DOUBLE_EQ(self[5], 2.5);
}

TEST(SpanTest, ChildOutsideParentIsClipped) {
  SpanRecorder rec(Clock::now());
  int root = rec.AddMs("op", 0.0, 4.0, -1, 1);
  rec.AddMs("late", 3.0, 6.0, root, 1);
  EXPECT_DOUBLE_EQ(SelfTimesMs(rec.spans())[0], 3.0);
}

TEST(SpanTest, MergeRebasesParentsAndTimes) {
  auto origin = Clock::now();
  SpanRecorder a(origin);
  a.AddMs("op", 0.0, 1.0, -1, 0);
  SpanRecorder b(origin + std::chrono::milliseconds(10));
  int root = b.AddMs("layers", 0.0, 2.0, -1, 5);
  b.AddMs("query.parse", 0.5, 1.0, root, 5);
  a.Merge(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_DOUBLE_EQ(a.spans()[1].start_ms, 10.0);
  EXPECT_DOUBLE_EQ(a.spans()[2].end_ms, 11.0);
  EXPECT_NE(a.ToJsonLines().find("\"name\":\"query.parse\""),
            std::string::npos);
}

TEST(SpanTest, JsonLinesCarryCounters) {
  SpanRecorder rec(Clock::now());
  int root = rec.AddMs("execute", 0.0, 2.5, -1, 7);
  rec.AddCounter(root, "items_pulled", 12);
  rec.AddMs("engine.parse", 0.5, 1.0, root, 7);
  EXPECT_EQ(rec.ToJsonLines(),
            "{\"id\":0,\"op\":7,\"parent\":-1,\"name\":\"execute\","
            "\"start_ms\":0.000000,\"end_ms\":2.500000,"
            "\"counters\":{\"items_pulled\":12}}\n"
            "{\"id\":1,\"op\":7,\"parent\":0,\"name\":\"engine.parse\","
            "\"start_ms\":0.500000,\"end_ms\":1.000000}\n");
}

TEST(ResultJsonTest, ExactShape) {
  std::string json = ResultJson(
      true, 1000, 0,
      {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.8127, "s"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.81269999999999998, "
            "\"unit\": \"s\"}}}");
  EXPECT_EQ(ResultJson(false, 1, 1, {}),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {}}");
}

TEST(ResultJsonTest, NonFiniteIsNotANumber) {
  std::string json = ResultJson(true, 1, 0, {{"x", 1.0 / 0.0, "ms"}});
  EXPECT_NE(json.find("\"value\": null"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
