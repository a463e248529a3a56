// Self-tests for the benchmark's own arithmetic: the percentile rule, lag
// from the visibility curve, visible rate, span self time, the CPU clocks and
// the scaling by the reference work.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "host_speed.h"
#include "spans.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = Iota(100);
  EXPECT_EQ(PercentileSorted(v, 0.5), 50);
  EXPECT_EQ(PercentileSorted(v, 0.99), 99);
  EXPECT_EQ(PercentileSorted(v, 1.0), 100);
  EXPECT_EQ(PercentileSorted(v, 0.0), 1);
  EXPECT_EQ(PercentileSorted({}, 0.5), 0);
  EXPECT_EQ(PercentileSorted(Iota(1000), 0.999), 999);
}

TEST(Percentile, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Percentile, SupportedTailNeedsTenBeyond) {
  // 19 samples: the median leaves 9 beyond it, so nothing is supported.
  Tail t = SupportedTail(Iota(19));
  EXPECT_EQ(t.q, 0);
  EXPECT_EQ(t.Label(), "none");
  EXPECT_EQ(t.samples, 19u);

  t = SupportedTail(Iota(20));
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  EXPECT_EQ(t.Label(), "p50");
  EXPECT_EQ(t.value, 10);

  // 99 samples: p90 leaves 9 beyond it.
  EXPECT_EQ(SupportedTail(Iota(99)).Label(), "p50");
  t = SupportedTail(Iota(100));
  EXPECT_EQ(t.Label(), "p90");
  EXPECT_EQ(t.value, 90);

  t = SupportedTail(Iota(1000));
  EXPECT_EQ(t.Label(), "p99");
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(SupportedTail(Iota(9999)).Label(), "p99");
  t = SupportedTail(Iota(10000));
  EXPECT_EQ(t.Label(), "p99.9");
  EXPECT_EQ(t.value, 9990);
  EXPECT_EQ(t.samples, 10000u);
  EXPECT_EQ(SupportedTail(Iota(100000)).Label(), "p99.99");
}

TEST(Lag, FromVisibilityCurve) {
  // Records due at 0, 10, 20, 30, 40; the dataset shows 2 records at t=15,
  // still 2 at t=25, then 5 at t=50.
  const std::vector<VisiblePoint> curve = {{5, 0}, {15, 2}, {25, 2}, {50, 5}};
  const std::vector<double> due = {0, 10, 20, 30, 40};
  const std::vector<double> lag = LagFromVisibility(curve, due);
  ASSERT_EQ(lag.size(), 5u);
  EXPECT_EQ(lag[0], 15);
  EXPECT_EQ(lag[1], 5);
  EXPECT_EQ(lag[2], 30);
  EXPECT_EQ(lag[3], 20);
  EXPECT_EQ(lag[4], 10);
}

TEST(Lag, UnseenRecordsGetNoLag) {
  const std::vector<VisiblePoint> curve = {{100, 1}, {200, 2}};
  const std::vector<double> lag = LagFromVisibility(curve, {0, 0, 0, 0});
  ASSERT_EQ(lag.size(), 2u);
  EXPECT_EQ(lag[0], 100);
  EXPECT_EQ(lag[1], 200);
  EXPECT_TRUE(LagFromVisibility({}, {0, 1}).empty());
}

TEST(Lag, VisibleRateSpansFirstRecordToDrain) {
  // First visible at t=1s with 100 records; all 1100 visible at t=3s.
  const std::vector<VisiblePoint> curve = {
      {0, 0}, {1e6, 100}, {2e6, 600}, {3e6, 1100}, {4e6, 1100}};
  EXPECT_DOUBLE_EQ(VisibleRate(curve, 1100), 500);
  EXPECT_EQ(VisibleRate(curve, 5000), 0);
  EXPECT_EQ(VisibleRate({{1e6, 10}}, 10), 0);
}

TEST(Clocks, ThreadCpuCountsWorkNotSleep) {
  const double c0 = ThreadCpuUs();
  const double p0 = ProcessCpuUs();
  volatile uint64_t x = 1;
  for (int i = 0; i < 20000000; ++i) x = x * 6364136223846793005ull + 1;
  const double c1 = ThreadCpuUs();
  EXPECT_GT(c1 - c0, 1000);  // 20M multiply-adds take well over 1 ms
  // The process clock covers the thread's work; the two clocks may be a few
  // µs apart in when they last accounted the running thread.
  EXPECT_GT(ProcessCpuUs() - p0, 0.9 * (c1 - c0));
  const double w0 = NowUs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(NowUs() - w0, 50000);
  EXPECT_LT(ThreadCpuUs() - c1, 10000);  // sleeping is not CPU time
}

TEST(Reference, SameSeedSameWork) {
  ReferenceWork a(7), b(7), c(8);
  EXPECT_GT(a.RunUs(), 0);
  EXPECT_GT(b.RunUs(), 0);
  c.RunUs();
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_NE(a.checksum(), c.checksum());
}

TEST(Reference, ScaleToNominal) {
  // Measured while the reference pass took twice its nominal time: the host
  // ran at half speed, so the scaled value is half the measured one.
  EXPECT_DOUBLE_EQ(ScaleToNominal(80, 2 * ReferenceWork::kNominalUs), 40);
  EXPECT_DOUBLE_EQ(ScaleToNominal(80, ReferenceWork::kNominalUs), 80);
  EXPECT_DOUBLE_EQ(ScaleToNominal(80, ReferenceWork::kNominalUs / 4), 320);
  EXPECT_EQ(ScaleToNominal(80, 0), 0);
}

TEST(Spans, SelfTimeSubtractsChildUnion) {
  std::vector<SpanRecord> spans(5);
  spans[0] = {"batch", 0, 100, -1, 1, 1};
  spans[1] = {"parse", 10, 30, 0, 1, 1};
  spans[2] = {"enrich", 20, 50, 0, 1, 1};    // overlaps parse: union 10..50
  spans[3] = {"apply", 90, 120, 0, 1, 1};    // clipped to the parent: 90..100
  spans[4] = {"decode", 25, 35, 2, 1, 1};    // grandchild: only enrich loses it
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(self[1], 20);
  EXPECT_DOUBLE_EQ(self[2], 30 - 10);
  EXPECT_DOUBLE_EQ(self[3], 30);
  EXPECT_DOUBLE_EQ(self[4], 10);
}

TEST(Spans, RecorderAndChromeJson) {
  SpanRecorder off(false);
  EXPECT_EQ(off.Begin("x"), -1);
  off.End(-1);
  EXPECT_TRUE(off.Snapshot().empty());

  SpanRecorder rec(true);
  {
    ScopedSpan outer(&rec, "outer", -1, 7);
    ScopedSpan inner(&rec, "in\"ner", outer.id(), 7);
  }
  const std::vector<SpanRecord> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_GE(spans[0].end_us, spans[1].end_us);
  const std::string json = ChromeTraceJson(spans, "{\"workload\":\"w\"}");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"in\\\"ner\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0,\"batch\":7"), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"workload\":\"w\"}"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
