// Tests for the benchmark's own arithmetic (perfbench/stats.h).
#include "perfbench/stats.h"

#include <gtest/gtest.h>

namespace lafp::perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Quantile, NearestRankMedianIsASample) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);  // lower middle, not 2.5
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Quantile(Ramp(100), 0.99), 99);
}

TEST(GeoMean, TypicalOfSpreadSamples) {
  EXPECT_DOUBLE_EQ(GeoMean({1, 100}), 10);
  EXPECT_NEAR(GeoMean({2, 8}), 4, 1e-12);
  EXPECT_EQ(GeoMean({}), 0);
}

TEST(ChooseTail, P99NeedsTenSamplesBeyondIt) {
  auto tail = ChooseTail(Ramp(1000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->q, 0.99);
  EXPECT_EQ(tail->beyond, 10u);
  EXPECT_EQ(tail->value, 990);

  // One sample short: p99 would have 9 beyond, so fall back to p95.
  tail = ChooseTail(Ramp(999));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->q, 0.95);
  EXPECT_GE(tail->beyond, 10u);
}

TEST(ChooseTail, TakesP999OnlyWithTenThousandSamples) {
  auto tail = ChooseTail(Ramp(10000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->q, 0.999);
  tail = ChooseTail(Ramp(9999));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->q, 0.99);
}

TEST(ChooseTail, NoTailFromFewSamples) {
  // 39 samples: p75 leaves 9 beyond, and nothing at or below the median
  // counts as a tail.
  EXPECT_FALSE(ChooseTail(Ramp(39)).has_value());
  auto tail = ChooseTail(Ramp(40));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->q, 0.75);
  EXPECT_FALSE(ChooseTail({}).has_value());
}

TEST(Tally, CountsEachFailedOperationOnce) {
  Tally t;
  EXPECT_TRUE(t.Record({}));
  Outcome rejected;
  rejected.http_status = 429;
  EXPECT_FALSE(t.Record(rejected));
  Outcome oom;
  oom.status_error = true;
  EXPECT_FALSE(t.Record(oom));
  Outcome broken;  // error status *and* wrong output: still one failure
  broken.status_error = true;
  broken.mismatch = true;
  EXPECT_FALSE(t.Record(broken));
  Outcome lost;
  lost.transport_error = true;
  EXPECT_FALSE(t.Record(lost));
  EXPECT_EQ(t.attempted, 5);
  EXPECT_EQ(t.failed, 4);
  EXPECT_EQ(t.mismatches, 1);
}

TEST(HitRatio, BaseIsLookupsNotRequests) {
  Ratio r = HitRatio(30, 10);
  EXPECT_DOUBLE_EQ(r.value, 0.75);
  EXPECT_EQ(r.base, 40);
  Ratio none = HitRatio(0, 0);
  EXPECT_EQ(none.value, 0.0);
  EXPECT_EQ(none.base, 0);
}

TEST(CoveredMicros, UnionNotSum) {
  // Two partition spans overlapping on different threads: 0-60 and
  // 40-100 cover 100 us, not 120.
  EXPECT_EQ(CoveredMicros({{0, 60}, {40, 100}}, 0, 100), 100);
  // Disjoint, nested and clipped intervals.
  EXPECT_EQ(CoveredMicros({{10, 20}, {30, 40}}, 0, 100), 20);
  EXPECT_EQ(CoveredMicros({{10, 50}, {20, 30}}, 0, 100), 40);
  EXPECT_EQ(CoveredMicros({{-10, 10}, {90, 200}}, 0, 100), 20);
  EXPECT_EQ(CoveredMicros({}, 0, 100), 0);
}

trace::Event Span(uint64_t id, uint64_t parent, int64_t ts, int64_t dur,
                  const std::string& name) {
  trace::Event e;
  e.name = name;
  e.span_id = id;
  e.parent_id = parent;
  e.ts_micros = ts;
  e.dur_micros = dur;
  return e;
}

TEST(SpanIndex, SelfTimeSubtractsUnionOfChildren) {
  // modin:execute 0-100 with three partition children on two threads:
  // 0-50 and 10-60 overlap, 70-80 stands apart. Covered = 60 + 10.
  std::vector<trace::Event> events = {
      Span(1, 0, 0, 100, "modin:execute"),
      Span(2, 1, 0, 50, "partition"),
      Span(3, 1, 10, 50, "partition"),
      Span(4, 1, 70, 10, "partition"),
      Span(5, 2, 5, 40, "kernel"),  // grandchild: inside span 2 already
  };
  trace::Event instant;
  instant.dur_micros = -1;
  instant.parent_id = 1;
  events.push_back(instant);
  SpanIndex index(events);
  EXPECT_EQ(index.spans().size(), 5u);
  EXPECT_EQ(index.SelfMicros(index.spans()[0]), 30);
  // A sum of the children (50 + 50 + 10 = 110) would go negative.
  EXPECT_EQ(index.SelfMicros(index.spans()[1]), 10);
  EXPECT_EQ(index.SelfMicros(index.spans()[3]), 10);  // leaf
  EXPECT_EQ(index.SumSelf([](const trace::Event& e) {
              return e.name == "partition";
            }),
            10 + 50 + 10);
  EXPECT_EQ(index.SumDuration([](const trace::Event& e) {
              return e.name == "partition";
            }),
            110);
}

TEST(SpanIndex, AncestorWalksParentLinks) {
  SpanIndex index({Span(1, 0, 0, 100, "session:dask"),
                   Span(2, 1, 0, 90, "round:1"),
                   Span(3, 2, 0, 80, "print"),
                   Span(4, 0, 0, 10, "session:pandas")});
  auto is_session = [](const trace::Event& e) {
    return e.name.rfind("session:", 0) == 0;
  };
  const trace::Event* owner = index.Ancestor(index.spans()[2], is_session);
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->name, "session:dask");
  EXPECT_EQ(index.Ancestor(index.spans()[3], is_session), nullptr);
}

TEST(Delta, MissingCountersReadAsZero) {
  std::map<std::string, int64_t> before = {{"a", 5}};
  std::map<std::string, int64_t> after = {{"a", 9}, {"b", 2}};
  EXPECT_EQ(Delta(before, after, "a"), 4);
  EXPECT_EQ(Delta(before, after, "b"), 2);
  EXPECT_EQ(Delta(before, after, "c"), 0);
}

}  // namespace
}  // namespace lafp::perfbench
