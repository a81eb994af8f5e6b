// Tests of the benchmark's own helpers: the tail rule, self time under
// nested and overlapping children, the metric-name charset, and the
// counting allocator.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "alloc.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Tail, NeedsElevenSamples) {
  EXPECT_FALSE(tail_percentile(iota(10)).has_value());
  const auto t = tail_percentile(iota(11));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->value, 1.0);  // the only value with ten above it
  EXPECT_EQ(t->beyond, 10u);
}

TEST(Tail, HighestPercentileWithTenBeyond) {
  // 100 samples 1..100: the 90th value has exactly ten above it.
  const auto t = tail_percentile(iota(100));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->value, 90.0);
  EXPECT_DOUBLE_EQ(t->percentile, 90.0);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_EQ(t->samples, 100u);

  // 20 samples: the median is the highest rank with ten beyond.
  const auto m = tail_percentile(iota(20));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->value, 10.0);
  EXPECT_DOUBLE_EQ(m->percentile, 50.0);
}

TEST(Tail, OrderOfInputDoesNotMatter) {
  std::vector<double> v = iota(40);
  std::vector<double> shuffled(v.rbegin(), v.rend());
  EXPECT_EQ(tail_percentile(v)->value, tail_percentile(shuffled)->value);
  EXPECT_EQ(tail_percentile(v)->value, 30.0);
}

TEST(Median, LowerMiddle) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

Span span(std::uint32_t id, std::uint32_t parent, std::int64_t a,
          std::int64_t b) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = "x";
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce) {
  // root [0,100) > child [10,50) > grandchild [20,30)
  const std::vector<Span> s = {span(1, 0, 0, 100), span(2, 1, 10, 50),
                               span(3, 2, 20, 30)};
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  // Two parallel children [10,40) and [30,60), plus a disjoint [70,80):
  // the union covers 60 ns of the root's 100.
  const std::vector<Span> s = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                               span(3, 1, 30, 60), span(4, 1, 70, 80)};
  EXPECT_EQ(self_times(s)[0], 40);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> s = {span(1, 0, 10, 50), span(2, 1, 0, 20),
                               span(3, 1, 45, 90), span(4, 1, 12, 18)};
  // Covered inside [10,50): [10,20) and [45,50) = 15 ns.
  EXPECT_EQ(self_times(s)[0], 25);
}

TEST(SelfTime, TracerRecordsParentsAndTotals) {
  Tracer t;
  t.new_op();
  {
    Scoped outer(&t, "outer");
    Scoped inner(&t, "inner");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, t.spans()[0].id);
  EXPECT_EQ(t.spans()[0].op, t.spans()[1].op);
  const auto totals = totals_by_name(t.spans());
  EXPECT_EQ(totals.at("outer").count, 1u);
  EXPECT_LE(totals.at("outer").self_ns, totals.at("outer").total_ns);
  EXPECT_EQ(totals.at("inner").self_ns, totals.at("inner").total_ns);
  Scoped none(nullptr, "ignored");  // a null tracer records nothing
  EXPECT_EQ(t.spans().size(), 2u);
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("runner.ns_per_event.full-ack"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("-leading"));
  EXPECT_FALSE(valid_metric_name("space here"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, SetRejectsBadAndRepeatedNames) {
  MetricSet m;
  m.add("a.b", 1.0, "s");
  EXPECT_THROW(m.add("a.b", 2.0, "s"), std::logic_error);
  EXPECT_THROW(m.add("bad name", 2.0, "s"), std::logic_error);
  EXPECT_EQ(result_line(true, 3, 0, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"a.b\": {\"value\": 1, \"unit\": \"s\"}}}");
}

TEST(Alloc, CountsThisThreadsAllocations) {
  ASSERT_TRUE(alloc_counting_enabled());
  const AllocCount before = thread_alloc_count();
  auto p = std::make_unique<std::uint64_t[]>(16);
  const AllocCount after = thread_alloc_count();
  EXPECT_EQ(after.calls - before.calls, 1u);
  EXPECT_EQ(after.bytes - before.bytes, 16 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace perfbench
