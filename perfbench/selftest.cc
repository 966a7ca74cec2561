// Hand-computed cases for the benchmark's own arithmetic. Prints every
// mismatch and exits 1 if there was one; the runner executes it before
// every benchmark run.

#include <cstdio>
#include <vector>

#include "perfbench/bench_stats.h"
#include "perfbench/span_trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void TestNearestRank() {
  // Ranks ceil(p * 5) over {15, 20, 35, 40, 50}, given unsorted.
  const std::vector<double> v = {50, 15, 40, 20, 35};
  Expect(NearestRank(v, 0.0) == 15, "p0 is the minimum");
  Expect(NearestRank(v, 0.05) == 15, "p5: rank 1");
  Expect(NearestRank(v, 0.30) == 20, "p30: rank 2");
  Expect(NearestRank(v, 0.40) == 20, "p40: rank 2 exactly");
  Expect(NearestRank(v, 0.50) == 35, "p50: rank 3");
  Expect(NearestRank(v, 1.00) == 50, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  Expect(NearestRank(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRank(hundred, 0.07) == 7, "p7 of 1..100 is 7 despite 0.07 * 100 > 7");
  Expect(NearestRank({}, 0.5) == 0, "no samples gives 0");
}

void TestMedian() {
  Expect(Median({4, 1, 3, 2}) == 2.5 && Median({3, 1, 2}) == 2, "median");
  Expect(Median({}) == 0, "median of nothing is 0");
}

void TestSelfTime() {
  Expect(SelfTimeNs({0, 100}, {}) == 100, "no children: all self");
  Expect(SelfTimeNs({0, 100}, {{10, 30}, {50, 60}}) == 70, "disjoint children");
  Expect(SelfTimeNs({0, 100}, {{30, 60}, {10, 40}}) == 50, "overlapping children count once");
  Expect(SelfTimeNs({0, 100}, {{10, 50}, {20, 30}}) == 60, "a child inside another");
  Expect(SelfTimeNs({100, 200}, {{50, 150}, {190, 250}}) == 40, "children reaching outside");
  Expect(SelfTimeNs({0, 100}, {{0, 100}}) == 0, "a child covering all");

  // Real nested spans: the self times of an op's tree add up to the op.
  SpanRecorder spans(true);
  spans.set_op(1);
  {
    ScopedSpan op(&spans, "bench.op");
    {
      ScopedSpan a(&spans, "core.session");
      ScopedSpan b(&spans, "hw.skinit");
    }
    ScopedSpan c(&spans, "attest.verify");
  }
  const std::vector<uint64_t> self = spans.SelfTimesNs();
  uint64_t sum = 0;
  for (uint64_t ns : self) {
    sum += ns;
  }
  const Span& root = spans.spans()[0];
  Expect(sum == root.end_ns - root.start_ns, "self times of nested spans sum to the root");
  Expect(spans.misnested() == 0 && !spans.any_open(), "scoped spans nest and all close");
  Expect(spans.spans()[2].parent == 1 && spans.spans()[3].parent == 0, "parent links");
  Expect(LayerOf("core.session") == "core" && spans.LayerSelfNs().size() == 4, "layers");

  // Closing an outer span while an inner one is open breaks the nesting.
  SpanRecorder crossed(true);
  const int32_t outer = crossed.Open("core.session");
  const int32_t inner = crossed.Open("hw.skinit");
  Expect(crossed.any_open() && crossed.misnested() == 0, "two spans open");
  crossed.Close(outer);
  Expect(crossed.misnested() == 1, "closing the outer span first is counted");
  crossed.Close(inner);
  Expect(crossed.misnested() == 2 && !crossed.any_open(), "so is the inner span's late close");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNearestRank();
  perfbench::TestMedian();
  perfbench::TestSelfTime();
  if (perfbench::failures != 0) {
    return 1;
  }
  std::printf("perfbench self-test: all arithmetic cases pass\n");
  return 0;
}
