// The benchmark's own arithmetic: nearest-rank percentiles for latency
// tails, medians over passes, span self time, and a digest over everything
// a seed determines. perfbench_selftest checks each against hand-computed
// cases. The quartile spread over runs lives in spread.py.

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile, p in [0, 1]: the smallest sample with at least a
// share p of all samples at or below it, i.e. sorted[ceil(p * n) - 1]
// (p == 0 gives the minimum). 0 for no samples.
double NearestRank(std::vector<double> values, double p);

// The middle value, or the mean of the two middle values for even n (as
// Python's statistics.median). 0 for no samples.
double Median(std::vector<double> values);

// A half-open host-clock interval [start_ns, end_ns).
struct Interval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Length of `parent` not covered by any child. Children may nest, overlap
// one another or reach outside the parent; only their union inside the
// parent is subtracted.
uint64_t SelfTimeNs(Interval parent, std::vector<Interval> children);

// FNV-1a over 64-bit words: an order-sensitive fingerprint of a pass's
// seed-determined outputs, compared across repeats of one seed.
class Digest {
 public:
  void Add(uint64_t word);
  void Add(double value);  // Bit pattern, so any change at all shows.
  void Add(const std::string& text);
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
