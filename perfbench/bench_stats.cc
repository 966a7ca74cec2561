#include "perfbench/bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  // The epsilon keeps float error in p * n (0.07 * 100 = 7.000000000000001)
  // from bumping an exact rank to the next sample.
  const double rank = std::ceil(p * static_cast<double>(values.size()) - 1e-9);
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t SelfTimeNs(Interval parent, std::vector<Interval> children) {
  if (parent.end_ns <= parent.start_ns) {
    return 0;
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start_ns < b.start_ns; });
  uint64_t covered = 0;
  uint64_t cursor = parent.start_ns;  // Everything before it is already counted.
  for (const Interval& child : children) {
    const uint64_t start = std::max(child.start_ns, cursor);
    const uint64_t end = std::min(child.end_ns, parent.end_ns);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return parent.end_ns - parent.start_ns - covered;
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (word >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::string& text) {
  Add(static_cast<uint64_t>(text.size()));
  for (unsigned char c : text) {
    Add(static_cast<uint64_t>(c));
  }
}

}  // namespace perfbench
