#include "src/sim/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "src/crypto/drbg.h"

namespace flicker {
namespace sim {

namespace {

double PickNearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

std::string F3(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

std::string HexDigest(uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

double NearestRankPercentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PickNearestRank(samples, p);
}

void WriteLatencyBlock(std::ostream& os, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  os << "  \"latency_ms\": {\"p50\": " << F3(PickNearestRank(samples, 0.50))
     << ", \"p90\": " << F3(PickNearestRank(samples, 0.90))
     << ", \"p99\": " << F3(PickNearestRank(samples, 0.99))
     << ", \"max\": " << F3(PickNearestRank(samples, 1.0)) << "},\n";
}

void WriteEngineBlock(std::ostream& os, uint64_t events, size_t max_heap,
                      double sim_duration_ms, uint64_t order_digest) {
  os << "  \"engine\": {\"events\": " << events << ", \"max_heap\": " << max_heap
     << ", \"sim_duration_ms\": " << F3(sim_duration_ms) << ", \"order_digest\": \""
     << HexDigest(order_digest) << "\"}\n";
}

double JainFairnessIndex(const std::vector<double>& allocations) {
  double sum = 0;
  double sum_sq = 0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (allocations.empty() || sum_sq == 0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(allocations.size()) * sum_sq);
}

double ExponentialGapMs(Drbg* rng, double mean_ms) {
  const double u = (static_cast<double>(rng->UniformUint64(1ULL << 30)) + 1.0) /
                   static_cast<double>(1ULL << 30);
  return -mean_ms * std::log(u);
}

}  // namespace sim
}  // namespace flicker
